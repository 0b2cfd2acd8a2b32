"""Regression: a run loads numpy, libcrypto and multiprocessing only
where it uses them.

Importing ``repro`` used to load numpy (and its OpenBLAS thread) for
the array collectives, ``hashlib`` (OpenSSL's libcrypto) for the run
cache and the ledger digest, ``platform``/``subprocess`` for ledger
provenance and ``multiprocessing`` for ``--jobs``: about 18 MiB
resident that no ping-pong, serve point or barrier touches.  Each is
now imported inside the function that uses it.

pytest itself loads numpy, so the runs happen in a fresh interpreter;
it prints one JSON line that the tests below read.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: modules no message (``repro observe`` included), serve or barrier
#: path may load
HEAVY = ("numpy", "_hashlib", "subprocess", "platform", "multiprocessing")

REPO = Path(__file__).resolve().parents[2]

#: ``config_digest(DAWNING_3000)``, recorded when the unused
#: ``strict_routes`` and ``nic_sram_bytes`` fields left ``CostModel``
#: (``92750d5d6fae0549`` before, from the commit before the imports
#: moved)
CONFIG_DIGEST = "3ec3074a36f32c9f"
#: ``RunCache.key`` of one NIC allreduce cell with the source
#: fingerprint fixed at ``"f" * 64`` (the real one changes with the
#: code); ``8f1bdf41...`` with the two deleted fields
CACHE_KEY = "9b4707df50146a1e1e664480f08af24d45ee2b9d8d947636e2827050331d0b25"

PROBE = r'''
import contextlib, io, json, sys

import repro, repro.cli, repro.experiments.runner, repro.workloads
from repro.cluster import Cluster
from repro.config import DAWNING_3000
from repro.experiments import cache
from repro.experiments.runner import run_cell
from repro.instrument.measure import measure_one_way
from repro.serve.config import ServeConfig
from repro.serve.tier import run_serve
from repro.telemetry.ledger import config_digest
from repro.upper.job import run_spmd

HEAVY = %r


def loaded():
    return [name for name in HEAVY if name in sys.modules]


def mpi(ep):
    buf = ep.proc.alloc(64)
    if ep.rank == 0:
        yield from ep.send(1, buf, 64, tag=1)
        yield from ep.recv(1, 2, buf, 64)
    else:
        yield from ep.recv(0, 1, buf, 64)
        yield from ep.send(0, buf, 64, tag=2)


def pvm(ep):
    if ep.rank == 0:
        ep.initsend()
        yield from ep.pack_bytes(b"ping")
        yield from ep.send(1, 1)
        yield from ep.recv(1, 2)
        return (yield from ep.upk_bytes())
    yield from ep.recv(0, 1)
    data = yield from ep.upk_bytes()
    ep.initsend()
    yield from ep.pack_bytes(data + b"/pong")
    yield from ep.send(0, 2)


def scale(collectives, op):
    return run_cell("scale.point", n_ranks=16, topology="single_switch",
                    collectives=collectives, op=op)["latency_us"]


out = {"after_import": loaded()}
out["one_way_us"] = [
    measure_one_way(Cluster(n_nodes=2), n, repeats=2).samples_us[0]
    for n in (0, 4096)]
run_spmd(Cluster(n_nodes=2), 2, mpi, layer="mpi")
out["pvm_echo"] = run_spmd(Cluster(n_nodes=2), 2, pvm,
                           layer="pvm")[0].decode()
out["serve_ok"] = run_serve(ServeConfig(requests=100), 0.8).completed_ok
with contextlib.redirect_stdout(io.StringIO()) as observed:
    repro.cli.main(["observe", "--bytes", "0", "--drop", "0.1", "--top",
                    "1", "--report"])
out["observe_row"] = observed.getvalue().splitlines()[1].split()
out["barrier_us"] = {c: scale(c, "barrier") for c in ("host", "nic")}
out["after_runs"] = loaded()
out["allreduce_us"] = {c: scale(c, "allreduce") for c in ("host", "nic")}
out["after_allreduce"] = loaded()
out["config_digest"] = config_digest(DAWNING_3000)
cache._fingerprint_cache = "f" * 64
out["cache_key"] = cache.RunCache("unused").key(
    DAWNING_3000, "scale.point",
    {"n_ranks": 16, "topology": "single_switch", "collectives": "nic",
     "op": "allreduce"})
print(json.dumps(out))
''' % (HEAVY,)


#: ``import repro`` and a bare 0 B one-way message, nothing else: the
#: telemetry package (session, spans, ledger, recorder, diff) stays
#: unloaded, since ``repro.instrument.recovery`` imports the metrics
#: registry inside ``recovery_summary``
BARE_PROBE = r'''
import json, sys

import repro

repro.measure_one_way(repro.Cluster(n_nodes=2), 0)
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("repro.telemetry"))))
'''


def _run_probe(source: str) -> object:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", source], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def probe() -> dict:
    return _run_probe(PROBE)


def test_bare_message_loads_no_telemetry_module():
    assert _run_probe(BARE_PROBE) == []


def _bench_scale_latency(name: str) -> float:
    doc = json.loads((REPO / "BENCH_scale.json").read_text())
    return next(r["latency_us"] for r in doc["results"]
                if r["name"] == name)


def test_import_loads_no_heavy_module(probe):
    assert probe["after_import"] == []


def test_message_serve_and_barrier_paths_load_no_heavy_module(probe):
    assert probe["one_way_us"] == [18.327, 53.685]
    assert probe["pvm_echo"] == "ping/pong"
    assert probe["serve_ok"] == 100
    assert probe["observe_row"] == ["0", "18.33", "0.0"]
    assert probe["barrier_us"] == {"host": 156.56, "nic": 58.445}
    assert probe["after_runs"] == []


def test_allreduce_loads_numpy_and_matches_bench_scale(probe):
    assert "numpy" in probe["after_allreduce"]
    for collectives in ("host", "nic"):
        assert probe["allreduce_us"][collectives] == _bench_scale_latency(
            f"allreduce/single_switch/16/{collectives}")


def test_digests_unchanged_by_the_moved_imports(probe):
    assert probe["config_digest"] == CONFIG_DIGEST
    assert probe["cache_key"] == CACHE_KEY
