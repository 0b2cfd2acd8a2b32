"""Self-test of the benchmark (not of the program).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` follows the benchmark schema, that an
injected output mismatch is counted as a failed operation, and smokes
every workload at reduced size, untraced and traced, at the default
seed and at a held-out seed.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
HELD_OUT_SEED = 7


def check_schema(doc: dict) -> list[str]:
    """Problems with ``BENCHMARK.json`` (empty when it conforms)."""
    bad = []
    if set(doc) != {"command", "paths", "run_seconds", "workloads",
                    "end_to_end", "per_layer"}:
        bad.append(f"top-level keys {sorted(doc)}")
    cmd = doc.get("command", [])
    if not (1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200
                                        for c in cmd)):
        bad.append("command must be 1-32 strings of <= 200 chars")
    paths = doc.get("paths", [])
    if not 1 <= len(paths) <= 16:
        bad.append("paths must list 1-16 directories")
    for p in paths:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            bad.append(f"bad path {p!r}")
    for arg in cmd[1:]:
        if "/" in arg and not any(arg.startswith(p + "/") for p in paths):
            bad.append(f"command names {arg!r} outside paths")
    if not (isinstance(doc.get("run_seconds"), int)
            and 1 <= doc["run_seconds"] <= 60):
        bad.append("run_seconds must be a whole number 1-60")
    names: list[str] = []
    workloads = doc.get("workloads", [])
    if not 2 <= len(workloads) <= 8:
        bad.append("need 2-8 workloads")
    for w in workloads:
        if set(w) != {"name", "why"} or "\n" in w["why"] \
                or len(w["why"]) > 200:
            bad.append(f"workload {w}")
        names.append(w.get("name", ""))
    for section, keys, lo, hi in (
            ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
            ("per_layer", {"name", "unit", "better"}, 1, 128)):
        metrics = doc.get(section, [])
        if not lo <= len(metrics) <= hi:
            bad.append(f"{section} needs {lo}-{hi} metrics")
        for m in metrics:
            if set(m) != keys or not UNIT.match(m["unit"]) \
                    or m["better"] not in ("lower", "higher"):
                bad.append(f"{section} metric {m}")
            if "bound" in m and not 0 < m["bound"] <= 0.25:
                bad.append(f"bound of {m['name']} outside (0, 0.25]")
            names.append(m.get("name", ""))
    for n in names:
        if not NAME.match(n):
            bad.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        bad.append("names are not unique")
    setup = [m for m in doc.get("end_to_end", []) if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        bad.append("setup_s (s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in doc["end_to_end"]):
        bad.append("setup_s must carry the largest bound")
    if len(json.dumps(doc)) > 64 * 1024:
        bad.append("file over 64 KiB")
    return bad


def check_mismatch_flagged() -> list[str]:
    """Run one real round, then corrupt one op's output: exactly that
    op must count as failed."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness
    import workloads
    from repro.experiments.common import PAPER

    ops = workloads.pingpong_ops(1)
    clock = harness.PhaseClock()
    tally = harness.Tally()
    with clock.installed():
        harness.run_ops(ops, clock, tally, 0.0)
        victim = ops[0]
        honest = victim.run

        def corrupted():
            out = honest()
            out["samples_us"] = [x + 0.001 for x in out["samples_us"]]
            return out

        victim.run = corrupted
        harness.run_ops([victim], clock, tally, 0.0)
    bad = []
    if tally.failed != 1 or not tally.failures[0].startswith(victim.label):
        bad.append(f"corrupted samples not flagged: {tally}")
    anchors = workloads.paper_anchors(ops)
    if round(max(a["error_pct"] for a in anchors), 2) != 8.44:
        bad.append("paper_error_pct at the default seed is not 8.44 %")
    PAPER["oneway_0b_inter_us"] *= 1.5          # a paper anchor moves
    try:
        far = [a for a in workloads.paper_anchors(ops)
               if a["band"] is not None
               and a["error_pct"] > a["band"] * 100.0]
    finally:
        PAPER["oneway_0b_inter_us"] /= 1.5
    if [a["name"] for a in far] != ["bcl_inter_0b_us"]:
        bad.append(f"out-of-band anchor not flagged: {far}")
    host, nic = workloads.fabric_ops(1)
    good = {"latency_us": 313.12, "events": 742146, "stage_table": [["x", 1]]}
    if host.check(good) or not host.check({**good, "events": 742147}):
        bad.append("fabric exact check does not flag an event-count drift")
    for op in workloads.serve_ops(HELD_OUT_SEED, small=True):
        leaky = {"requests": 200, "completed_ok": 150, "shed_server": 10,
                 "shed_client": 30, "per_server": [{"served": 150}]}
        if not op.check(leaky):
            bad.append("serve conservation check misses a lost request")
    return bad


def run_bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if workload != "pingpong-paper":
        cmd.append("--small")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_smoke(doc: dict) -> list[str]:
    bad = []
    want = {0: {m["name"] for m in doc["end_to_end"]},
            1: {m["name"] for m in doc["per_layer"]}}
    for w in doc["workloads"]:
        for seed, trace in ((1, 0), (1, 1), (HELD_OUT_SEED, 0)):
            out = run_bench(w["name"], seed, trace)
            tag = f"{w['name']} seed {seed} trace {trace}"
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                bad.append(f"{tag}: result keys {sorted(out)}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                bad.append(f"{tag}: outputs not correct: {out}")
            if set(out["metrics"]) != want[trace]:
                bad.append(f"{tag}: metrics "
                           f"{sorted(set(out['metrics']) ^ want[trace])}")
            print(f"smoke {tag}: {out['attempted']} checked, "
                  f"{out['failed']} failed")
    return bad


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, check in (("schema", lambda: check_schema(doc)),
                        ("mismatch", check_mismatch_flagged),
                        ("smoke", lambda: check_smoke(doc))):
        bad = check()
        print(f"{name}: {'ok' if not bad else 'FAILED'}")
        for line in bad:
            print(f"  {line}")
        if bad:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
