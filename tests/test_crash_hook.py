"""The one crash hook, ``repro.telemetry.recorder.dump_on_failure``."""

from __future__ import annotations

import glob
from types import SimpleNamespace

from repro.audit import AuditError
from repro.cluster import Cluster, enabled
from repro.telemetry.recorder import dump_on_failure, load_postmortem


def test_dumps_the_recorder_riding_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
    cluster = Cluster(n_nodes=1, observers=enabled() | {"recorder"})
    cluster.env.run()
    path = dump_on_failure("unit: crash", env=cluster.env,
                           exc=RuntimeError("boom"), note="boom")
    assert path is not None and path.startswith(str(tmp_path))
    assert cluster.recorder.dumps == [path]
    doc = load_postmortem(path)
    assert doc["reason"] == "unit: crash"
    assert doc["note"] == "boom"


def test_skips_audit_errors_the_auditor_already_dumped(tmp_path,
                                                       monkeypatch):
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
    cluster = Cluster(n_nodes=1, observers=enabled() | {"recorder"})
    assert dump_on_failure("unit: audit", env=cluster.env,
                           exc=AuditError([])) is None
    assert glob.glob(str(tmp_path / "postmortem-*.json")) == []


def test_without_an_environment_falls_back_to_the_last_recorder(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_POSTMORTEM_DIR", str(tmp_path))
    Cluster(n_nodes=1, observers=enabled() | {"recorder"})
    newest = Cluster(n_nodes=1, observers=enabled() | {"recorder"})
    path = dump_on_failure("unit: no env")
    assert newest.recorder.dumps == [path]


def test_no_recorder_and_failing_recorders_write_nothing():
    assert dump_on_failure("x", env=Cluster(n_nodes=1).env) is None

    def explode(*_args, **_kwargs):
        raise OSError("disk full")

    env = SimpleNamespace(_recorder=SimpleNamespace(dump=explode))
    assert dump_on_failure("x", env=env, exc=ValueError()) is None
