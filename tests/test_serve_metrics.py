"""Serving-tier metric families: conservation and drain invariants.

Every request offered to the tier must be accounted for exactly once:
`repro_serve_ok_total` plus the two `repro_serve_shed_total` series
(server admission, client window) must sum to the offered request
count — and each series must agree with the ServeReport the run
returned through the non-telemetry path.  After the tier drains, every
`repro_serve_queue_depth` gauge must read zero.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, enabled
from repro.serve.config import ServeConfig
from repro.serve.tier import run_serve


def _run_point(scfg: ServeConfig, rho: float):
    n_ranks = scfg.n_servers + scfg.n_client_ranks
    cluster = Cluster(n_nodes=n_ranks, observers=enabled() | {"telemetry"})
    report = run_serve(scfg, rho, cluster=cluster)
    return cluster.telemetry.registry, report


@pytest.mark.parametrize("rho", [0.8, 1.4])
def test_serve_request_conservation(rho):
    scfg = ServeConfig(requests=150, seed=3)
    registry, report = _run_point(scfg, rho)

    ok = registry.get("repro_serve_ok_total").value()
    shed_server = registry.get("repro_serve_shed_total",
                               where="server").value()
    shed_client = registry.get("repro_serve_shed_total",
                               where="client").value()

    assert ok == report.completed_ok
    assert shed_server == report.shed_server
    assert shed_client == report.shed_client
    assert ok + shed_server + shed_client == scfg.requests

    latency = registry.get("repro_serve_latency_ns")
    assert latency is not None and latency.count == report.completed_ok


def test_serve_queue_depth_gauges_zero_after_drain():
    scfg = ServeConfig(requests=120, seed=5)
    registry, report = _run_point(scfg, 1.2)
    for rank in range(scfg.n_servers):
        gauge = registry.get("repro_serve_queue_depth", server=rank)
        assert gauge is not None
        assert gauge.value() == 0, f"server {rank} did not drain"
    assert report.completed_ok > 0


def test_serve_overload_sheds_are_counted():
    """A deliberately tiny deployment at 2x capacity must shed, and
    the shed series must absorb every missing request."""
    scfg = ServeConfig(requests=200, seed=7, workers=1, queue_depth=2,
                       window=2, client_queue=0)
    registry, report = _run_point(scfg, 2.0)

    ok = registry.get("repro_serve_ok_total").value()
    shed_server = registry.get("repro_serve_shed_total",
                               where="server").value()
    shed_client = registry.get("repro_serve_shed_total",
                               where="client").value()
    assert shed_server + shed_client > 0
    assert ok + shed_server + shed_client == scfg.requests
    assert report.completed_ok < scfg.requests


def test_serve_ledger_carries_latency_percentiles():
    scfg = ServeConfig(requests=120, seed=9)
    n_ranks = scfg.n_servers + scfg.n_client_ranks
    cluster = Cluster(n_nodes=n_ranks, observers=enabled() | {"telemetry"})
    report = run_serve(scfg, 0.8, cluster=cluster)
    doc = cluster.telemetry.to_ledger("serve", seed=scfg.seed)
    assert "repro_serve_latency_ns" in doc["percentiles"]
    quantiles = doc["percentiles"]["repro_serve_latency_ns"]
    assert quantiles["p50"] <= quantiles["p99"] <= quantiles["p999"]
    # Exact nearest-rank parity with the report's own percentiles
    # (the report rounds to us with 3 decimals).
    assert quantiles["p99"] == pytest.approx(report.p99_us * 1000, abs=1)
