"""Overload sweep for the serving tier: offered load through saturation.

Each cell runs one ``(rho, policy, arrivals)`` point of the RPC tier
(:func:`repro.serve.run_serve`) on a traced cluster and reports tail
latency (p50/p99/p99.9), goodput, shed/queued counts and the aggregate
busy-time stage table for the run (folded from raw spans by the same
:class:`~repro.telemetry.critical_path.StageFold` the scale sweep uses).

The default load axis crosses saturation — 0.5 through 1.4 x nominal
service capacity — so the merged table shows the knee: goodput flat-
lining at capacity while p99.9 departs and admission control starts
shedding.  Axes are env-overridable for smoke runs::

    REPRO_SERVE_LOADS=0.8,1.2 REPRO_SERVE_REQUESTS=200 \
        repro evaluate --only ext-serve
"""

from __future__ import annotations

import os

from repro.cluster import Cluster
from repro.config import DAWNING_3000, CostModel
from repro.experiments.common import ExperimentResult
from repro.serve.config import ServeConfig
from repro.serve.tier import run_serve
from repro.telemetry.critical_path import StageFold

__all__ = ["measure_serve_point", "serve_loads", "serve_requests",
           "merge_serve", "SERVE_POLICIES"]

#: policies the sweep compares at the default overload point
SERVE_POLICIES = ("round_robin", "least_loaded", "consistent_hash")


def serve_loads() -> tuple[float, ...]:
    """Offered-load axis (env-overridable: ``REPRO_SERVE_LOADS``)."""
    raw = os.environ.get("REPRO_SERVE_LOADS", "0.5,0.8,0.95,1.1,1.4")
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def serve_requests() -> int:
    """Requests per point (env-overridable: ``REPRO_SERVE_REQUESTS``)."""
    return int(os.environ.get("REPRO_SERVE_REQUESTS", "1200"))


def _serve_config(policy: str, arrivals: str) -> ServeConfig:
    return ServeConfig(requests=serve_requests(), policy=policy,
                       arrivals=arrivals)


def measure_serve_point(cfg: CostModel = DAWNING_3000, *, rho: float,
                        policy: str = "round_robin",
                        arrivals: str = "poisson") -> dict:
    """One offered-load point; returns a JSON-able payload."""
    scfg = _serve_config(policy, arrivals)
    n_nodes = scfg.n_servers + scfg.n_client_ranks
    cluster = Cluster(n_nodes=n_nodes, cfg=cfg, trace=True)
    agg = StageFold(cluster.tracer)
    agg.armed = True
    report = run_serve(scfg, rho, cfg=cfg, cluster=cluster)
    table = agg.table()
    payload = report.to_dict()
    payload.update({
        "policy": policy, "arrivals": arrivals,
        "stage_table": table,
        "bounding_stage": table[0][0] if table else None,
    })
    return payload


def merge_serve(cfg: CostModel, payloads: list) -> ExperimentResult:
    """Fold sweep points into the overload table."""
    result = ExperimentResult(
        experiment_id="ext-serve",
        title="Serving tier under offered-load sweep through saturation",
        columns=["policy", "arrivals", "rho", "offered_rps",
                 "goodput_rps", "p50_us", "p99_us", "p999_us", "ok",
                 "shed", "parks", "bound"],
        notes="shed = server + client admission sheds; parks = arrivals "
              "that waited for a window slot; bound = stage with the "
              "largest aggregate critical-path share "
              "(repro.telemetry.critical_path.canonical_stage)")
    for p in sorted(payloads, key=lambda p: (p["policy"], p["arrivals"],
                                             p["rho"])):
        result.add(
            policy=p["policy"], arrivals=p["arrivals"], rho=p["rho"],
            offered_rps=p["offered_rps"], goodput_rps=p["goodput_rps"],
            p50_us=p["p50_us"], p99_us=p["p99_us"], p999_us=p["p999_us"],
            ok=p["completed_ok"],
            shed=p["shed_server"] + p["shed_client"],
            parks=p["admission_parks"], bound=p["bounding_stage"])
    return result
