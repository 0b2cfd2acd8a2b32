"""End-to-end serving-tier behaviour: conservation, saturation,
bounded memory, multiplexing and byte-level determinism."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.fuzz import FifoTieBreak, ShuffledTieBreak
from repro.serve import ServeConfig, run_serve
from repro.sim import Environment

#: small but non-trivial point: 2 servers x 2 workers, 2 client ranks
SMALL = ServeConfig(requests=160, service_us=150.0)

#: deliberately starved server queue + generous client window, so the
#: server-side shed path actually fires
STARVED = ServeConfig(requests=200, queue_depth=4, window=48,
                      client_queue=8, service_us=300.0)


def _report(scfg, rho, **kwargs):
    return run_serve(scfg, rho, **kwargs)


# ------------------------------------------------------------ conservation
@pytest.mark.parametrize("scfg,rho", [
    (SMALL, 0.6), (SMALL, 1.3), (STARVED, 1.4),
])
def test_every_request_is_answered_or_shed(scfg, rho):
    report = _report(scfg, rho)
    assert report.completed_ok + report.shed_server \
        + report.shed_client == scfg.requests
    assert report.requests == scfg.requests


def test_below_saturation_nothing_is_shed():
    report = _report(SMALL, 0.5)
    assert report.completed_ok == SMALL.requests
    assert report.shed_server == 0 and report.shed_client == 0
    assert report.p50_us is not None and report.p50_us > 0
    assert report.p50_us <= report.p99_us <= report.p999_us


# -------------------------------------------------------------- saturation
def test_overload_sheds_and_goodput_saturates():
    report = _report(STARVED, 1.4)
    assert report.shed_server > 0          # bounded queue dropped work
    assert report.completed_ok > 0         # but the tier kept serving
    assert report.goodput_rps < report.offered_rps


def test_overload_exercises_the_eadi_credit_path():
    """Under overload the many-senders traffic runs the endpoint out of
    eager credits — the fixed credit machinery is on the hot path."""
    scfg = ServeConfig(requests=300, queue_depth=8, window=64,
                       client_queue=64, service_us=100.0)
    report = _report(scfg, 1.4)
    assert report.credit_stalls > 0
    assert report.completed_ok + report.shed_server \
        + report.shed_client == scfg.requests


# ---------------------------------------------------------- bounded memory
def test_server_queue_and_client_window_stay_bounded():
    report = _report(STARVED, 1.4)
    assert report.peak_queue <= STARVED.queue_depth + STARVED.workers
    assert report.peak_in_flight <= STARVED.window
    assert report.peak_parked <= STARVED.client_queue


# ------------------------------------------------------------ multiplexing
def test_many_simulated_clients_multiplex_over_one_rank():
    """One client rank carries requests from many distinct simulated
    clients over a single EADI endpoint."""
    scfg = ServeConfig(requests=120, n_client_ranks=1,
                       simulated_clients=1_000_000)
    report = _report(scfg, 0.7)
    assert report.completed_ok + report.shed_server \
        + report.shed_client == scfg.requests


@pytest.mark.parametrize("policy",
                         ["round_robin", "least_loaded", "consistent_hash"])
def test_all_policies_complete_and_use_every_server(policy):
    scfg = ServeConfig(requests=160, policy=policy)
    report = _report(scfg, 0.8)
    assert report.completed_ok + report.shed_server \
        + report.shed_client == scfg.requests
    assert all(s["admitted"] > 0 for s in report.per_server)


# ------------------------------------------------------------- determinism
def test_same_seed_same_report():
    one = _report(SMALL, 1.1).to_dict()
    two = _report(SMALL, 1.1).to_dict()
    assert one == two


def test_report_depends_on_seed():
    base = _report(SMALL, 0.9).to_dict()
    other = _report(SMALL.replace(seed=2), 0.9).to_dict()
    assert base != other


def test_fifo_tie_break_hook_is_schedule_equivalent():
    n_ranks = SMALL.n_servers + SMALL.n_client_ranks
    baseline = _report(SMALL, 1.1)
    hooked = _report(SMALL, 1.1, cluster=Cluster(
        n_nodes=n_ranks, env=Environment(tie_break=FifoTieBreak())))
    assert hooked.to_dict() == baseline.to_dict()


#: report fields that must survive adversarial same-instant event
#: permutation: every *outcome* — who completed, who was shed, which
#: server took what.  Timing-derived fields (latency percentiles,
#: goodput, makespan, parks) legitimately drift, because the shuffler
#: permutes wire-level events below the serving tier.
OUTCOME_FIELDS = ("requests", "completed_ok", "shed_server",
                  "shed_client", "peak_in_flight", "peak_parked",
                  "peak_queue", "credit_stalls", "per_server")


@pytest.mark.parametrize("seed", [1, 5])
def test_serve_outcomes_invariant_under_shuffled_tie_break(seed):
    """The client-stamped priority key pins the worker-pool service
    order, so same-instant delivery permutations cannot change which
    requests are served, shed or queued where."""
    n_ranks = SMALL.n_servers + SMALL.n_client_ranks
    baseline = _report(SMALL, 1.1).to_dict()
    shuffled = _report(SMALL, 1.1, cluster=Cluster(
        n_nodes=n_ranks,
        env=Environment(tie_break=ShuffledTieBreak(seed)))).to_dict()
    for field_name in OUTCOME_FIELDS:
        assert shuffled[field_name] == baseline[field_name], field_name


# ------------------------------------------------------- experiment runner
def test_ext_serve_serial_vs_jobs2_byte_identical(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_LOADS", "0.8,1.2")
    monkeypatch.setenv("REPRO_SERVE_REQUESTS", "80")
    from repro.experiments import runner

    serial = runner.run_all(only=["ext-serve"])
    jobs2 = runner.run_all(only=["ext-serve"], jobs=2)
    assert [r.rows for r in jobs2] == [r.rows for r in serial]
    assert [r.format() for r in jobs2] == [r.format() for r in serial]
