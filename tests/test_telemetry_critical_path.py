"""Critical-path attribution: exact totals, Figure-7 stages, anomalies."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, enabled
from repro.config import LOSSY_DAWNING
from repro.faults import FaultPlan
from repro.instrument.measure import measure_one_way
from repro.sim.trace import TraceRecord
from repro.telemetry.critical_path import (
    FIGURE7_STAGES,
    attribute_records,
    canonical_stage,
)


def _rec(start, end, category, stage, component="c0", message_id=1,
         **data):
    return TraceRecord(start, end, category, stage, component,
                       message_id, data)


# ------------------------------------------------------------- unit level
def test_canonical_stage_mapping():
    assert canonical_stage(_rec(0, 1, "bcl", "compose_send_request")) \
        == "compose"
    assert canonical_stage(_rec(0, 1, "kernel", "pindown_miss")) \
        == "translate/pin"
    assert canonical_stage(_rec(0, 1, "pio", "fill_send_descriptor")) \
        == "SRQ fill"
    assert canonical_stage(_rec(0, 1, "mcp", "mcp_send_processing")) == "mcp"
    assert canonical_stage(_rec(0, 1, "dma", "dma_nic_to_host")) == "dma"
    # unknown stage falls back to the category map, then the category
    assert canonical_stage(_rec(0, 1, "mcp", "novel_stage")) == "mcp"
    assert canonical_stage(_rec(0, 1, "exotic", "novel_stage")) == "exotic"


def test_attribution_sums_exactly_with_nesting():
    # mcp window [0,100] with a nested dma [20,60]: the inner record
    # wins its interval, nothing is double counted
    records = [_rec(0, 100, "mcp", "mcp_send_processing"),
               _rec(20, 60, "dma", "dma_host_to_nic")]
    report = attribute_records(1, records)
    assert report.total_ns == 100
    assert report.stage_ns("mcp") == 60
    assert report.stage_ns("dma") == 40
    assert sum(s.ns for s in report.stages) == report.total_ns
    assert report.bounding_stage == "mcp"


def test_gap_after_wire_is_wire_else_wait():
    records = [_rec(0, 10, "bcl", "compose_send_request"),
               _rec(20, 30, "wire", "wire_inject"),
               _rec(50, 60, "dma", "dma_nic_to_host")]
    report = attribute_records(1, records)
    # [10,20] follows compose -> wait; [30,50] follows wire -> wire
    assert report.stage_ns("wait") == 10
    assert report.stage_ns("wire") == 10 + 20
    assert sum(s.ns for s in report.stages) == report.total_ns == 60


def test_zero_duration_records_shape_extent_only():
    records = [_rec(10, 20, "mcp", "mcp_send_processing"),
               _rec(5, 5, "fault", "drop")]
    report = attribute_records(1, records)
    assert report.start_ns == 5 and report.end_ns == 20
    assert report.stage_ns("wait") == 5       # [5,10] has no timed record
    assert sum(s.ns for s in report.stages) == 15


def test_empty_records_rejected():
    with pytest.raises(ValueError):
        attribute_records(1, [])


def test_anomaly_flags():
    miss = attribute_records(1, [
        _rec(0, 100, "mcp", "mcp_send_processing"),
        _rec(0, 40, "kernel", "pindown_miss")])
    assert any("pin-down miss" in a for a in miss.anomalies)

    faulted = attribute_records(1, [
        _rec(0, 100, "mcp", "mcp_send_processing"),
        _rec(50, 50, "fault", "drop")])
    assert any("fault" in a for a in faulted.anomalies)

    stalled = attribute_records(1, [
        _rec(0, 10, "bcl", "compose_send_request"),
        _rec(90, 100, "bcl", "complete_send")])
    assert any("wait-dominated" in a for a in stalled.anomalies)

    clean = attribute_records(1, [_rec(0, 100, "mcp", "x")])
    assert clean.anomalies == []


def test_report_format_marks_bounding_and_anomalies():
    report = attribute_records(3, [
        _rec(0, 80, "mcp", "mcp_send_processing"),
        _rec(80, 100, "dma", "dma_nic_to_host"),
        _rec(10, 30, "kernel", "pindown_miss")])
    text = report.format()
    assert "message 3" in text
    assert "<- bounding" in text
    assert "! pin-down miss" in text


# --------------------------------------------- acceptance: the Figure 7 run
@pytest.fixture(scope="module")
def zero_byte_run():
    cluster = Cluster(n_nodes=2, observers=enabled() | {"telemetry"})
    sample = measure_one_way(cluster, 0, repeats=3, warmup=1)
    return cluster.telemetry, sample


def test_zero_byte_breakdown_matches_figure7_stage_set(zero_byte_run):
    session, _sample = zero_byte_run
    report = session.critical_path(session.message_ids()[-1])
    stages = {s.stage for s in report.stages}
    assert {"trap", "check", "translate/pin", "SRQ fill", "wire", "dma",
            "poll"} <= stages
    assert stages - set(FIGURE7_STAGES) <= {"wait", "copy", "shm"}


def test_zero_byte_total_equals_measured_latency(zero_byte_run):
    """The acceptance criterion: per-message attributed total == the
    harness's measured one-way latency, exactly (integer ns)."""
    session, sample = zero_byte_run
    mids = session.message_ids()[-len(sample.samples_us):]
    for mid, measured_us in zip(mids, sample.samples_us):
        report = session.critical_path(mid)
        assert report.total_ns == round(measured_us * 1000)
        assert sum(s.ns for s in report.stages) == report.total_ns


def test_session_top_slowest_ordering(zero_byte_run):
    session, _sample = zero_byte_run
    reports = session.top_slowest(3)
    totals = [r.total_ns for r in reports]
    assert totals == sorted(totals, reverse=True)
    assert len(reports) == 3
    assert len(session.top_slowest(100)) == len(session.message_ids())


def test_latency_histogram_matches_extents(zero_byte_run):
    session, sample = zero_byte_run
    hist = session.latency_histogram
    assert hist.count == len(session.message_ids())
    measured_ns = {round(us * 1000) for us in sample.samples_us}
    assert measured_ns <= set(hist.values)


def test_kernel_level_traps_land_on_their_message():
    """The ``sendto`` trap entry and the ``recvfrom`` trap exit lie on a
    kernel-level message's critical path: its stages sum to the whole
    27.696 us sample, with 2.62 us of trap and 5.50 us of wait left (the
    receive interrupt's work, which carries no message id)."""
    cluster = Cluster(n_nodes=2, architecture="kernel_level",
                      observers=enabled() | {"telemetry"})
    sample = measure_one_way(cluster, 0, repeats=1, warmup=2)
    assert sample.samples_us == [27.696]
    session = cluster.telemetry
    report = session.critical_path(session.message_ids()[-1])
    assert report.total_ns == 27696
    assert {s.stage: s.ns for s in report.stages} == {
        "trap": 2620, "check": 6000, "SRQ fill": 3600, "mcp": 6470,
        "wire": 3506, "wait": 5500}


# --------------------------------------------------- anomalies, end to end
def test_lossy_run_flags_recovery_anomalies():
    cluster = Cluster(n_nodes=2, observers=enabled() | {"telemetry"},
                      cfg=LOSSY_DAWNING,
                      fault_plan=FaultPlan(seed=3, drop_rate=0.25))
    measure_one_way(cluster, 20000, repeats=3, warmup=1)
    anomalies = [a for r in cluster.telemetry.reports()
                 for a in r.anomalies]
    assert any("fault" in a or "wait-dominated" in a for a in anomalies)
