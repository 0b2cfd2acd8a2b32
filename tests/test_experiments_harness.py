"""Tests of the experiment harness itself (result containers,
formatting, paper reference completeness) plus fast sanity runs of the
cheap experiment modules.  The expensive full regenerations live in
benchmarks/."""

from __future__ import annotations

import pytest

from repro.experiments.common import (
    PAPER,
    ExperimentResult,
    format_table,
)


def test_experiment_result_add_row_and_lookup():
    result = ExperimentResult("T", "title", columns=["a", "b"])
    result.add(a=1, b="x")
    result.add(a=2, b="y")
    assert result.row(a=2)["b"] == "y"
    with pytest.raises(KeyError):
        result.row(a=3)


def test_experiment_result_format_contains_everything():
    result = ExperimentResult("Table X", "demo", columns=["name", "value"],
                              notes="a note")
    result.add(name="row1", value=1.234)
    result.add(name="row2", value=None)
    text = result.format()
    assert "Table X" in text and "demo" in text
    assert "row1" in text and "1.23" in text
    assert "-" in text           # None renders as a dash
    assert "a note" in text


def test_format_table_empty_rows():
    text = format_table(["col"], [])
    assert "col" in text


def test_format_table_alignment():
    text = format_table(["name", "v"],
                        [{"name": "long-name-here", "v": 1.0},
                         {"name": "s", "v": 22.5}])
    lines = text.splitlines()
    assert len(lines) == 4
    # all rows padded to equal width
    assert len(set(map(len, lines))) == 1


def test_paper_reference_covers_every_headline_number():
    required = {
        "send_overhead_us": 7.04,
        "recv_overhead_us": 1.01,
        "oneway_0b_inter_us": 18.3,
        "oneway_0b_intra_us": 2.7,
        "peak_bw_inter_mb_s": 146.0,
        "peak_bw_intra_mb_s": 391.0,
        "reliability_nic_us": 5.65,
        "semi_user_extra_us": 4.17,
        "transfer_128k_us": 898.0,
        "mpi_latency_intra_us": 6.3,
        "mpi_latency_inter_us": 23.7,
        "pvm_latency_intra_us": 6.5,
        "pvm_latency_inter_us": 22.4,
        "mpi_bw_inter_mb_s": 131.0,
        "pvm_bw_intra_mb_s": 313.0,
        "pio_write_word_us": 0.24,
        "pio_read_word_us": 0.98,
        "wire_peak_mb_s": 160.0,
    }
    for key, value in required.items():
        assert PAPER[key] == value


def test_runner_lists_all_experiments_without_running_them():
    """The runner module wires every experiment; check imports and
    the cheap ones end to end."""
    from repro.experiments import runner
    results = runner.run_all.__doc__
    assert results is not None
    # The cheapest experiment end-to-end: Table 1.
    result, = runner.run_all(only=["table1"])
    assert {r["architecture"] for r in result.rows} == \
        {"kernel-level", "user-level", "semi-user-level"}


def test_timeline_experiments_are_consistent_with_each_other():
    """Figures 5, 6, 7 come from the same traced message; their shared
    stages must agree."""
    from repro.experiments import timelines
    fig5 = timelines.run_fig5()
    fig7 = timelines.run_fig7()
    fill5 = fig5.row(stage="fill_send_descriptor")["duration_us"]
    fill7 = fig7.row(stage="fill_send_descriptor")["duration_us"]
    assert fill5 == pytest.approx(fill7)
    total7 = fig7.row(stage="TOTAL one-way")["duration_us"]
    push5 = fig5.row(stage="TOTAL push into network")["duration_us"]
    assert push5 < total7
