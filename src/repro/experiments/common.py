"""Shared experiment machinery: paper reference values and result
formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "PAPER",
    "ExperimentResult",
    "result_to_payload",
    "result_from_payload",
    "format_table",
]

#: Every number the paper reports in section 5, keyed for the
#: per-experiment paper-vs-measured columns.
PAPER: dict[str, Any] = {
    "send_overhead_us": 7.04,
    "send_complete_us": 0.82,
    "recv_overhead_us": 1.01,
    "oneway_0b_inter_us": 18.3,
    "oneway_0b_intra_us": 2.7,
    "peak_bw_inter_mb_s": 146.0,
    "peak_bw_intra_mb_s": 391.0,
    "wire_peak_mb_s": 160.0,
    "bw_fraction_of_wire": 0.91,
    "half_bandwidth_bytes": 4096,
    "semi_user_extra_us": 4.17,
    "semi_user_extra_fraction": 0.22,
    "transfer_128k_us": 898.0,
    "reliability_nic_us": 5.65,
    "mpi_latency_intra_us": 6.3,
    "mpi_latency_inter_us": 23.7,
    "mpi_bw_intra_mb_s": 328.0,
    "mpi_bw_inter_mb_s": 131.0,
    "pvm_latency_intra_us": 6.5,
    "pvm_latency_inter_us": 22.4,
    "pvm_bw_intra_mb_s": 313.0,
    "pvm_bw_inter_mb_s": 131.0,
    # Table 2 (era-typical published figures for the comparators)
    "gm_latency_us": (11.0, 21.0),
    "gm_bw_mb_s": 140.0,
    "pio_write_word_us": 0.24,
    "pio_read_word_us": 0.98,
}


@dataclass
class ExperimentResult:
    """Rows + metadata for one regenerated table/figure."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def add(self, **row: Any) -> None:
        self.rows.append(row)

    def row(self, **match: Any) -> dict[str, Any]:
        """First row whose fields match ``match`` (for assertions)."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match!r}")

    def format(self) -> str:
        header = f"== {self.experiment_id}: {self.title} =="
        body = format_table(self.columns, self.rows)
        parts = [header, body]
        if self.notes:
            parts.append(self.notes)
        return "\n".join(parts)


def result_to_payload(result: ExperimentResult) -> dict[str, Any]:
    """Flatten a result to plain JSON-able data (runner cell payload).

    Rows must contain only scalars (str/int/float/bool/None) so the
    payload survives a JSON round-trip through the run cache without
    changing type or value.
    """
    return {"experiment_id": result.experiment_id, "title": result.title,
            "columns": list(result.columns),
            "rows": [dict(r) for r in result.rows], "notes": result.notes}


def result_from_payload(payload: dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`result_to_payload`."""
    return ExperimentResult(
        experiment_id=payload["experiment_id"], title=payload["title"],
        columns=list(payload["columns"]),
        rows=[dict(r) for r in payload["rows"]], notes=payload["notes"])


def format_table(columns: list[str], rows: list[dict[str, Any]]) -> str:
    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        if value is None:
            return "-"
        return str(value)

    table = [[fmt(r.get(c)) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table)) if table
              else len(c) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths))
              for row in table]
    return "\n".join(lines)
