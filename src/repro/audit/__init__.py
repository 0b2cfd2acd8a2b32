"""Runtime invariant auditing for the simulated communication stack.

The paper's claims are accounting claims — every microsecond and every
byte is attributed to a specific stage — so the reproduction carries a
sanitizer-style auditor that checks the accounting mechanically while
the simulation runs:

* **sim core** — no event is ever processed at a time earlier than the
  clock, and no waiter is left orphaned in a Store/Resource queue at
  quiesce;
* **NIC/firmware** — per-flow byte conservation (every payload byte
  put on the wire is delivered, dropped with a fault record, or
  retransmitted and deduplicated), sequence-number monotonicity, and
  reassembly-map emptiness at quiesce;
* **kernel** — pin-down pages released at process exit, and pin-down
  table entries always backed by a live pin (no double-unpin drift);
* **BCL/EADI** — eager-credit balance never exceeds the initial grant,
  and no credit/channel waiter survives endpoint teardown.

Attach it per cluster with ``Cluster(observers=("audit",))``, globally
with ``repro.cluster.enable("audit")`` (or ``REPRO_OBSERVERS=audit``,
inherited by ``--jobs N`` worker processes), or per run with ``repro
evaluate --audit`` / ``pytest --audit``.  It must be there when the
cluster is built: stores, resources and flows register with it then.
Violations raise :class:`AuditError` with a structured report naming
the layer, rule, flow and offending event.

The auditor is a pure observer: it schedules no events, consumes no
randomness and never mutates protocol state, so an audited run is
byte-identical to an unaudited one (cache entries stay valid).

:mod:`repro.audit.lint` is the static companion: an AST lint that
flags generator methods called without ``yield from`` (a silent no-op
in generator-coroutine simulations).  Run it as
``python -m repro.audit.lint src tests examples``.
"""

from repro.audit.core import (
    AuditError,
    Auditor,
    BclChecker,
    FirmwareChecker,
    KernelChecker,
    SimChecker,
    Violation,
)

__all__ = [
    "AuditError",
    "Auditor",
    "BclChecker",
    "FirmwareChecker",
    "KernelChecker",
    "SimChecker",
    "Violation",
]
