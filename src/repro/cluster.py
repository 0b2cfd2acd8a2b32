"""Composition root: build a complete simulated cluster.

:class:`Cluster` assembles nodes (CPUs, memory, PCI, NIC), the network
fabric, per-node kernels with the BCL kernel module, and the MCP
firmware on every NIC — i.e. a ready-to-use DAWNING-3000-style machine.

The ``architecture`` argument selects which protocol stack the NICs and
kernels are configured for:

* ``"semi_user"`` — the paper's BCL (default): physical-address
  descriptors filled by the kernel, trap-free receive.
* ``"user_level"`` — GM/VIA-style baseline: the NIC translates through
  its TLB; the user library writes descriptors and doorbells directly
  (see :mod:`repro.baselines.user_level`).
* ``"kernel_level"`` — TCP-style baseline: traps on both sides plus
  per-arrival interrupts (see :mod:`repro.baselines.kernel_level`).

All three run on identical simulated hardware, like the paper's
single-testbed comparison.

Three pure observers can ride a cluster: the invariant auditor
(``"audit"``, :mod:`repro.audit`), the telemetry session
(``"telemetry"``, :mod:`repro.telemetry`) and the crash flight recorder
(``"recorder"``, :mod:`repro.telemetry.recorder`).  ``Cluster(observers=
("audit",))`` names exactly the set one cluster carries;
``observers=None`` takes the global set, which :func:`enable` and
:func:`disable` edit and which lives in the ``REPRO_OBSERVERS``
environment variable (comma-separated), so ``--jobs N`` worker
processes inherit it.  An unknown name raises :class:`ValueError`.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from repro.config import DAWNING_3000, CostModel
from repro.faults import FaultInjector, FaultPlan, install_plan
from repro.firmware.mcp import Mcp
from repro.hw.network import Network, build_network
from repro.hw.node import Node, UserProcess
from repro.kernel.kernel import Kernel
from repro.kernel.module import BclKernelModule
from repro.sim import Environment, Tracer

__all__ = ["Cluster", "OBSERVERS", "disable", "enable", "enabled"]

ARCHITECTURES = ("semi_user", "user_level", "kernel_level")

#: the observers a cluster can carry, in ``REPRO_OBSERVERS`` order
OBSERVERS = ("audit", "telemetry", "recorder")
_OBSERVERS_ENV = "REPRO_OBSERVERS"


def _observer_set(names: Iterable[str]) -> frozenset[str]:
    if isinstance(names, str):
        raise TypeError(f"observers takes an iterable of names, not the "
                        f"string {names!r}")
    chosen = frozenset(names)
    unknown = chosen.difference(OBSERVERS)
    if unknown:
        raise ValueError(f"unknown observer(s) {sorted(unknown)}; "
                         f"choose from {OBSERVERS}")
    return chosen


def enabled() -> frozenset[str]:
    """The global observer set: the names in ``REPRO_OBSERVERS``."""
    raw = os.environ.get(_OBSERVERS_ENV, "")
    return _observer_set(tok.strip() for tok in raw.split(",")
                         if tok.strip())


def _set_global(names: frozenset[str]) -> None:
    if names:
        os.environ[_OBSERVERS_ENV] = ",".join(
            name for name in OBSERVERS if name in names)
    else:
        os.environ.pop(_OBSERVERS_ENV, None)


def enable(*names: str) -> None:
    """Add ``names`` to the global set for every Cluster built after."""
    _set_global(enabled() | _observer_set(names))


def disable(*names: str) -> None:
    """Take ``names`` out of the global set."""
    _set_global(enabled() - _observer_set(names))


class Cluster:
    """A simulated SMP cluster running one communication architecture."""

    def __init__(self, n_nodes: int = 2,
                 cfg: CostModel = DAWNING_3000,
                 architecture: str = "semi_user",
                 topology: str = "single_switch",
                 trace: bool = False,
                 reliable: bool = True,
                 fault_plan: Optional[FaultPlan] = None,
                 env: Optional[Environment] = None,
                 observers: Optional[Iterable[str]] = None):
        if architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {architecture!r}; "
                f"choose one of {ARCHITECTURES}")
        cfg.validate()
        self.cfg = cfg
        self.architecture = architecture
        observers = (enabled() if observers is None
                     else _observer_set(observers))
        self.env = env if env is not None else Environment()
        # The invariant auditor must exist on the environment *before*
        # nodes, network and MCPs are built, so their Stores, Resources
        # and go-back-N flows self-register.
        self.auditor = None
        if "audit" in observers:
            from repro.audit import Auditor
            self.auditor = getattr(self.env, "_audit", None) or \
                Auditor(self.env)
        self.tracer = Tracer(enabled=trace)
        translation = "virtual" if architecture == "user_level" else "physical"
        self.nodes: list[Node] = [
            Node(self.env, cfg, node_id, self.tracer,
                 nic_translation_mode=translation)
            for node_id in range(n_nodes)
        ]
        self.network: Network = build_network(
            self.env, cfg, n_nodes, topology)
        #: seeded per-link injectors, when a fault_plan is installed
        self.fault_plan = fault_plan
        self.fault_injectors: list[FaultInjector] = []
        if fault_plan is not None:
            self.fault_injectors = install_plan(self, fault_plan)
        self.mcps: list[Mcp] = []
        for node in self.nodes:
            node.nic.attach_network(self.network)
            self.mcps.append(Mcp(self.env, cfg, node.nic, self.tracer,
                                 reliable=reliable))
            kernel = Kernel(self.env, cfg, node, n_nodes, self.tracer)
            kernel.bcl_module = BclKernelModule(kernel, self.tracer)
            node.kernel = kernel
        if self.auditor is not None:
            self.auditor.bind_cluster(self)
        # Message-lifecycle telemetry (repro.telemetry): spans, metrics
        # and critical-path attribution.  Attached last so every
        # layer's counters already exist to register.
        self.telemetry = None
        if "telemetry" in observers:
            from repro.telemetry import TelemetrySession
            self.telemetry = TelemetrySession(self)
        # Crash flight recorder: a bounded ring of recent heartbeats
        # and span openings, dumped to postmortem-*.json on failure.
        self.recorder = None
        if "recorder" in observers:
            from repro.telemetry.recorder import FlightRecorder
            self.recorder = FlightRecorder(self)

    # ------------------------------------------------------------- access
    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def spawn(self, node_id: int, pid: Optional[int] = None,
              cpu_index: Optional[int] = None) -> UserProcess:
        """Spawn a user process on a node."""
        return self.nodes[node_id].spawn_process(pid, cpu_index)

    def run(self, until=None):
        return self.env.run(until)

    # ----------------------------------------------------------- telemetry
    @property
    def total_traps(self) -> int:
        return sum(n.kernel.counters.traps for n in self.nodes)

    @property
    def total_interrupts(self) -> int:
        return sum(n.kernel.counters.interrupts for n in self.nodes)

    @property
    def total_retransmissions(self) -> int:
        return sum(s.retransmissions
                   for mcp in self.mcps
                   for s in mcp._senders.values())

    @property
    def total_fast_retransmits(self) -> int:
        return sum(s.fast_retransmits
                   for mcp in self.mcps
                   for s in mcp._senders.values())

    @property
    def total_injected_faults(self) -> int:
        return sum(inj.total_losses + inj.corruptions + inj.duplicates
                   + inj.reorders for inj in self.fault_injectors)
