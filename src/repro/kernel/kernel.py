"""The per-node kernel: trap machinery and OS-level services.

Every kernel entry goes through :meth:`Kernel.syscall`, which charges
the trap entry/exit costs on the calling process's CPU and counts the
trap for the Table 1 accounting.  The BCL kernel module's ioctl
handlers (:mod:`repro.kernel.module`) run *inside* that envelope.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.config import CostModel
from repro.instrument.counters import PathCounters
from repro.kernel.interrupts import InterruptController
from repro.kernel.pindown import PinDownTable
from repro.kernel.security import SecurityValidator
from repro.kernel.shm import SharedMemoryManager
from repro.sim import Environment, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.node import Node, UserProcess

__all__ = ["Kernel"]


class Kernel:
    """One node's operating system kernel."""

    def __init__(self, env: Environment, cfg: CostModel, node: "Node",
                 n_nodes: int, tracer: Optional[Tracer] = None):
        self.env = env
        self.cfg = cfg
        self.node = node
        self.tracer = tracer
        self.name = f"node{node.node_id}.kernel"
        self.counters = PathCounters()
        self.pindown = PinDownTable(cfg)
        self.security = SecurityValidator(n_nodes=n_nodes)
        self.shm = SharedMemoryManager(env, cfg, node.allocator, node.node_id)
        self.interrupts = InterruptController(
            env, cfg, node.cpus, self.counters, f"{self.name}.pic", tracer)
        #: the kernel-level baseline's KernelSocketLibrary, once built
        self.socket_layer = None
        if node.nic is not None:
            node.nic.interrupt_controller = self.interrupts

    def register_metrics(self, registry) -> None:
        """Expose this kernel's Table-1 path counters and pin-down
        table state to a telemetry registry (observation only)."""
        node = str(self.node.node_id)
        counters = self.counters
        for name, attr in (("repro_traps_total", "traps"),
                           ("repro_traps_send_path_total", "traps_send_path"),
                           ("repro_traps_recv_path_total", "traps_recv_path"),
                           ("repro_interrupts_total", "interrupts"),
                           ("repro_data_copies_total", "data_copies"),
                           ("repro_pio_words_total", "pio_words")):
            registry.register_callback(
                name, lambda a=attr: getattr(counters, a),
                kind="counter", node=node)
        for space in ("user", "kernel"):
            registry.register_callback(
                "repro_nic_accesses_total",
                lambda a=f"nic_accesses_from_{space}": getattr(counters, a),
                "NIC register/queue accesses on the critical path",
                kind="counter", space=space, node=node)
        registry.register_callback(
            "repro_pindown_entries",
            lambda: len(self.pindown),
            "pages currently held by the pin-down cache",
            kind="gauge", node=node)
        for name, attr in (("repro_pindown_hits_total", "hits"),
                           ("repro_pindown_misses_total", "misses"),
                           ("repro_pindown_evictions_total", "evictions")):
            registry.register_callback(
                name, lambda a=attr: getattr(self.pindown, a),
                "pin-down cache traffic (evictions indicate thrashing)",
                kind="counter", node=node)

    def syscall(self, proc: "UserProcess", name: str, handler: Generator,
                path: str = "other",
                message_id: Optional[int] = None) -> Generator:
        """Run ``handler`` (a generator) inside a kernel trap.

        Charges trap entry and exit on the caller's CPU; exceptions
        raised by the handler propagate to the caller *after* the trap
        exit is charged, the way a failing ioctl still returns through
        the kernel boundary.
        """
        self.counters.record_trap(name, path)
        yield from proc.cpu.execute(self.cfg.trap_enter_us, category="trap",
                                    stage="trap_enter", message_id=message_id)
        # Note: not a try/finally — yielding while being closed
        # (GeneratorExit) is illegal, so the exit cost is charged on the
        # success and handler-exception paths explicitly.
        try:
            result = yield from handler
        except GeneratorExit:
            raise
        except BaseException:
            yield from proc.cpu.execute(self.cfg.trap_exit_us,
                                        category="trap", stage="trap_exit",
                                        message_id=message_id)
            raise
        yield from proc.cpu.execute(self.cfg.trap_exit_us, category="trap",
                                    stage="trap_exit", message_id=message_id)
        return result
