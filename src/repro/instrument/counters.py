"""Critical-path event counters (the data behind the paper's Table 1).

Table 1 compares the three communication architectures by the number of
OS trappings, the number of interrupt-handling episodes, and where the
NIC is accessed from on the critical path.  Rather than asserting those
properties, we *count* them: the kernel increments ``traps`` on every
syscall, the interrupt controller increments ``interrupts``, and every
NIC register/queue access records whether it was issued from user space
or kernel space.  :meth:`repro.kernel.kernel.Kernel.register_metrics`
exposes the fields to the metrics registry, where Table 1 reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PathCounters"]


@dataclass
class PathCounters:
    """Mutable tally of architecture-relevant events."""

    traps: int = 0
    traps_send_path: int = 0
    traps_recv_path: int = 0
    interrupts: int = 0
    nic_accesses_from_user: int = 0
    nic_accesses_from_kernel: int = 0
    data_copies: int = 0          # host-CPU payload copies (not DMA)
    pio_words: int = 0
    syscalls_by_name: dict[str, int] = field(default_factory=dict)

    def record_trap(self, name: str, path: str = "other") -> None:
        self.traps += 1
        if path == "send":
            self.traps_send_path += 1
        elif path == "recv":
            self.traps_recv_path += 1
        self.syscalls_by_name[name] = self.syscalls_by_name.get(name, 0) + 1

    def record_interrupt(self) -> None:
        self.interrupts += 1

    def record_nic_access(self, from_kernel: bool, words: int = 1) -> None:
        if from_kernel:
            self.nic_accesses_from_kernel += 1
        else:
            self.nic_accesses_from_user += 1
        self.pio_words += words

    def record_copy(self) -> None:
        self.data_copies += 1
