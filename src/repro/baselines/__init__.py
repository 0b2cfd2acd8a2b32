"""Comparison architectures.

* :mod:`repro.baselines.user_level` — a GM/VIA-class fully user-level
  protocol: the library writes descriptors and doorbells straight into
  NIC memory (no traps), and the NIC translates addresses through its
  on-card TLB.
* :mod:`repro.baselines.kernel_level` — a TCP/UDP-class kernel
  networking stack: traps on both sides, data copies through kernel
  socket buffers, software checksum, and an interrupt per arriving
  segment.
* :mod:`repro.baselines.models` — presets assembling Table 2's
  comparison protocols (GM, AM-II, BIP) from the simulated stacks.

All of them run on the same simulated hardware as BCL, so the
differences measured are purely architectural — the paper's setting.
"""

from repro.baselines.kernel_level import KernelSocket, KernelSocketLibrary
from repro.baselines.user_level import UserLevelLibrary, UserLevelPort
from repro.bcl.api import BclLibrary

__all__ = [
    "KernelSocket",
    "KernelSocketLibrary",
    "UserLevelLibrary",
    "UserLevelPort",
    "library_for",
]


def library_for(architecture: str) -> type[BclLibrary]:
    """The BCL-API library class that drives a cluster of ``architecture``.

    ``kernel_level`` has no BCL-API library: its stack is reached
    through sockets (see ``measure_kernel_level_latency``).
    """
    if architecture == "user_level":
        return UserLevelLibrary
    if architecture == "semi_user":
        return BclLibrary
    raise ValueError(
        f"architecture {architecture!r} has no BCL-API library; measure "
        "the kernel-level stack with measure_kernel_level_latency")
