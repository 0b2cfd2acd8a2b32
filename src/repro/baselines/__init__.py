"""Comparison architectures.

* :mod:`repro.baselines.user_level` — a GM/VIA-class fully user-level
  protocol: the library writes descriptors and doorbells straight into
  NIC memory (no traps), and the NIC translates addresses through its
  on-card TLB.
* :mod:`repro.baselines.kernel_level` — a TCP/UDP-class kernel
  networking stack: traps on both sides, data copies through kernel
  socket buffers, software checksum, and an interrupt per arriving
  segment.  :class:`KernelLevelLibrary` puts its sockets behind the
  BCL port calls.
* :mod:`repro.baselines.models` — presets assembling Table 2's
  comparison protocols (GM, AM-II, BIP) from the simulated stacks.

All of them run on the same simulated hardware as BCL, so the
differences measured are purely architectural — the paper's setting.
:func:`library_for` maps each architecture to the library whose ports
the one-way harness and Table 1 drive, the same calls for all three.
"""

from repro.baselines.kernel_level import (KernelLevelLibrary, KernelSocket,
                                          KernelSocketLibrary)
from repro.baselines.user_level import UserLevelLibrary, UserLevelPort
from repro.bcl.api import BclLibrary

__all__ = [
    "KernelLevelLibrary",
    "KernelSocket",
    "KernelSocketLibrary",
    "UserLevelLibrary",
    "UserLevelPort",
    "library_for",
]


def library_for(architecture: str) -> type:
    """The library class whose ports drive a cluster of ``architecture``:
    the BCL port calls, served by kernel sockets on ``kernel_level``."""
    return {"semi_user": BclLibrary, "user_level": UserLevelLibrary,
            "kernel_level": KernelLevelLibrary}[architecture]
