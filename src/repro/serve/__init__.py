"""repro.serve — an RPC serving tier over the BCL/EADI user-level path.

Million-user request/response traffic on the paper's kernel-bypass
architecture: connection multiplexing (many simulated clients per rank
over one EADI endpoint), credit-based admission control and
backpressure, per-node worker pools with bounded queues, and a
load-balancing front switch.  See :func:`repro.serve.tier.run_serve`.
"""

from repro.serve.admission import AdmissionWindow
from repro.serve.config import ARRIVALS, POLICIES, SERVICE_DISTS, ServeConfig
from repro.serve.pool import STOP, RequestQueue, WorkerPool
from repro.serve.rpc import (HEADER_BYTES, K_REQUEST, K_STOP, R_OK, R_SHED,
                             RequestHeader, pack_header, unpack_header)
from repro.serve.switch import FrontSwitch
from repro.serve.tier import ServeReport, run_serve

__all__ = [
    "ARRIVALS", "POLICIES", "SERVICE_DISTS",
    "AdmissionWindow", "FrontSwitch", "RequestQueue", "STOP", "WorkerPool",
    "ServeConfig", "ServeReport", "run_serve",
    "HEADER_BYTES", "K_REQUEST", "K_STOP", "R_OK", "R_SHED",
    "RequestHeader", "pack_header", "unpack_header",
]
