#!/usr/bin/env python
"""Internet service: a request/response tier over the user-level path.

Three client nodes multiplex many simulated users onto one service
node running a pool of workers, through the RPC serving tier
(``repro.serve``): credit-based admission on the clients, a bounded
request queue on the server, and explicit shedding once both are full.
This is the paper's superserver "service node" scenario: every request
and reply crosses the semi-user-level BCL path without an interrupt.

The run is checked for conservation: every offered request is either
served or shed, at each load.

Usage::

    python examples/request_service.py
"""

from repro.serve import ServeConfig, run_serve


def main() -> None:
    scfg = ServeConfig(n_servers=1, n_client_ranks=3, requests=120,
                       service_us=100.0)
    print(f"3 client nodes -> 1 service node ({scfg.workers} workers, "
          f"capacity {scfg.capacity_rps:,.0f} rps), {scfg.requests} "
          "requests per load...")
    print(f"  {'load':>5s} {'offered':>8s} {'ok':>5s} {'shed':>5s} "
          f"{'p50 us':>8s} {'p99 us':>8s}")
    for rho in (0.5, 2.0):
        report = run_serve(scfg, rho)
        shed = report.shed_server + report.shed_client
        print(f"  {rho:5.1f} {report.requests:8d} "
              f"{report.completed_ok:5d} {shed:5d} "
              f"{report.p50_us:8.1f} {report.p99_us:8.1f}")
        if report.requests != report.completed_ok + shed:
            raise SystemExit(f"load {rho}: {report.requests} offered but "
                             f"{report.completed_ok} served + {shed} shed")


if __name__ == "__main__":
    main()
