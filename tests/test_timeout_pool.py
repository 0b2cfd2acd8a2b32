"""The hot-path timer after the Timeout pool's removal.

The hardware and firmware models used to sleep through a pooled
``env.sleep()``; that pool is gone and every delay is an
``env.timeout()``.  The negative-delay check the pooled path carried
still holds for the one timer, mid-run as well as on a fresh engine.
"""

from __future__ import annotations

import pytest

from repro.sim import Environment, SimulationError


def _sleep_loop(rounds=200):
    env = Environment()

    def proc():
        for _ in range(rounds):
            yield env.timeout(3)

    env.process(proc())
    env.run()
    return env


def test_sleep_rejects_negative_delay():
    env = _sleep_loop(rounds=1)
    assert env.now == 3               # a timer has fired and been consumed
    pending = env.timeout(5)
    with pytest.raises(SimulationError):
        env.timeout(-1)
    # the rejected call queued nothing: only the pending timer is due
    assert env.peek() == 8
    env.run()
    assert env.now == 8 and pending.processed
    with pytest.raises(SimulationError):
        Environment().timeout(-1)
