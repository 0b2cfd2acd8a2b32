"""The message path's rewritten arithmetic gives the old numbers.

Per-operation code no longer converts microsecond constants on every
call: fixed delays come from ``CostModel.ns``, host CPU charges from
``CostModel.host_scale``, and wire and DMA times from per-byte factors
computed once.  ``AddressSpace.segments`` walks the page table once
instead of checking the range and then translating page by page.  Each
result must equal, to the nanosecond and the byte, what the per-call
conversions and the two-pass walk gave; the formulas they replaced are
written out here as the reference.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.config import DAWNING_3000, dnet_mesh
from repro.hw.cpu import Cpu
from repro.hw.memory import FrameAllocator, PhysicalMemory
from repro.hw.pci import DMA_BURST_BYTES, PciBus
from repro.kernel.errors import VmFault
from repro.kernel.vm import AddressSpace
from repro.sim import Environment
from repro.sim.time import transfer_time_ns, us

CONFIGS = {
    "dawning": DAWNING_3000,
    # the CPU-frequency ablation (375, 750, 1500 MHz) and two clocks
    # whose scale is not a power of two; host costs scale by 375/mhz
    "cpu_433mhz": DAWNING_3000.replace(cpu_mhz=433.0),
    "cpu_750mhz": DAWNING_3000.replace(cpu_mhz=750.0),
    "cpu_300mhz": DAWNING_3000.replace(cpu_mhz=300.0),
    "cpu_1500mhz": DAWNING_3000.replace(cpu_mhz=1500.0),
    # another DMA and wire rate
    "dnet": dnet_mesh(),
}


def _costs(seed: int, cfg, n: int = 400) -> list[float]:
    """Host costs (us): random ones, products like a PIO fill, and
    costs whose scaled value lands on a half nanosecond, where a
    different float order (folding the scale into 1000, or scaling
    after the conversion) rounds the other way."""
    rng = random.Random(seed)
    costs = [rng.uniform(0.0, 50.0) for _ in range(n)]
    costs += [words * 0.24 for words in range(64)]
    costs += [0.0, 0.45, 0.87, 0.9, 1.15, 2.05, 7.04]
    costs += [(ns + 0.5) / 1000 / cfg.host_scale
              for ns in range(0, 50 * n, 7)]
    return costs


def _sizes(seed: int, n: int = 400) -> list[int]:
    rng = random.Random(seed)
    sizes = [rng.randrange(0, 300_000) for _ in range(n)]
    return sizes + [0, 1, 8, 16, 4095, 4096, 4097, 4104, 8192, 131072]


@pytest.fixture(params=sorted(CONFIGS))
def cfg(request):
    return CONFIGS[request.param]


# -------------------------------------------------------- cost constants
def test_ns_equals_us_of_every_field(cfg):
    us_fields = [f.name for f in dataclasses.fields(cfg)
                 if f.name.endswith("_us")]
    assert us_fields
    for name in us_fields:
        assert getattr(cfg.ns, name[:-3]) == us(getattr(cfg, name)), name


def test_host_scale_rounds_like_scaled_host_us(cfg):
    assert cfg.host_scale == cfg.cpu_ref_mhz / cfg.cpu_mhz
    for cost in _costs(1, cfg):
        old = us(cost * (cfg.cpu_ref_mhz / cfg.cpu_mhz))
        assert us(cfg.scaled_host_us(cost)) == old
        assert round(cost * cfg.host_scale * 1000) == old


def test_per_byte_factors_round_like_transfer_time(cfg):
    for n in _sizes(2):
        assert round(n * cfg.dma_ns_per_byte) == \
            transfer_time_ns(n, cfg.dma_mb_s)
        assert round(n * cfg.wire_ns_per_byte) == \
            transfer_time_ns(n, cfg.wire_mb_s)


def test_derived_values_follow_replace():
    faster = DAWNING_3000.replace(cpu_mhz=750.0, dma_mb_s=200.0,
                                  wire_inject_us=2.5)
    assert DAWNING_3000.host_scale == 1.0
    assert faster.host_scale == 0.5
    assert faster.dma_ns_per_byte == 5.0
    assert faster.ns.wire_inject == 2500
    assert DAWNING_3000.ns.wire_inject == us(DAWNING_3000.wire_inject_us)


# -------------------------------------------------- the charging sites
def _run(env, gen):
    env.process(gen)
    env.run()


def test_cpu_execute_charges_the_old_duration(cfg):
    env = Environment()
    cpu = Cpu(env, cfg, "cpu")
    expected = 0
    for cost in _costs(3, cfg, 40):
        _run(env, cpu.execute(cost))
        expected += us(cost * (cfg.cpu_ref_mhz / cfg.cpu_mhz))
        _run(env, cpu.execute(cost, scale=False))
        expected += us(cost)
        assert cpu.busy_ns == expected
    assert env.now == expected


def test_pio_charges_the_old_duration(cfg):
    env = Environment()
    cpu = Cpu(env, cfg, "cpu")
    pci = PciBus(env, cfg, "pci")
    expected = 0
    for words in range(40):
        _run(env, pci.pio_write(cpu, words))
        _run(env, pci.pio_read(cpu, words))
        expected += us(words * cfg.pio_write_word_us)
        expected += us(words * cfg.pio_read_word_us)
        assert env.now == expected


def test_dma_charges_the_old_duration(cfg):
    env = Environment()
    pci = PciBus(env, cfg, "pci")
    expected = 0
    for n in _sizes(4, 60):
        for setup in (True, False):
            _run(env, pci.dma(n, setup=setup))
            if setup:
                expected += us(cfg.dma_setup_us)
            remaining = n
            while remaining > 0:
                burst = min(remaining, DMA_BURST_BYTES)
                expected += transfer_time_ns(burst, cfg.dma_mb_s)
                remaining -= burst
            assert env.now == expected


# --------------------------------------------------- one page-table walk
def _reference_segments(space, vaddr, nbytes):
    """``AddressSpace.segments`` as it was: a range check, then one
    ``translate`` per page."""
    if nbytes == 0:
        return []
    if not space.is_mapped(vaddr, nbytes):
        raise VmFault(
            f"pid {space.pid}: range [{vaddr:#x}, +{nbytes}) not mapped")
    segs = []
    remaining = nbytes
    cursor = vaddr
    while remaining > 0:
        paddr = space.translate(cursor)
        length = min(space.page_size - cursor % space.page_size, remaining)
        if segs and segs[-1][0] + segs[-1][1] == paddr:
            segs[-1] = (segs[-1][0], segs[-1][1] + length)
        else:
            segs.append((paddr, length))
        cursor += length
        remaining -= length
    return segs


def _outcome(fn, *args):
    try:
        return fn(*args)
    except VmFault as exc:
        return ("VmFault", str(exc))


def _fragmented_space():
    """Regions whose frames coalesce, partly coalesce and do not."""
    space = AddressSpace(
        FrameAllocator(PhysicalMemory(1 << 20, page_size=4096)), pid=3)
    a = space.alloc(2 * 4096)          # frames 0-1
    b = space.alloc(3 * 4096)          # frames 2-4
    space.free(a)
    c = space.alloc(4 * 4096)          # frames 0, 1, 5, 6
    d = space.alloc(4096 + 10)         # frames 7-8
    return space, (b, c, d)


def test_segments_match_the_two_pass_walk():
    space, regions = _fragmented_space()
    page = space.page_size
    probes = [(-1, 10), (-page, 2 * page), (0, 1), (regions[0], -5)]
    for base in regions:
        # Starts before, inside and after the region (an unmapped first
        # page); lengths ending inside it, on its last page and past it
        # into the guard page (an unmapped last page); and ranges that
        # cross a guard page into the next region (an unmapped middle).
        for start in (base - page, base - 1, base, base + 1,
                      base + page - 1, base + page, base + 2 * page + 7):
            for nbytes in (0, 1, 100, page - 1, page, page + 1,
                           2 * page, 3 * page - 5, 4 * page, 6 * page,
                           9 * page):
                probes.append((start, nbytes))
    coalesced = faulted = 0
    for vaddr, nbytes in probes:
        want = _outcome(_reference_segments, space, vaddr, nbytes)
        got = _outcome(space.segments, vaddr, nbytes)
        assert got == want, (vaddr, nbytes)
        if isinstance(want, tuple):
            faulted += 1
        elif any(length > page for _, length in want):
            coalesced += 1
    assert faulted and coalesced
