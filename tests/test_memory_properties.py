"""Property tests (hypothesis) for host physical memory and its frame
allocator.

:class:`PhysicalMemory` stores only the written prefix of each page,
yet every read must match a flat zero-filled ``bytearray`` byte for
byte, and each page must store exactly up to its highest written byte.
:class:`FrameAllocator` keeps no per-frame set, yet must still hand out
the lowest free frame, count free frames right and reject every bad
free with the same ``ValueError``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.hw.memory import FrameAllocator, OutOfMemoryError, PhysicalMemory

PAGE = 64
N_PAGES = 8
SIZE = PAGE * N_PAGES


class FlatMemory:
    """The reference: one zero-filled ``bytearray`` for all of memory,
    plus the highest written byte of every page."""

    def __init__(self):
        self.buf = bytearray(SIZE)
        self.high: dict[int, int] = {}   # page index -> end of its prefix

    def _check(self, paddr: int, length: int) -> None:
        if paddr < 0 or length < 0 or paddr + length > SIZE:
            raise ValueError("outside memory")

    def read(self, paddr: int, length: int) -> bytes:
        self._check(paddr, length)
        return bytes(self.buf[paddr:paddr + length])

    def write(self, paddr: int, data: bytes) -> None:
        self._check(paddr, len(data))
        self.buf[paddr:paddr + len(data)] = data
        for addr in range(paddr, paddr + len(data)):
            index = addr // PAGE
            self.high[index] = max(self.high.get(index, 0),
                                   addr % PAGE + 1)

    def read_gather(self, segments) -> bytes:
        return b"".join(self.read(p, n) for p, n in segments)

    def write_scatter(self, segments, data: bytes) -> None:
        offset = 0
        for paddr, length in segments:
            self.write(paddr, data[offset:offset + length])
            offset += length
        if offset != len(data):
            raise ValueError("length mismatch")


# Addresses and lengths run a little past the end of memory and below
# zero, so out-of-range accesses are drawn too.
addresses = st.integers(min_value=-2, max_value=SIZE + 2)
lengths = st.integers(min_value=0, max_value=3 * PAGE)
segments = st.lists(st.tuples(st.integers(min_value=0, max_value=SIZE),
                              st.integers(min_value=0, max_value=2 * PAGE)),
                    max_size=4)

operations = st.one_of(
    st.tuples(st.just("write"), addresses, st.binary(max_size=3 * PAGE)),
    st.tuples(st.just("read"), addresses, lengths),
    st.tuples(st.just("read_gather"), segments, st.just(0)),
    # ``slack`` is added to the data length: nonzero makes the scatter
    # list and the data disagree, which must raise after the same
    # partial writes on both sides.
    st.tuples(st.just("write_scatter"), segments,
              st.integers(min_value=-1, max_value=1)),
)


def _apply(memory, op: str, arg, extra, seed: int):
    if op == "write":
        return memory.write(arg, extra)
    if op == "read":
        return memory.read(arg, extra)
    if op == "read_gather":
        return memory.read_gather(arg)
    total = max(sum(length for _, length in arg) + extra, 0)
    data = bytes((seed + i) % 251 + 1 for i in range(total))
    return memory.write_scatter(arg, data)


@given(ops=st.lists(operations, max_size=40))
def test_physical_memory_matches_flat_reference(ops):
    memory, flat = PhysicalMemory(SIZE, PAGE), FlatMemory()
    for seed, (op, arg, extra) in enumerate(ops):
        outcomes = []
        for target in (memory, flat):
            try:
                outcomes.append(("ok", _apply(target, op, arg, extra, seed)))
            except ValueError:
                outcomes.append(("ValueError", None))
        assert outcomes[0] == outcomes[1], (op, arg, extra)
        assert memory.resident_bytes == sum(flat.high.values())
    assert memory.read(0, SIZE) == bytes(flat.buf)
    assert memory.read_gather([(p * PAGE, PAGE) for p in range(N_PAGES)]) \
        == bytes(flat.buf)


@given(first=st.integers(min_value=0, max_value=PAGE - 1),
       second=st.integers(min_value=0, max_value=PAGE - 1),
       data=st.data())
def test_write_below_the_stored_prefix_keeps_the_rest(first, second, data):
    low, high = sorted((first, second))
    memory = PhysicalMemory(SIZE, PAGE)
    memory.write(PAGE + high, b"\xff")
    payload = data.draw(st.binary(min_size=1, max_size=high - low + 1))
    memory.write(PAGE + low, payload)
    assert memory.resident_bytes == max(high + 1, low + len(payload))
    expected = bytearray(PAGE)
    expected[high] = 0xFF
    expected[low:low + len(payload)] = payload
    assert memory.read(PAGE, PAGE) == bytes(expected)
    # across the page boundary, into a page never written
    assert memory.read(PAGE + low, 2 * PAGE - low) \
        == bytes(expected[low:]) + bytes(PAGE)


def test_zero_length_accesses_store_nothing():
    memory = PhysicalMemory(SIZE, PAGE)
    memory.write(PAGE + 5, b"")
    memory.write_scatter([(0, 0), (3 * PAGE, 0)], b"")
    assert memory.read(SIZE, 0) == b""
    assert memory.resident_bytes == 0


# ---------------------------------------------------------- FrameAllocator
N_FRAMES = 6

frame_ops = st.lists(st.one_of(
    st.tuples(st.just("alloc"), st.just(0)),
    st.tuples(st.just("alloc_many"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("free"), st.integers(min_value=-2,
                                           max_value=N_FRAMES + 2)),
), max_size=40)


@given(ops=frame_ops)
def test_frame_allocator_matches_set_reference(ops):
    allocator = FrameAllocator(PhysicalMemory(PAGE * N_FRAMES, PAGE))
    allocated: set[int] = set()
    for op, arg in ops:
        free = sorted(set(range(N_FRAMES)) - allocated)
        if op == "alloc":
            if not free:
                with pytest.raises(OutOfMemoryError):
                    allocator.alloc()
                continue
            frame = allocator.alloc()
            assert frame == free[0]
            allocated.add(frame)
        elif op == "alloc_many":
            if arg > len(free):
                with pytest.raises(OutOfMemoryError):
                    allocator.alloc_many(arg)
                continue
            frames = allocator.alloc_many(arg)
            assert frames == free[:arg]
            allocated.update(frames)
        elif arg in allocated:
            allocator.free(arg)
            allocated.remove(arg)
        else:
            # A double free, a frame never handed out, or one out of
            # range: the same error in every case.
            with pytest.raises(ValueError,
                               match=f"^frame {arg} is not allocated$"):
                allocator.free(arg)
        assert allocator.free_frames == N_FRAMES - len(allocated)


def test_frame_paddr_rejects_out_of_range_frames():
    allocator = FrameAllocator(PhysicalMemory(PAGE * N_FRAMES, PAGE))
    assert allocator.frame_paddr(N_FRAMES - 1) == PAGE * (N_FRAMES - 1)
    for frame in (-1, N_FRAMES):
        with pytest.raises(ValueError, match=f"^frame {frame} out of range$"):
            allocator.frame_paddr(frame)
