"""Unit tests for config, addressing, stats, time helpers, descriptors."""

from __future__ import annotations

import pytest

from repro.bcl.address import BclAddress
from repro.config import DAWNING_3000, CostModel, dawning_3000
from repro.firmware.descriptors import BclEvent, EventKind, SendRequest
from repro.firmware.packet import ChannelKind
from repro.instrument.measure import LatencySample
from repro.instrument.stats import bandwidth_mb_s
from repro.sim.time import (
    bytes_per_second_to_ns_per_byte,
    ns_to_us,
    transfer_time_ns,
    us,
)


# ------------------------------------------------------------------- config
def test_default_calibration_validates():
    dawning_3000().validate()


def test_calibration_send_overhead_decomposition():
    """The documented identity: the send-path stages sum to 7.04 us."""
    cfg = DAWNING_3000
    total = (cfg.compose_us + cfg.trap_enter_us + cfg.security_check_us
             + cfg.pindown_lookup_us + cfg.trap_exit_us
             + cfg.pio_write_us(cfg.descriptor_base_words))
    assert total == pytest.approx(7.04)
    assert cfg.pio_write_us(cfg.descriptor_base_words) > total / 2


def test_calibration_recv_overhead_decomposition():
    cfg = DAWNING_3000
    assert cfg.recv_poll_us + cfg.event_check_us == pytest.approx(1.01)


def test_calibration_reliability_share():
    cfg = DAWNING_3000
    assert cfg.mcp_send_proc_us + cfg.mcp_recv_proc_us == pytest.approx(5.65)


def test_calibration_intranode_decomposition():
    cfg = DAWNING_3000
    total = (cfg.compose_us + cfg.shm_post_us + cfg.recv_poll_us
             + cfg.shm_check_us)
    assert total == pytest.approx(2.70)


def test_replace_produces_new_frozen_instance():
    cfg = DAWNING_3000.replace(cpu_mhz=750.0)
    assert cfg.cpu_mhz == 750.0
    assert DAWNING_3000.cpu_mhz == 375.0
    with pytest.raises(Exception):
        cfg.cpu_mhz = 100.0     # frozen dataclass


def test_scaled_host_us_halves_at_double_clock():
    cfg = DAWNING_3000.replace(cpu_mhz=750.0)
    assert cfg.scaled_host_us(2.0) == pytest.approx(1.0)


def test_descriptor_words_grow_with_pages():
    cfg = DAWNING_3000
    assert cfg.descriptor_words(1) == cfg.descriptor_base_words
    assert cfg.descriptor_words(3) == cfg.descriptor_base_words + 4
    assert cfg.descriptor_words(0) == cfg.descriptor_base_words


def test_validate_rejects_negative_costs():
    with pytest.raises(ValueError):
        CostModel(trap_enter_us=-1.0).validate()


def test_validate_rejects_bad_mtu_and_page_size():
    with pytest.raises(ValueError):
        CostModel(mtu=4).validate()
    with pytest.raises(ValueError):
        CostModel(page_size=3000).validate()


# ------------------------------------------------------------------ address
def test_address_identity_and_channel_switch():
    address = BclAddress(3, 7)
    assert address.process_id == (3, 7)
    open_ch = address.with_channel(ChannelKind.OPEN, 2)
    assert open_ch.channel_kind is ChannelKind.OPEN
    assert open_ch.channel_index == 2
    assert open_ch.process_id == (3, 7)


def test_address_rejects_negative_fields():
    with pytest.raises(ValueError):
        BclAddress(-1, 0)
    with pytest.raises(ValueError):
        BclAddress(0, -2)
    with pytest.raises(ValueError):
        BclAddress(0, 0, ChannelKind.NORMAL, -1)


def test_address_ordering_and_hashing():
    a, b = BclAddress(0, 1), BclAddress(0, 2)
    assert a < b
    assert len({a, b, BclAddress(0, 1)}) == 2


# ------------------------------------------------------------------- stats
def test_latency_sample_mean():
    assert LatencySample(0, [1.0, 2.0, 3.0, 4.0]).latency_us == 2.5


def test_latency_sample_empty_rejected():
    with pytest.raises(ValueError):
        LatencySample(0).latency_us


def test_bandwidth_units_match_paper_convention():
    # 131072 bytes in 898 us -> 146 MB/s (the paper's own arithmetic)
    assert bandwidth_mb_s(131072, 898.0) == pytest.approx(145.96, rel=1e-3)
    with pytest.raises(ValueError):
        bandwidth_mb_s(10, 0.0)


# -------------------------------------------------------------------- time
def test_time_conversions():
    assert us(1.5) == 1500
    assert ns_to_us(2500) == 2.5
    assert transfer_time_ns(160, 160.0) == 1000   # 160 B at 160 MB/s = 1 us
    assert bytes_per_second_to_ns_per_byte(160.0) == pytest.approx(6.25)
    with pytest.raises(ValueError):
        transfer_time_ns(-1, 100.0)
    with pytest.raises(ValueError):
        transfer_time_ns(10, 0.0)


# ------------------------------------------------------------- descriptors
def test_send_request_validates_segment_totals():
    with pytest.raises(ValueError):
        SendRequest(message_id=1, src_node=0, src_pid=1, src_port=1,
                    dst_node=1, dst_port=2,
                    channel_kind=ChannelKind.NORMAL, channel_index=0,
                    total_length=100, segments=[(0, 50)])
    with pytest.raises(ValueError):
        SendRequest(message_id=1, src_node=0, src_pid=1, src_port=1,
                    dst_node=1, dst_port=2,
                    channel_kind=ChannelKind.NORMAL, channel_index=0,
                    total_length=-5)


def test_send_request_virtual_mode_allows_empty_segments():
    request = SendRequest(message_id=1, src_node=0, src_pid=1, src_port=1,
                          dst_node=1, dst_port=2,
                          channel_kind=ChannelKind.NORMAL, channel_index=0,
                          total_length=100, segments=[], src_vaddr=0x1000)
    assert request.src_vaddr == 0x1000


def test_event_record_defaults():
    event = BclEvent(kind=EventKind.RECV_DONE, message_id=5, length=64)
    assert event.status == "ok"
    assert event.pool_buffer_index == -1
    assert event.src_node == -1
