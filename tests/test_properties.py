"""Property-based tests (hypothesis) on codecs, crypto and core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import aes128_encrypt_block
from repro.crypto.ccm import MIC_LEN, ccm_decrypt, ccm_encrypt
from repro.host.att.pdus import (
    ReadReq,
    ReadRsp,
    WriteCmd,
    WriteReq,
    decode_att_pdu,
)
from repro.host.gap import AdElement, build_adv_data, parse_adv_data
from repro.host.l2cap import l2cap_decode, l2cap_encode
from repro.ll.access_address import is_valid_access_address
from repro.ll.csa1 import Csa1
from repro.ll.csa2 import Csa2
from repro.errors import CodecError
from repro.ll.pdu.address import BdAddress
from repro.ll.pdu.advertising import decode_advertising_pdu
from repro.ll.pdu.control import (
    ChannelMapInd,
    ConnectionUpdateInd,
    TerminateInd,
    decode_control_pdu,
)
from repro.ll.pdu.data import LLID, DataPdu
from repro.ll.timing import window_widening_us
from repro.phy.crc import crc24, reverse_crc24_init
from repro.phy.whitening import whiten

# ---------------------------------------------------------------------------
# PHY invariants
# ---------------------------------------------------------------------------


class TestPhyProperties:
    @given(data=st.binary(max_size=80), channel=st.integers(0, 39))
    def test_whitening_involution(self, data, channel):
        assert whiten(whiten(data, channel), channel) == data

    @given(data=st.binary(max_size=60), init=st.integers(0, (1 << 24) - 1))
    def test_crc_reverse_recovers_init(self, data, init):
        assert reverse_crc24_init(data, crc24(data, init)) == init

    @given(data=st.binary(min_size=1, max_size=60),
           init=st.integers(0, (1 << 24) - 1),
           bit=st.integers(0, 7), pos=st.integers(0, 59))
    def test_crc_detects_single_bit_flips(self, data, init, bit, pos):
        if pos >= len(data):
            pos = pos % len(data)
        mutated = bytearray(data)
        mutated[pos] ^= 1 << bit
        assert crc24(bytes(mutated), init) != crc24(data, init)

    @given(master=st.floats(0, 500), slave=st.floats(0, 500),
           interval=st.floats(0, 4_000_000))
    def test_widening_at_least_32us(self, master, slave, interval):
        assert window_widening_us(master, slave, interval) >= 32.0

    @given(master=st.floats(0, 500), slave=st.floats(0, 500),
           a=st.floats(0, 1_000_000), b=st.floats(0, 1_000_000))
    def test_widening_monotone_in_interval(self, master, slave, a, b):
        low, high = sorted((a, b))
        assert window_widening_us(master, slave, low) <= \
            window_widening_us(master, slave, high)


# ---------------------------------------------------------------------------
# Channel selection invariants
# ---------------------------------------------------------------------------


class TestCsaProperties:
    @given(hop=st.integers(5, 16),
           channel_map=st.integers(1, (1 << 37) - 1),
           steps=st.integers(1, 100))
    def test_csa1_only_uses_mapped_channels(self, hop, channel_map, steps):
        csa = Csa1(hop, channel_map)
        for _ in range(steps):
            channel = csa.next_channel()
            assert (channel_map >> channel) & 1

    @given(aa=st.integers(0, (1 << 32) - 1),
           channel_map=st.integers(1, (1 << 37) - 1),
           event=st.integers(0, 65535))
    def test_csa2_only_uses_mapped_channels(self, aa, channel_map, event):
        csa = Csa2(aa, channel_map)
        channel = csa.channel_for_event(event)
        assert (channel_map >> channel) & 1

    @given(hop=st.integers(5, 16), start=st.integers(0, 36))
    def test_csa1_clone_equivalence(self, hop, start):
        a = Csa1(hop, (1 << 37) - 1, last_unmapped=start)
        b = a.clone()
        assert [a.next_channel() for _ in range(40)] == \
            [b.next_channel() for _ in range(40)]


# ---------------------------------------------------------------------------
# Codec round trips
# ---------------------------------------------------------------------------


class TestCodecProperties:
    @given(llid=st.sampled_from([LLID.DATA_CONTINUATION, LLID.DATA_START,
                                 LLID.CONTROL]),
           payload=st.binary(max_size=100),
           sn=st.integers(0, 1), nesn=st.integers(0, 1),
           md=st.integers(0, 1))
    def test_data_pdu_round_trip(self, llid, payload, sn, nesn, md):
        pdu = DataPdu.make(llid, payload, sn=sn, nesn=nesn, md=md)
        assert DataPdu.from_bytes(pdu.to_bytes()) == pdu

    @given(win_size=st.integers(0, 255), win_offset=st.integers(0, 65535),
           interval=st.integers(0, 65535), latency=st.integers(0, 65535),
           timeout=st.integers(0, 65535), instant=st.integers(0, 65535))
    def test_connection_update_round_trip(self, win_size, win_offset,
                                          interval, latency, timeout,
                                          instant):
        pdu = ConnectionUpdateInd(win_size, win_offset, interval, latency,
                                  timeout, instant)
        assert decode_control_pdu(pdu.to_payload()) == pdu

    @given(channel_map=st.integers(0, (1 << 37) - 1),
           instant=st.integers(0, 65535))
    def test_channel_map_round_trip(self, channel_map, instant):
        pdu = ChannelMapInd(channel_map, instant)
        assert decode_control_pdu(pdu.to_payload()) == pdu

    @given(code=st.integers(0, 255))
    def test_terminate_round_trip(self, code):
        assert decode_control_pdu(TerminateInd(code).to_payload()) == \
            TerminateInd(code)

    @given(data=st.one_of(
        st.binary(max_size=48),
        # A length byte that matches the body, so decoding reaches the
        # per-type body parsers instead of stopping at the header.
        st.tuples(st.integers(0, 255), st.binary(max_size=40)).map(
            lambda t: bytes((t[0], len(t[1]))) + t[1])))
    def test_advertising_decode_raises_only_codec_error(self, data):
        # Advertising PDUs come off the air from anyone in range; the LL
        # receive paths catch only CodecError, so nothing else may escape.
        try:
            decode_advertising_pdu(data)
        except CodecError:
            pass

    @given(value=st.integers(0, (1 << 48) - 1), random=st.booleans())
    def test_bd_address_round_trip(self, value, random):
        addr = BdAddress(value, random)
        assert BdAddress.from_bytes(addr.to_bytes(), random) == addr
        assert BdAddress.from_str(str(addr), random).value == value

    @given(handle=st.integers(0, 65535), value=st.binary(max_size=50))
    def test_att_write_round_trip(self, handle, value):
        assert decode_att_pdu(WriteReq(handle, value).to_bytes()) == \
            WriteReq(handle, value)
        assert decode_att_pdu(WriteCmd(handle, value).to_bytes()) == \
            WriteCmd(handle, value)

    @given(handle=st.integers(0, 65535))
    def test_att_read_round_trip(self, handle):
        assert decode_att_pdu(ReadReq(handle).to_bytes()) == ReadReq(handle)

    @given(value=st.binary(max_size=60))
    def test_att_read_rsp_round_trip(self, value):
        assert decode_att_pdu(ReadRsp(value).to_bytes()) == ReadRsp(value)

    @given(cid=st.integers(0, 65535), payload=st.binary(max_size=100))
    def test_l2cap_round_trip(self, cid, payload):
        assert l2cap_decode(l2cap_encode(cid, payload)) == (cid, payload)

    @given(elements=st.lists(
        st.tuples(st.integers(1, 255), st.binary(max_size=8)),
        max_size=3))
    def test_adv_data_round_trip(self, elements):
        ads = [AdElement(t, d) for t, d in elements]
        total = sum(len(d) + 2 for _, d in elements)
        if total > 31:
            return
        parsed = parse_adv_data(build_adv_data(*ads))
        assert [(e.ad_type, e.data) for e in parsed] == elements


# ---------------------------------------------------------------------------
# Crypto invariants
# ---------------------------------------------------------------------------


class TestCryptoProperties:
    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=30)
    def test_aes_is_a_permutation_per_key(self, key, block):
        # Injectivity spot check: flipping one input bit changes output.
        out = aes128_encrypt_block(key, block)
        mutated = bytes([block[0] ^ 1]) + block[1:]
        assert aes128_encrypt_block(key, mutated) != out

    @given(key=st.binary(min_size=16, max_size=16),
           nonce=st.binary(min_size=13, max_size=13),
           plaintext=st.binary(max_size=60),
           aad=st.binary(max_size=4))
    @settings(max_examples=30)
    def test_ccm_round_trip(self, key, nonce, plaintext, aad):
        ct = ccm_encrypt(key, nonce, plaintext, aad)
        assert len(ct) == len(plaintext) + MIC_LEN
        assert ccm_decrypt(key, nonce, ct, aad) == plaintext


# ---------------------------------------------------------------------------
# ARQ state machine invariant
# ---------------------------------------------------------------------------


class TestArqProperties:
    @given(ops=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                        max_size=40))
    def test_counters_stay_binary(self, ops):
        from repro.ll.connection import ConnectionState, Role
        from tests.test_ll_connection import make_params

        state = ConnectionState(make_params(), Role.SLAVE)
        for sn, nesn in ops:
            state.on_received_bits(sn, nesn)
            assert state.transmit_seq_num in (0, 1)
            assert state.next_expected_seq_num in (0, 1)

    @given(ops=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                        max_size=40))
    def test_new_data_iff_sn_matches(self, ops):
        from repro.ll.connection import ConnectionState, Role
        from tests.test_ll_connection import make_params

        state = ConnectionState(make_params(), Role.SLAVE)
        for sn, nesn in ops:
            expected_new = sn == state.next_expected_seq_num
            is_new, _ = state.on_received_bits(sn, nesn)
            assert is_new == expected_new


# ---------------------------------------------------------------------------
# Forged-bit invariant (paper eq. 6)
# ---------------------------------------------------------------------------


class TestForgedBitsProperty:
    @given(sn_s=st.integers(0, 1), nesn_s=st.integers(0, 1))
    def test_forged_frame_always_reads_as_new_data(self, sn_s, nesn_s):
        """Whatever the Slave's last bits were, the attacker's forged frame
        must be accepted as new data and acknowledge the Slave's last."""
        from repro.core.state import SniffedConnection
        from repro.ll.connection import ConnectionState, Role
        from tests.test_ll_connection import make_params

        conn = SniffedConnection(make_params())
        conn.slave_bits.sn = sn_s
        conn.slave_bits.nesn = nesn_s
        conn.slave_bits.seen = True
        sn_a, nesn_a = conn.forged_bits()

        # Model the Slave's Link Layer at the matching state.
        slave = ConnectionState(make_params(), Role.SLAVE)
        slave.next_expected_seq_num = nesn_s  # NESN_s is what it expects
        slave.transmit_seq_num = sn_s         # SN_s was its last frame
        slave.note_sent(DataPdu.empty())
        is_new, acked = slave.on_received_bits(sn_a, nesn_a)
        assert is_new   # the Slave accepts the injected data
        assert acked    # and sees its own last frame acknowledged
