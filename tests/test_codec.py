import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmetro import codec
from gmetro.codec import (
    CodingViolation,
    CrcMismatch,
    FecStatus,
    MgmtChannelConfig,
    MgmtFrame,
    MsgType,
    PayloadTooLong,
    StreamTooShort,
    SyncNotFound,
    apply_bit_errors,
    bits_from_int,
    bits_to_hex,
    expected_message_loss_interval,
    frame_pack,
    frame_unpack,
    hamming_decode,
    hamming_encode,
    hex_to_bits,
    int_from_bits,
    manchester_decode,
    manchester_encode,
    multi_error_blocks,
    simulate_message_loss_interval,
    spectral_occupancy,
)


# --------------------------------------------------------------------------
# Hamming(15,11): oracle = generator matrix built independently from H

def generator_matrix_oracle():
    """G = [I11 | P] derived from the published parity-check matrix."""
    h = codec.parity_check_matrix()  # 4 x 15
    p = h[:, :11].T  # data columns give the parity equations
    return np.hstack([np.eye(11, dtype=np.uint8), p])


def encode_via_generator(data_bits):
    g = generator_matrix_oracle()
    return (np.asarray(data_bits, dtype=np.uint8) @ g) % 2


def test_hamming_zero_codeword():
    assert np.array_equal(hamming_encode(np.zeros(11, dtype=np.uint8)), np.zeros(15, dtype=np.uint8))


def test_hamming_all_ones_matches_generator_oracle():
    data = np.ones(11, dtype=np.uint8)
    assert np.array_equal(hamming_encode(data), encode_via_generator(data))


@given(st.integers(min_value=0, max_value=2**11 - 1))
@settings(max_examples=200)
def test_hamming_encode_matches_generator_oracle(value):
    data = bits_from_int(value, 11)
    assert np.array_equal(hamming_encode(data), encode_via_generator(data))


def test_hamming_every_codeword_satisfies_parity_checks():
    h = codec.parity_check_matrix()
    rng = np.random.default_rng(7)
    for value in rng.integers(0, 2**11, 64):
        cw = hamming_encode(bits_from_int(int(value), 11))
        assert not (h @ cw % 2).any()


def test_hamming_exhaustive_single_error_correction():
    # all 2^11 datawords x 15 flip positions decode CORRECTED to the original
    for value in range(2**11):
        word = int(codec._ENCODE_TABLE[value])
        for k in range(15):
            data, status = codec._decode_int(word ^ (1 << k))
            assert status is FecStatus.CORRECTED
            assert data == value


def test_hamming_valid_word_decodes_ok():
    data = bits_from_int(0b10110011100, 11)
    out, status = hamming_decode(hamming_encode(data))
    assert status is FecStatus.OK
    assert np.array_equal(out, data)


def test_hamming_double_errors_always_miscorrect():
    # exhaustive over all C(15,2) flip pairs for 100 random datawords
    rng = np.random.default_rng(42)
    for value in rng.integers(0, 2**11, 100):
        word = int(codec._ENCODE_TABLE[value])
        for i in range(15):
            for j in range(i + 1, 15):
                data, status = codec._decode_int(word ^ (1 << i) ^ (1 << j))
                assert status is FecStatus.CORRECTED  # plain SEC: miscorrects
                assert data != value


# --------------------------------------------------------------------------
# framing

def test_frame_pack_minimal_hello_is_61_bits():
    # 16 sync + ceil(24/11) * 15 = 61
    bits = frame_pack(MgmtFrame(MsgType.HELLO, seq=0))
    assert len(bits) == 61
    assert codec.packed_frame_bits(0) == 61


def test_frame_pack_starts_with_sync():
    bits = frame_pack(MgmtFrame(MsgType.ACK, seq=3, payload=b"\x12"))
    assert int_from_bits(bits[:16]) == codec.SYNC_WORD


@given(
    st.sampled_from(list(MsgType)),
    st.integers(min_value=0, max_value=15),
    st.binary(min_size=0, max_size=16),
)
@settings(max_examples=1000, deadline=None)
def test_frame_roundtrip(msg_type, seq, payload):
    frame = MgmtFrame(msg_type, seq, payload)
    out, stats = frame_unpack(frame_pack(frame))
    assert out == frame
    assert stats.corrected == 0 and stats.uncorrectable == 0


def test_frame_payload_too_long():
    with pytest.raises(PayloadTooLong):
        frame_pack(MgmtFrame(MsgType.HELLO, 0, b"x" * 17))


def test_frame_unpack_corrects_one_flip_per_block():
    frame = MgmtFrame(MsgType.LOSS_REPORT, 5, b"\xfe\x0c")
    bits = frame_pack(frame)
    n_blocks = (len(bits) - 16) // 15
    for k in range(n_blocks):
        bits[16 + 15 * k + (7 * k) % 15] ^= 1  # one error in every block
    out, stats = frame_unpack(bits)
    assert out == frame
    assert stats.corrected == n_blocks


def test_frame_unpack_two_flips_in_one_block_fails():
    frame = MgmtFrame(MsgType.TUNE_REQ, 1, b"\x05")
    clean = frame_pack(frame)
    for i in range(15):
        for j in range(i + 1, 15):
            bits = clean.copy()
            bits[16 + i] ^= 1
            bits[16 + j] ^= 1
            with pytest.raises((codec.FecFailure, CrcMismatch)):
                frame_unpack(bits)


def test_frame_unpack_sync_not_found():
    with pytest.raises(SyncNotFound):
        frame_unpack(np.zeros(80, dtype=np.uint8))


def test_frame_unpack_scans_past_leading_noise():
    frame = MgmtFrame(MsgType.HELLO, 2)
    bits = np.concatenate([np.zeros(5, dtype=np.uint8), frame_pack(frame)])
    out, _ = frame_unpack(bits)
    assert out == frame


def test_hex_helpers_roundtrip():
    bits = frame_pack(MgmtFrame(MsgType.CHAN_ASSIGN, 9, b"\x07"))
    assert np.array_equal(hex_to_bits(bits_to_hex(bits)), bits)


# --------------------------------------------------------------------------
# Manchester

def test_manchester_conventions():
    assert manchester_encode([]).size == 0
    assert np.array_equal(manchester_encode([1]), [codec.LO, codec.HI])
    assert np.array_equal(manchester_encode([0]), [codec.HI, codec.LO])


def test_manchester_decode_example():
    assert np.array_equal(manchester_decode([codec.LO, codec.HI, codec.HI, codec.LO]), [1, 0])


def test_manchester_violation_position():
    with pytest.raises(CodingViolation) as err:
        manchester_decode([codec.HI, codec.HI])
    assert err.value.position == 0


def test_manchester_odd_length_violation_at_tail():
    with pytest.raises(CodingViolation) as err:
        manchester_decode([codec.LO, codec.HI, codec.LO])
    assert err.value.position == 2


def test_manchester_roundtrip_random_bits():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 10_000).astype(np.uint8)
    assert np.array_equal(manchester_decode(manchester_encode(bits)), bits)


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=256))
def test_manchester_roundtrip_property(bits):
    bits = np.array(bits, dtype=np.uint8)
    assert np.array_equal(manchester_decode(manchester_encode(bits)), bits)


def test_manchester_balance():
    rng = np.random.default_rng(11)
    symbols = manchester_encode(rng.integers(0, 2, 5000))
    assert (symbols == codec.LO).sum() == (symbols == codec.HI).sum()


# --------------------------------------------------------------------------
# bit errors

def test_apply_bit_errors_p_zero_identity():
    bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    assert np.array_equal(apply_bit_errors(bits, 0.0, np.random.default_rng(0)), bits)


def test_apply_bit_errors_p_one_flips_all():
    bits = np.array([1, 0, 1], dtype=np.uint8)
    assert np.array_equal(apply_bit_errors(bits, 1.0, np.random.default_rng(0)), 1 - bits)


def test_apply_bit_errors_binomial_statistics():
    n, p = 10**6, 0.01
    bits = np.zeros(n, dtype=np.uint8)
    flips = apply_bit_errors(bits, p, np.random.default_rng(123)).sum()
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(flips - n * p) < 5 * sigma


def test_apply_bit_errors_deterministic_per_seed():
    bits = np.random.default_rng(1).integers(0, 2, 4096).astype(np.uint8)
    a = apply_bit_errors(bits, 0.01, np.random.default_rng(99))
    b = apply_bit_errors(bits, 0.01, np.random.default_rng(99))
    assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# spectrum

def test_spectral_occupancy_random_manchester_in_band():
    rng = np.random.default_rng(5)
    symbols = manchester_encode(rng.integers(0, 2, 2**14))
    fraction, dc_db = spectral_occupancy(symbols, baud_rate=100_000.0)
    assert fraction >= 0.95
    assert dc_db <= -30.0


def test_spectral_occupancy_constant_stream_all_dc():
    fraction, dc_db = spectral_occupancy(np.ones(2**12, dtype=np.uint8), 100_000.0)
    assert fraction == 0.0
    assert dc_db == pytest.approx(0.0, abs=1e-9)


def test_spectral_occupancy_alternating_bits_tone_at_25khz():
    bits = np.tile([1, 0], 2**12)
    symbols = manchester_encode(bits)
    power = np.abs(np.fft.fft(2.0 * symbols - 1.0)) ** 2
    freqs = np.arange(len(symbols)) * (100_000.0 / len(symbols))
    peak = freqs[np.argmax(power)]
    assert peak == pytest.approx(25_000.0, abs=1.0)
    fraction, _ = spectral_occupancy(symbols, 100_000.0)
    assert fraction == pytest.approx(1.0, abs=1e-9)


def test_spectral_occupancy_rejects_short_stream():
    with pytest.raises(StreamTooShort):
        spectral_occupancy(np.ones(100, dtype=np.uint8), 100_000.0)


# --------------------------------------------------------------------------
# message-loss statistics

def test_expected_interval_at_reference_ber():
    # 15/(bit_rate * P_block) with P_block = 1-(1-p)^15-15p(1-p)^14
    interval = expected_message_loss_interval(5e-6)
    assert interval == pytest.approx(1.1429e5, rel=1e-3)
    assert interval / 3600 == pytest.approx(31.7, rel=1e-2)


def test_expected_interval_monotone_decreasing_in_p():
    ps = [1e-7, 1e-6, 1e-5, 1e-4]
    intervals = [expected_message_loss_interval(p) for p in ps]
    assert all(a > b for a, b in zip(intervals, intervals[1:]))
    assert expected_message_loss_interval(1e-9) > 1e12  # -> infinity as p -> 0


def test_expected_interval_input_validation():
    with pytest.raises(ValueError):
        expected_message_loss_interval(0.0)
    with pytest.raises(ValueError):
        expected_message_loss_interval(1e-6, blocks_per_msg=0)


@pytest.mark.parametrize("p,n_bits", [
    (1e-5, 2 * 10**12),
    (5e-6, 8 * 10**12),
    (1e-6, 2 * 10**14),
])
def test_monte_carlo_agrees_with_analytic(p, n_bits):
    rng = np.random.default_rng(20260809)
    mc = simulate_message_loss_interval(p, n_bits, rng)
    analytic = expected_message_loss_interval(p)
    assert abs(mc - analytic) / analytic < 0.10


def test_multi_error_blocks_matches_unique_count():
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 3, 40, 3000):
        for size in (15, 150, 45_000):
            pos = rng.integers(0, size, n, dtype=np.int64)
            _, per_block = np.unique(np.unique(pos) // codec.BLOCK_CODE_BITS,
                                     return_counts=True)
            assert multi_error_blocks(pos) == int((per_block >= 2).sum())


def test_config_invariants():
    cfg = MgmtChannelConfig()
    assert cfg.baud_rate == 2 * cfg.bit_rate
    assert cfg.rx_sensitivity_dbm == cfg.data_rx_sensitivity_dbm - 10.0
    with pytest.raises(ValueError):
        MgmtChannelConfig(bit_rate=50_000.0, baud_rate=50_000.0)
    with pytest.raises(ValueError):
        MgmtChannelConfig(spectral_band_low_hz=90e3, spectral_band_high_hz=10e3)
