import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmetro import codec
from gmetro.cli import main as cli_main
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
    hex_to_bits,
    int_from_bits,
    manchester_decode,
    manchester_encode,
    multi_error_blocks,
    simulate_message_loss_interval,
    spectral_occupancy,
)
from reference import HI, LO, PARITY_CHECK, hamming_decode, hamming_encode


# --------------------------------------------------------------------------
# Hamming(15,11): oracle = generator matrix built independently from H

def generator_matrix_oracle():
    """G = [I11 | P] derived from the published parity-check matrix."""
    p = PARITY_CHECK[:, :11].T  # data columns give the parity equations
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
    h = PARITY_CHECK
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


@pytest.mark.parametrize("msg_type", list(MsgType))
def test_packed_length_and_clean_roundtrip_of_every_type_and_payload_length(msg_type):
    # the engine delivers a frame on a clean channel as sent, drawing
    # packed_frame_bits(len(payload)) channel numbers as apply_bit_errors would
    for n in range(17):
        frame = MgmtFrame(msg_type, n % 16, bytes(range(n)))
        bits = frame_pack(frame)
        assert len(bits) == codec.packed_frame_bits(n)
        out, stats = frame_unpack(bits)
        assert out == frame and stats.corrected == 0


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


def test_frame_format_worked_examples():
    # the two examples published in docs/frame_format.md
    assert bits_to_hex(frame_pack(MgmtFrame(MsgType.HELLO, 0))) == "61:2b7e000000000000"
    assert bits_to_hex(frame_pack(MgmtFrame(MsgType.TUNE_REQ, 3, b"\x05"))) == \
        "61:2b7e130010591140"


@pytest.mark.parametrize("text,expected", [
    ("61:2b7e000000000000", "type=HELLO seq=0 payload=- blocks=3 corrected=0"),
    ("61:2b7e130010591140", "type=TUNE_REQ seq=3 payload=05 blocks=3 corrected=0"),
])
def test_cli_decodes_worked_examples(capsys, text, expected):
    assert cli_main(["codec", "decode", text]) == 0
    assert capsys.readouterr().out.strip() == expected


# --------------------------------------------------------------------------
# reference framing: the bit-vector implementation the wire format was first
# written in, kept here so the packed bits and every unpack outcome of the
# module can be compared against it

_REF_COLUMN_SYNDROMES = (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 1, 2, 4, 8)
_REF_GENERATOR = generator_matrix_oracle()


def _ref_bits(value, width):
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def _ref_int(bits):
    out = 0
    for b in np.asarray(bits, dtype=np.uint8):
        out = (out << 1) | int(b)
    return out


def _ref_crc8(data):
    crc = 0
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = ((crc << 1) ^ 0x07) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


def _ref_syndrome(word):
    s = 0
    for i in range(15):
        if word >> (14 - i) & 1:
            s ^= _REF_COLUMN_SYNDROMES[i]
    return s


def _ref_decode(word):
    s = _ref_syndrome(word)
    if s == 0:
        return word >> 4, FecStatus.OK
    word ^= 1 << (14 - _REF_COLUMN_SYNDROMES.index(s))
    return word >> 4, FecStatus.CORRECTED


def _ref_frame_pack(frame):
    header = bytes([(int(frame.msg_type) << 4) | frame.seq, len(frame.payload)]) + frame.payload
    body = np.concatenate([_ref_bits(b, 8) for b in header + bytes([_ref_crc8(header)])])
    body = np.concatenate([body, np.zeros((-len(body)) % 11, dtype=np.uint8)])
    blocks = [(body[i:i + 11] @ _REF_GENERATOR) % 2 for i in range(0, len(body), 11)]
    return np.concatenate([_ref_bits(codec.SYNC_WORD, 16)] + blocks).astype(np.uint8)


def _ref_frame_unpack(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    sync = _ref_bits(codec.SYNC_WORD, 16)
    for i in range(len(bits) - 15):
        if np.array_equal(bits[i:i + 16], sync):
            coded = bits[i + 16:]
            break
    else:
        raise SyncNotFound("no 16-bit SYNC pattern in stream")
    avail = len(coded) // 15

    def decode_block(i):
        return _ref_decode(_ref_int(coded[i * 15:(i + 1) * 15]))

    if avail < 2:
        raise CrcMismatch("frame truncated before length field")
    decoded = [decode_block(0), decode_block(1)]
    length = (((decoded[0][0] << 11) | decoded[1][0]) >> 6) & 0xFF
    n_blocks = -(-(24 + 8 * length) // 11)
    if length > 16 or n_blocks > avail:
        raise CrcMismatch(f"decoded length field {length} invalid")
    decoded += [decode_block(i) for i in range(2, n_blocks)]
    corrected = sum(1 for _, st_ in decoded if st_ is FecStatus.CORRECTED)
    stats = codec.FecStats(blocks=n_blocks, corrected=corrected, uncorrectable=0)
    body = 0
    for data, _ in decoded:
        body = (body << 11) | data
    body_bits = n_blocks * 11
    total = 24 + 8 * length

    def field(offset, width):
        return (body >> (body_bits - offset - width)) & ((1 << width) - 1)

    msg_type, seq = field(0, 4), field(4, 4)
    payload = bytes(field(16 + 8 * i, 8) for i in range(length))
    if _ref_crc8(bytes([(msg_type << 4) | seq, length]) + payload) != field(total - 8, 8):
        raise CrcMismatch(stats=stats)
    if msg_type > 9:
        raise CrcMismatch(f"decoded type {msg_type} invalid", stats=stats)
    return MgmtFrame(MsgType(msg_type), seq, payload), stats


def test_decode_int_matches_loop_syndrome_on_every_word():
    for word in range(1 << 15):
        assert codec._decode_int(word) == _ref_decode(word)


def test_crc8_table_matches_bitwise_loop():
    for byte in range(256):
        assert codec.crc8(bytes([byte])) == _ref_crc8(bytes([byte]))
    rng = np.random.default_rng(8)
    for _ in range(2000):
        data = rng.bytes(int(rng.integers(0, 20)))
        assert codec.crc8(data) == _ref_crc8(data)


def test_bit_vector_helpers_round_trip_every_width():
    rng = np.random.default_rng(64)
    for width in range(65):
        for value in (0, (1 << width) - 1, 1 << width, 3 << width | 5,
                      int(rng.integers(0, 2**63)) * (1 << 40) + int(rng.integers(0, 2**40))):
            bits = bits_from_int(value, width)
            assert bits.dtype == np.uint8
            assert np.array_equal(bits, _ref_bits(value, width))
            assert int_from_bits(bits) == value & ((1 << width) - 1) == _ref_int(bits)


def _outcome(unpack, bits):
    """A decoded (frame, stats), or the raised error's type, message and stats."""
    try:
        return unpack(bits)
    except codec.CodecError as err:
        return type(err), str(err), getattr(err, "stats", None)


frames = st.builds(MgmtFrame, st.sampled_from(list(MsgType)), st.integers(0, 15),
                   st.binary(min_size=0, max_size=16))


def test_frame_pack_matches_reference_for_every_type_seq_and_length():
    rng = np.random.default_rng(23)
    for msg_type in MsgType:
        for seq in range(16):
            for length in range(17):
                frame = MgmtFrame(msg_type, seq, rng.bytes(length))
                bits = frame_pack(frame)
                assert bits.dtype == np.uint8
                assert np.array_equal(bits, _ref_frame_pack(frame))


@given(frames)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_frame_pack_matches_reference(frame):
    assert np.array_equal(frame_pack(frame), _ref_frame_pack(frame))


@given(frames, st.sampled_from([1e-3, 0.02, 0.1, 0.5]), st.integers(0, 3),
       st.integers(0, 2**32 - 1), st.integers(0, 300))
@settings(max_examples=1500, deadline=None, derandomize=True)
def test_frame_unpack_outcome_matches_reference(frame, ber, noise, seed, cut):
    # the whole noisy stream, then the same stream truncated
    rng = np.random.default_rng(seed)
    bits = _ref_frame_pack(frame)
    bits = bits ^ (rng.random(len(bits)) < ber).astype(np.uint8)
    bits = np.concatenate([rng.integers(0, 2, noise).astype(np.uint8), bits])
    for stream in (bits, bits[:cut % len(bits)]):
        assert _outcome(frame_unpack, stream) == _outcome(_ref_frame_unpack, stream)


@given(st.integers(0, 2**32 - 1), st.integers(0, 250), st.integers(0, 2))
@settings(max_examples=500, deadline=None, derandomize=True)
def test_frame_unpack_outcome_matches_reference_on_random_streams(seed, n, syncs):
    # noise with 0, 1 or 2 SYNC words planted at random places
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n).astype(np.uint8)
    for _ in range(syncs if n >= 16 else 0):
        at = int(rng.integers(0, n - 15))
        bits[at:at + 16] = _ref_bits(codec.SYNC_WORD, 16)
    assert _outcome(frame_unpack, bits) == _outcome(_ref_frame_unpack, bits)


def test_frame_unpack_reads_the_frame_at_the_first_sync():
    first, second = MgmtFrame(MsgType.HELLO, 1), MgmtFrame(MsgType.ACK, 2, b"\x31")
    out, _ = frame_unpack(np.concatenate([frame_pack(first), frame_pack(second)]))
    assert out == first


def test_hex_helpers_roundtrip():
    bits = frame_pack(MgmtFrame(MsgType.CHAN_ASSIGN, 9, b"\x07"))
    assert np.array_equal(hex_to_bits(bits_to_hex(bits)), bits)


# --------------------------------------------------------------------------
# Manchester

def test_manchester_conventions():
    assert manchester_encode([]).size == 0
    assert np.array_equal(manchester_encode([1]), [LO, HI])
    assert np.array_equal(manchester_encode([0]), [HI, LO])


def test_manchester_decode_example():
    assert np.array_equal(manchester_decode([LO, HI, HI, LO]), [1, 0])


def test_manchester_violation_position():
    with pytest.raises(CodingViolation) as err:
        manchester_decode([HI, HI])
    assert err.value.position == 0


def test_manchester_odd_length_violation_at_tail():
    with pytest.raises(CodingViolation) as err:
        manchester_decode([LO, HI, LO])
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
    assert (symbols == LO).sum() == (symbols == HI).sum()


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
    # ~10 dB below the data channel's -30 dBm
    assert cfg.rx_sensitivity_dbm == -30.0 - 10.0
    with pytest.raises(ValueError):
        MgmtChannelConfig(bit_rate=0.0)
