"""Management-channel codec for the 50 kbit/s overhead channel.

Framing, Hamming(15,11) forward error correction, Manchester line coding,
bit-error injection and channel statistics.  The public functions take and
return plain 0/1 vectors (numpy uint8), so the whole chain is checkable
offline; framing and FEC work on Python ints inside.

Wire layout (bit-exact, see docs/frame_format.md):

    SYNC(16, 0x2B7E) || hamming(TYPE(4) SEQ(4) LEN(8) PAYLOAD(8*LEN) CRC8(8))

The body is zero-padded to a multiple of 11 bits and encoded block-wise.
The SYNC word is sent uncoded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

SYNC_WORD = 0x2B7E
SYNC_BITS = 16
MAX_PAYLOAD = 16
BLOCK_DATA_BITS = 11
BLOCK_CODE_BITS = 15
CRC8_POLY = 0x07
_SYNC_MASK = (1 << SYNC_BITS) - 1
_DATA_MASK = (1 << BLOCK_DATA_BITS) - 1
_CODE_MASK = (1 << BLOCK_CODE_BITS) - 1


# --------------------------------------------------------------------------
# errors

class CodecError(Exception):
    """Base class for codec failures."""


class PayloadTooLong(CodecError):
    pass


class SyncNotFound(CodecError):
    pass


class FecFailure(CodecError):
    def __init__(self, stats: "FecStats"):
        super().__init__(f"{stats.uncorrectable} uncorrectable block(s)")
        self.stats = stats


class CrcMismatch(CodecError):
    def __init__(self, detail: str = "CRC8 check failed", stats: "FecStats | None" = None):
        super().__init__(detail)
        self.stats = stats


class CodingViolation(CodecError):
    def __init__(self, position: int):
        super().__init__(f"Manchester coding violation at symbol {position}")
        self.position = position


class StreamTooShort(CodecError):
    pass


# --------------------------------------------------------------------------
# configuration and frame types

@dataclass(frozen=True)
class MgmtChannelConfig:
    """Overhead-channel parameters; the receiver sensitivity sits ~10 dB
    below the data channel's (-30 dBm)."""

    bit_rate: float = 50_000.0
    rx_sensitivity_dbm: float = -40.0

    def __post_init__(self):
        if self.bit_rate <= 0:
            raise ValueError("bit_rate must be positive")


class MsgType(IntEnum):
    HELLO = 0
    TUNE_REQ = 1
    SWEEP_DETECTED = 2
    LOCK_CONFIRM = 3
    POWER_ADJ = 4
    LOSS_REPORT = 5
    CHAN_ASSIGN = 6
    HOLD_CORRECT = 7
    ACK = 8
    NAK = 9


@dataclass(frozen=True)
class MgmtFrame:
    msg_type: MsgType
    seq: int = 0
    payload: bytes = b""

    def __post_init__(self):
        object.__setattr__(self, "msg_type", MsgType(self.msg_type))
        object.__setattr__(self, "payload", bytes(self.payload))
        if not 0 <= self.seq <= 15:
            raise ValueError(f"seq {self.seq} outside 0..15")
        if len(self.payload) > MAX_PAYLOAD:
            raise PayloadTooLong(f"payload of {len(self.payload)} bytes exceeds {MAX_PAYLOAD}")


_MAX_MSG_TYPE = max(MsgType)


class FecStatus(Enum):
    OK = "OK"
    CORRECTED = "CORRECTED"
    UNCORRECTABLE = "UNCORRECTABLE"


@dataclass(frozen=True)
class FecStats:
    blocks: int
    corrected: int
    uncorrectable: int


# --------------------------------------------------------------------------
# bit-vector helpers

def bits_from_int(value: int, width: int) -> np.ndarray:
    """MSB-first bit vector of the low `width` bits of `value`."""
    raw = (int(value) & ((1 << width) - 1)).to_bytes(-(-width // 8), "big")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[(-width) % 8:]


def int_from_bits(bits) -> int:
    bits = np.asarray(bits, dtype=np.uint8)
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-len(bits) % 8)


def bits_to_hex(bits) -> str:
    """`<bitlen>:<hex>` with the tail zero-padded to a nibble."""
    bits = np.asarray(bits, dtype=np.uint8)
    n = len(bits)
    padded = np.concatenate([bits, np.zeros((-n) % 4, dtype=np.uint8)])
    digits = "".join(f"{int_from_bits(padded[i:i + 4]):x}" for i in range(0, len(padded), 4))
    return f"{n}:{digits}"


def hex_to_bits(text: str) -> np.ndarray:
    """Inverse of :func:`bits_to_hex`; bare hex means bitlen = 4 * len(hex)."""
    if ":" in text:
        head, _, digits = text.partition(":")
        n = int(head)
    else:
        digits, n = text, 4 * len(text)
    if n > 4 * len(digits) or n < 4 * len(digits) - 3:
        raise ValueError("bit length does not match hex digits")
    bits = np.concatenate([bits_from_int(int(d, 16), 4) for d in digits]) if digits \
        else np.zeros(0, dtype=np.uint8)
    return bits[:n]


# --------------------------------------------------------------------------
# Hamming(15,11)
#
# Parity-check matrix H (4 x 15): column j carries the syndrome value that a
# single error in position j produces.  Data positions 0..10 use the eleven
# nonzero 4-bit values of weight >= 2, parity positions 11..14 the four
# weight-1 values.  Every nonzero syndrome maps to exactly one position, so
# the plain code corrects all single errors and miscorrects anything heavier
# (double errors are caught by the frame CRC).  Published in
# docs/frame_format.md; the code choice is configurable here in one place.

_DATA_SYNDROMES = (3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15)
_PARITY_SYNDROMES = (1, 2, 4, 8)
_COLUMN_SYNDROMES = _DATA_SYNDROMES + _PARITY_SYNDROMES
# the bit of a 15-bit word to flip for each syndrome, and per syndrome bit k
# the mask over the word (MSB = position 0) whose parity gives it
_FLIP_FOR_SYNDROME = {s: 1 << (BLOCK_CODE_BITS - 1 - i) for i, s in enumerate(_COLUMN_SYNDROMES)}
_S0, _S1, _S2, _S3 = (
    sum(flip for s, flip in _FLIP_FOR_SYNDROME.items() if s >> k & 1) for k in range(4))

# mask over the 11-bit data int (MSB = data bit 0) selecting bits that feed
# parity k
_PARITY_MASKS = tuple(
    sum(1 << (10 - j) for j, s in enumerate(_DATA_SYNDROMES) if s >> k & 1)
    for k in range(4)
)


def _encode_int(data: int) -> int:
    word = data << 4
    for k in range(4):
        if (data & _PARITY_MASKS[k]).bit_count() & 1:
            word |= 1 << (3 - k)
    return word


_ENCODE_TABLE = tuple(_encode_int(d) for d in range(1 << BLOCK_DATA_BITS))


def _decode_int(word: int) -> tuple[int, FecStatus]:
    s = ((word & _S0).bit_count() & 1 | ((word & _S1).bit_count() & 1) << 1
         | ((word & _S2).bit_count() & 1) << 2 | ((word & _S3).bit_count() & 1) << 3)
    if s == 0:
        return word >> 4, FecStatus.OK
    flip = _FLIP_FOR_SYNDROME.get(s)
    if flip is None:  # unreachable for (15,11): all 15 syndromes are columns
        return word >> 4, FecStatus.UNCORRECTABLE
    return (word ^ flip) >> 4, FecStatus.CORRECTED


# --------------------------------------------------------------------------
# CRC8 (poly 0x07, init 0, MSB-first, no reflection)

def _crc8_shift(crc: int) -> int:
    for _ in range(8):
        crc = ((crc << 1) ^ CRC8_POLY) & 0xFF if crc & 0x80 else (crc << 1) & 0xFF
    return crc


_CRC8_TABLE = tuple(_crc8_shift(b) for b in range(256))


def crc8(data: bytes) -> int:
    crc = 0
    for byte in data:
        crc = _CRC8_TABLE[crc ^ byte]
    return crc


# --------------------------------------------------------------------------
# framing

def packed_frame_bits(payload_len: int) -> int:
    """Total wire bits of a packed frame with `payload_len` payload bytes."""
    body = 4 + 4 + 8 + 8 * payload_len + 8
    blocks = -(-body // BLOCK_DATA_BITS)
    return SYNC_BITS + blocks * BLOCK_CODE_BITS


def frame_pack(frame: MgmtFrame) -> np.ndarray:
    """Serialize a frame to wire bits: SYNC, then Hamming-coded body."""
    length = len(frame.payload)
    if length > MAX_PAYLOAD:
        raise PayloadTooLong(f"payload of {length} bytes exceeds {MAX_PAYLOAD}")
    header = bytes([(int(frame.msg_type) << 4) | frame.seq, length]) + frame.payload
    n_blocks = -(-(24 + 8 * length) // BLOCK_DATA_BITS)
    body = int.from_bytes(header + bytes([crc8(header)]), "big") \
        << (n_blocks * BLOCK_DATA_BITS - 24 - 8 * length)
    word = SYNC_WORD
    for shift in range((n_blocks - 1) * BLOCK_DATA_BITS, -1, -BLOCK_DATA_BITS):
        word = (word << BLOCK_CODE_BITS) | _ENCODE_TABLE[(body >> shift) & _DATA_MASK]
    return bits_from_int(word, SYNC_BITS + n_blocks * BLOCK_CODE_BITS)


def frame_unpack(bits) -> tuple[MgmtFrame, FecStats]:
    """Parse wire bits back into a frame.

    The frame starts just past the first exact SYNC match.  Raises
    SyncNotFound / FecFailure / CrcMismatch; each corresponds to one lost
    message at the metrics layer.  A body whose decoded length field is
    implausible (only possible after a >=2-bit miscorrection) surfaces as
    CrcMismatch since all blocks decoded individually.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    stream = int_from_bits(bits)
    for rest in range(len(bits) - SYNC_BITS, -1, -1):  # bits left after the SYNC
        if (stream >> rest) & _SYNC_MASK == SYNC_WORD:
            break
    else:
        raise SyncNotFound("no 16-bit SYNC pattern in stream")
    avail = rest // BLOCK_CODE_BITS

    def decode_block(i):
        return _decode_int((stream >> (rest - (i + 1) * BLOCK_CODE_BITS)) & _CODE_MASK)

    if avail < 2:
        raise CrcMismatch("frame truncated before length field")
    decoded = [decode_block(0), decode_block(1)]
    length = ((decoded[0][0] << BLOCK_DATA_BITS | decoded[1][0]) >> 6) & 0xFF  # body bits 8..15
    n_blocks = -(-(24 + 8 * length) // BLOCK_DATA_BITS)
    if length > MAX_PAYLOAD or n_blocks > avail:
        raise CrcMismatch(f"decoded length field {length} invalid")
    decoded += [decode_block(i) for i in range(2, n_blocks)]

    corrected = sum(1 for _, st in decoded if st is FecStatus.CORRECTED)
    uncorrectable = sum(1 for _, st in decoded if st is FecStatus.UNCORRECTABLE)
    stats = FecStats(blocks=n_blocks, corrected=corrected, uncorrectable=uncorrectable)
    if uncorrectable:
        raise FecFailure(stats)

    body = 0
    for data, _ in decoded:
        body = (body << BLOCK_DATA_BITS) | data
    fields = (body >> (n_blocks * BLOCK_DATA_BITS - 24 - 8 * length)).to_bytes(length + 3, "big")
    if crc8(fields[:-1]) != fields[-1]:
        raise CrcMismatch(stats=stats)
    msg_type = fields[0] >> 4
    if msg_type > _MAX_MSG_TYPE:
        raise CrcMismatch(f"decoded type {msg_type} invalid", stats=stats)
    return MgmtFrame(MsgType(msg_type), fields[0] & 0x0F, fields[2:-1]), stats


# --------------------------------------------------------------------------
# Manchester line code (IEEE 802.3 polarity: logical 1 = low-to-high)

def manchester_encode(bits) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    symbols = np.empty(2 * len(bits), dtype=np.uint8)
    symbols[0::2] = 1 - bits
    symbols[1::2] = bits
    return symbols


def manchester_decode(symbols) -> np.ndarray:
    symbols = np.asarray(symbols, dtype=np.uint8)
    if len(symbols) % 2:
        raise CodingViolation(len(symbols) - 1)
    first, second = symbols[0::2], symbols[1::2]
    bad = np.nonzero(first == second)[0]
    if len(bad):
        raise CodingViolation(2 * int(bad[0]))
    return second.astype(np.uint8)


# --------------------------------------------------------------------------
# channel impairments and statistics

def apply_bit_errors(bits, p: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability p (deterministic per rng)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    bits = np.asarray(bits, dtype=np.uint8)
    return bits ^ (rng.random(len(bits)) < p)


def spectral_occupancy(symbols, baud_rate: float,
                       band_hz: tuple[float, float] = (10_000.0, 90_000.0),
                       dc_cutoff_hz: float = 1_000.0,
                       min_symbols: int = 4096) -> tuple[float, float]:
    """(fraction of AC power inside band, power below dc_cutoff rel. total in dB).

    Symbols map to +-1 and the rectangular-windowed discrete spectrum spans
    [0, baud_rate); the band test on that axis picks up both conjugate halves.
    """
    symbols = np.asarray(symbols, dtype=np.float64)
    n = len(symbols)
    if n < min_symbols:
        raise StreamTooShort(f"need >= {min_symbols} symbols, got {n}")
    power = np.abs(np.fft.fft(2.0 * symbols - 1.0)) ** 2
    freqs = np.arange(n) * (baud_rate / n)
    total = power.sum()
    ac = power[1:].sum()
    in_band = power[(freqs >= band_hz[0]) & (freqs <= band_hz[1])].sum()
    fraction = float(in_band / ac) if ac > 0 else 0.0
    low = power[freqs < dc_cutoff_hz].sum()
    dc_rel_db = 10.0 * math.log10(low / total) if low > 0 else -math.inf
    return fraction, dc_rel_db


def block_loss_probability(p_bit: float) -> float:
    """P(>= 2 errors in a 15-bit codeword) = what plain SEC cannot repair.

    Equals 1 - (1-p)^15 - 15p(1-p)^14, computed as the binomial tail sum to
    stay accurate for tiny p.
    """
    q = 1.0 - p_bit
    return sum(math.comb(15, k) * p_bit ** k * q ** (15 - k) for k in range(2, 16))


def expected_message_loss_interval(p_bit: float, blocks_per_msg: int = 1,
                                   cfg: MgmtChannelConfig | None = None) -> float:
    """Mean seconds between lost messages under continuous transmission."""
    if not 0.0 < p_bit < 1.0:
        raise ValueError("p_bit must be in (0, 1)")
    if blocks_per_msg < 1:
        raise ValueError("blocks_per_msg must be >= 1")
    cfg = cfg or MgmtChannelConfig()
    p_block = block_loss_probability(p_bit)
    msg_rate = cfg.bit_rate / (BLOCK_CODE_BITS * blocks_per_msg)
    p_msg = 1.0 - (1.0 - p_block) ** blocks_per_msg
    return 1.0 / (msg_rate * p_msg)


def multi_error_blocks(positions) -> int:
    """Number of codeword blocks holding >= 2 distinct error positions.

    Sorts, drops repeated positions, then counts the runs of equal block
    index longer than one; same result as counting with ``np.unique``, at a
    fraction of its cost on millions of positions."""
    pos = np.sort(np.asarray(positions, dtype=np.int64))
    distinct = np.ones(len(pos), dtype=bool)
    distinct[1:] = pos[1:] != pos[:-1]
    blocks = pos[distinct] // BLOCK_CODE_BITS
    same = blocks[1:] == blocks[:-1]
    return int(same[:1].sum()) + int(np.count_nonzero(same[1:] & ~same[:-1]))


def simulate_message_loss_interval(p_bit: float, n_bits: int, rng: np.random.Generator,
                                   cfg: MgmtChannelConfig | None = None) -> float:
    """Monte-Carlo counterpart of :func:`expected_message_loss_interval`.

    Samples the total error count over the whole stream, scatters the error
    positions uniformly (the exact conditional law of iid bit errors), and
    counts codeword blocks holding >= 2 distinct errors.  Memory-bounded by
    multinomial-splitting the positions across equal bit-space chunks, so
    >= 1e12 simulated bits are routine.
    """
    cfg = cfg or MgmtChannelConfig()
    n_blocks = n_bits // BLOCK_CODE_BITS
    if n_blocks < 1:
        raise ValueError("need at least one whole block")
    n_bits = n_blocks * BLOCK_CODE_BITS

    errors = int(rng.binomial(n_bits, p_bit))
    chunk_bits = BLOCK_CODE_BITS * int(max(1e6, min(n_bits, 4e6 / max(p_bit, 1e-12))) // BLOCK_CODE_BITS)
    n_chunks = -(-n_bits // chunk_bits)
    sizes = np.full(n_chunks, chunk_bits, dtype=np.int64)
    sizes[-1] = n_bits - chunk_bits * (n_chunks - 1)
    counts = rng.multinomial(errors, sizes / sizes.sum())

    lost = 0
    for size, k in zip(sizes, counts):
        if k < 2:
            continue
        lost += multi_error_blocks(rng.integers(0, size, int(k), dtype=np.int64))
    duration = n_bits / cfg.bit_rate
    return duration / lost if lost else math.inf
