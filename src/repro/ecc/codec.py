"""Pluggable ECC codecs: SEC-DED, SEC-DAEC, and chipkill-style RS.

The paper's chipset (Intel E7500) protects each 64-bit memory word with
8 check bits: a (72,64) single-error-correcting, double-error-detecting
extended Hamming code.  SafeMem's watchpoint trick depends on two exact
properties of such a code:

1. a single flipped bit is silently corrected (so scrambling must flip
   more than one bit or the watchpoint never fires), and
2. the chosen scramble pattern decodes as an *uncorrectable* error that
   the controller reports to the OS (Section 2.2.2).

Real servers ship stronger codes than the E7500's, so this module
defines a small :class:`Codec` interface and three bit-accurate
backends that all preserve property (1) while re-deriving property (2)
per code:

- :class:`SecDedCodec` — the paper's (72,64) extended Hamming code;
- :class:`SecDaecCodec` — single-error-correct, double-*adjacent*-
  error-correct, still 8 check bits, built from an odd-weight-column
  H matrix so adjacent-pair syndromes can never alias single columns;
- :class:`ChipkillCodec` — a shortened Reed-Solomon code over GF(256)
  with 8-bit symbols and three check symbols (distance 4): any single
  failed x8 DRAM device is corrected, any two failed symbols are
  detected and never miscorrected.

Each codec owns its scramble pattern (the ``scramble_bit_positions``
hook): the default 3-bit pattern from ``constants.py`` is kept when it
decodes as uncorrectable under that code, otherwise a deterministic
search picks the first 3-bit pattern that does.  The decode-status
taxonomy (:class:`DecodeStatus` / :class:`DecodeResult`) is shared so
the memory controller, scrubber, and fault plumbing stay codec-blind.

See ``docs/HARDWARE.md`` for the cross-backend hardware-diversity
matrix derived from these implementations.
"""

import struct
from dataclasses import dataclass
from enum import Enum

from repro.common.constants import (
    ECC_GROUP_BITS,
    ECC_GROUP_BYTES,
    SCRAMBLE_BIT_POSITIONS,
)
from repro.common.errors import ConfigurationError

#: Codeword positions occupied by Hamming parity bits (SEC-DED layout).
PARITY_POSITIONS = (1, 2, 4, 8, 16, 32, 64)

#: Highest codeword position used (71 positions hold 64 data + 7 parity).
MAX_POSITION = 71


def _data_positions():
    """Return the codeword position of each of the 64 data bits."""
    positions = []
    parity = set(PARITY_POSITIONS)
    for position in range(1, MAX_POSITION + 1):
        if position not in parity:
            positions.append(position)
    return tuple(positions)


#: ``DATA_POSITIONS[i]`` is the codeword position of data bit ``i``.
DATA_POSITIONS = _data_positions()

#: Inverse map: codeword position -> data bit index.
POSITION_TO_DATA = {pos: i for i, pos in enumerate(DATA_POSITIONS)}


def _build_byte_syndromes():
    """Per-byte lookup tables for vectorised encoding.

    ``_BYTE_SYNDROMES[b][v]`` is the XOR of the codeword positions of
    every set bit when byte value ``v`` occupies data byte ``b`` of the
    64-bit group.  Because the Hamming parity positions are exactly the
    powers of two, the low 7 bits of that XOR *are* the check bits, so
    encoding a group reduces to eight table lookups.
    """
    tables = []
    for byte_index in range(ECC_GROUP_BITS // 8):
        table = []
        for value in range(256):
            syndrome = 0
            for bit in range(8):
                if (value >> bit) & 1:
                    syndrome ^= DATA_POSITIONS[byte_index * 8 + bit]
            table.append(syndrome)
        tables.append(tuple(table))
    return tuple(tables)


_BYTE_SYNDROMES = _build_byte_syndromes()

#: Parity (popcount & 1) of every byte value.
_BYTE_PARITY = tuple(bin(value).count("1") & 1 for value in range(256))


def _build_chunk_tables():
    """Per-16-bit-chunk lookup tables for :meth:`SecDedCodec.encode_words`.

    ``_CHUNK_TABLES[c][v]`` packs, for the little-endian 16-bit value
    ``v`` in chunk ``c`` of a 64-bit group, the XOR of its data bits'
    codeword positions (bits 0-6; positions stop at 71, so they fit)
    and the parity of its data bits (bit 7).  Both halves combine by
    XOR, so one group is the XOR of four entries.  Each table is built
    as one wide-int XOR of its two per-byte halves.
    """
    packed = [
        bytes(syndrome | (parity << 7)
              for syndrome, parity in zip(table, _BYTE_PARITY))
        for table in _BYTE_SYNDROMES
    ]
    tables = []
    for low, high in zip(packed[0::2], packed[1::2]):
        # Entry (h << 8) | l is low[l] ^ high[h].
        lows = int.from_bytes(low * 256, "little")
        highs = int.from_bytes(
            b"".join(bytes((value,)) * 256 for value in high), "little")
        tables.append((lows ^ highs).to_bytes(1 << 16, "little"))
    return tuple(tables)


_CHUNK_TABLES = _build_chunk_tables()

#: One 64-bit group as its four little-endian 16-bit chunks.
_GROUP_CHUNKS = struct.Struct("<4H")

#: Packed ``syndrome | data_parity << 7`` -> check byte: the Hamming
#: bits stay, and the overall parity also covers the Hamming bits.
_CHECK_FROM_PACKED = bytes(
    (packed & 0x7F) | (((packed >> 7) ^ _BYTE_PARITY[packed & 0x7F]) << 7)
    for packed in range(256)
)


class DecodeStatus(Enum):
    """Outcome of decoding one ECC group."""

    OK = "ok"
    CORRECTED = "corrected_single_bit"
    UNCORRECTABLE = "uncorrectable_multi_bit"


@dataclass
class DecodeResult:
    """Decoded data plus the classification of any detected error.

    ``syndrome`` is codec-specific: the 7-bit Hamming syndrome for
    SEC-DED, the 8-bit column syndrome for SEC-DAEC, and the packed
    ``S0 | S1<<8 | S2<<16`` Reed-Solomon syndromes for chipkill.  The
    ``codec`` name says which interpretation applies, so fault logs
    never assume the (72,64) layout.
    """

    data: int
    status: DecodeStatus
    syndrome: int = 0
    codec: str = "secded"

    @property
    def faulted(self):
        """True when the group holds an uncorrectable error."""
        return self.status is DecodeStatus.UNCORRECTABLE


def _build_decode_actions():
    """Memoised decode classification.

    Index ``(syndrome << 1) | parity_mismatch`` -> ``(status, flip_bit)``
    where ``flip_bit`` is the data bit to correct (or ``None``).  The
    syndrome fits in 7 bits, so the whole decision table has 256 rows
    and the per-read decode is a single lookup instead of a branch
    cascade.
    """
    actions = []
    for syndrome in range(128):
        for parity_mismatch in (False, True):
            if syndrome == 0:
                status = (DecodeStatus.CORRECTED if parity_mismatch
                          else DecodeStatus.OK)
                actions.append((status, None))
            elif parity_mismatch:
                # Odd number of flipped bits; a single-bit error iff the
                # syndrome names a real codeword position.  A syndrome
                # naming a parity position means the flipped bit was a
                # check bit; data needs no change either way.
                if syndrome <= MAX_POSITION:
                    actions.append((DecodeStatus.CORRECTED,
                                    POSITION_TO_DATA.get(syndrome)))
                else:
                    actions.append((DecodeStatus.UNCORRECTABLE, None))
            else:
                # Even number of flipped bits with a non-zero syndrome:
                # a detectable (but uncorrectable) double-bit error.
                actions.append((DecodeStatus.UNCORRECTABLE, None))
    return tuple(actions)


_DECODE_ACTIONS = _build_decode_actions()


# ----------------------------------------------------------------------
# the codec interface
# ----------------------------------------------------------------------
class Codec:
    """Interface every ECC backend implements.

    A codec protects one ``group_bits``-bit data word with
    ``check_bits`` check bits (``check_bytes`` bytes of check storage
    per group in DRAM).  Subclasses implement :meth:`encode`,
    :meth:`encode_words`, and :meth:`decode`; the scramble machinery —
    how SafeMem arms a watchpoint so the *next read* raises an
    uncorrectable fault — is derived here once from the decode
    behaviour, so every backend provably satisfies the watchpoint
    contract or refuses to construct.
    """

    #: registry name; subclasses override.
    name = "codec"
    group_bits = ECC_GROUP_BITS
    check_bits = 8
    #: what the code guarantees for a 2-bit error: ``"detects-all"``
    #: (SEC-DED), ``"corrects-adjacent"`` (SEC-DAEC: adjacent pairs are
    #: corrected, other doubles may alias an adjacent pair), or
    #: ``"corrects-within-symbol"`` (chipkill: doubles inside one
    #: symbol corrected, across symbols always detected).
    double_bit_guarantee = "detects-all"

    def __init__(self):
        self._scramble_positions = None
        self._scramble_mask = None
        self._wide_masks = {}

    # -- geometry ------------------------------------------------------
    @property
    def check_bytes(self):
        """Bytes of check storage per :data:`ECC_GROUP_BYTES` group."""
        return self.check_bits // 8

    @property
    def overhead_percent(self):
        """Simulated check-bit storage overhead over the data bits."""
        return self.check_bits / self.group_bits * 100.0

    # -- coding (subclass responsibility) ------------------------------
    def encode(self, data):
        """Return the check bits (as an int) for one data word."""
        raise NotImplementedError

    def encode_words(self, data):
        """Batch-encode: ``check_bytes`` bytes per 64-bit group."""
        raise NotImplementedError

    def decode(self, data, check):
        """Decode a stored (data, check) pair into a DecodeResult."""
        raise NotImplementedError

    # -- the syndrome-scrambling hook ----------------------------------
    @property
    def scramble_bit_positions(self):
        """Data-bit positions the kernel flips to arm a watchpoint.

        The default pattern from ``constants.SCRAMBLE_BIT_POSITIONS``
        is used when it decodes as uncorrectable under this code;
        otherwise the first 3-bit pattern (in deterministic order) that
        does is chosen.  Either way the chosen pattern is *verified*
        against the decoder at construction time, so a codec whose
        scramble could be silently (mis)corrected cannot exist.
        """
        if self._scramble_positions is None:
            self._scramble_positions = self._choose_scramble_positions()
        return self._scramble_positions

    @property
    def scramble_mask(self):
        """The scramble pattern as a ``group_bits``-wide XOR mask."""
        if self._scramble_mask is None:
            mask = 0
            for position in self.scramble_bit_positions:
                mask |= 1 << position
            self._scramble_mask = mask
        return self._scramble_mask

    def scramble_bytes(self, data):
        """XOR the scramble pattern into every group of ``data``.

        An involution: applying it twice restores the input.  Works on
        any multiple of the group size via one wide int XOR.
        """
        if len(data) % ECC_GROUP_BYTES:
            raise ConfigurationError(
                f"scramble needs a multiple of {ECC_GROUP_BYTES} bytes, "
                f"got {len(data)}"
            )
        wide = self._wide_masks.get(len(data))
        if wide is None:
            mask_bytes = self.scramble_mask.to_bytes(ECC_GROUP_BYTES,
                                                     "little")
            wide = int.from_bytes(mask_bytes * (len(data)
                                                // ECC_GROUP_BYTES),
                                  "little")
            self._wide_masks[len(data)] = wide
        word = int.from_bytes(data, "little") ^ wide
        return word.to_bytes(len(data), "little")

    def scramble_syndrome(self, bit_positions):
        """Decode-level syndrome of flipping the given data bits.

        Codec-width-aware fault-injection helper: positions are
        validated against ``group_bits`` (a clean ConfigurationError,
        not an IndexError or a silently wrapped negative index), and
        the syndrome is computed through this codec's own decoder, so
        callers never assume the (72,64) layout.
        """
        mask = self._error_mask(bit_positions)
        return self.decode(mask, self.encode(0)).syndrome

    def error_status(self, bit_positions):
        """Classify the error pattern that flips the given data bits.

        For linear codes the decode classification depends only on the
        error pattern, never on the stored data, so probing the zero
        word answers for every word.
        """
        mask = self._error_mask(bit_positions)
        return self.decode(mask, self.encode(0)).status

    # -- helpers -------------------------------------------------------
    def _error_mask(self, bit_positions):
        mask = 0
        for position in bit_positions:
            if not 0 <= position < self.group_bits:
                raise ConfigurationError(
                    f"bit position {position} out of range for a "
                    f"{self.group_bits}-bit group ({self.name})"
                )
            mask ^= 1 << position
        return mask

    def _choose_scramble_positions(self):
        preferred = tuple(SCRAMBLE_BIT_POSITIONS)
        if self.error_status(preferred) is DecodeStatus.UNCORRECTABLE:
            return preferred
        for first in range(self.group_bits):
            for second in range(first + 1, self.group_bits):
                for third in range(second + 1, self.group_bits):
                    pattern = (first, second, third)
                    status = self.error_status(pattern)
                    if status is DecodeStatus.UNCORRECTABLE:
                        return pattern
        raise ConfigurationError(
            f"codec {self.name!r} has no 3-bit scramble pattern that "
            f"decodes as uncorrectable; the watchpoint contract cannot "
            f"hold"
        )

    def _require_word(self, data):
        if not 0 <= data < (1 << self.group_bits):
            raise ConfigurationError(
                f"data word out of range for {self.group_bits} bits: "
                f"{data:#x}"
            )

    def _require_check(self, check):
        limit = (1 << self.check_bits) - 1
        if not 0 <= check <= limit:
            raise ConfigurationError(
                f"check value out of range for {self.check_bits} check "
                f"bits: {check:#x}"
            )


# ----------------------------------------------------------------------
# SEC-DED (72,64): the paper's code
# ----------------------------------------------------------------------
class SecDedCodec(Codec):
    """Encoder/decoder for the (72,64) SEC-DED extended Hamming code."""

    name = "secded"
    check_bits = 8

    def __init__(self, group_bits=ECC_GROUP_BITS):
        if group_bits != ECC_GROUP_BITS:
            raise ConfigurationError(
                f"only {ECC_GROUP_BITS}-bit groups are supported, "
                f"got {group_bits}"
            )
        super().__init__()
        self.group_bits = group_bits

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode(self, data):
        """Return the 8 check bits for a 64-bit ``data`` word.

        Bit layout of the returned byte: bits 0-6 are the Hamming parity
        bits (for positions 1, 2, 4, ..., 64), bit 7 is the overall
        parity over the whole 71-position codeword.
        """
        self._require_word(data)
        syndrome = 0
        data_parity = 0
        word = data
        for table in _BYTE_SYNDROMES:
            value = word & 0xFF
            syndrome ^= table[value]
            data_parity ^= _BYTE_PARITY[value]
            word >>= 8
        # The parity positions are the powers of two, so syndrome bit b
        # is exactly check bit b.
        hamming = syndrome & 0x7F
        overall = data_parity ^ _BYTE_PARITY[hamming]
        return hamming | (overall << 7)

    def encode_words(self, data):
        """Batch-encode: one check byte per 64-bit group of ``data``.

        Four 16-bit-chunk table lookups and one fix-up lookup per group
        (see :func:`_build_chunk_tables`); this is the path the memory
        controller uses for whole-cache-line fills and write-backs.
        ``data`` may be any bytes-like buffer.
        """
        if len(data) % ECC_GROUP_BYTES:
            raise ConfigurationError(
                f"batch encode needs a multiple of {ECC_GROUP_BYTES} "
                f"bytes, got {len(data)}"
            )
        t0, t1, t2, t3 = _CHUNK_TABLES
        check = _CHECK_FROM_PACKED
        return bytes([
            check[t0[c0] ^ t1[c1] ^ t2[c2] ^ t3[c3]]
            for c0, c1, c2, c3 in _GROUP_CHUNKS.iter_unpack(data)
        ])

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def decode(self, data, check):
        """Decode a stored (data, check) pair read back from DRAM.

        Returns a :class:`DecodeResult`.  Single-bit errors (in data,
        parity, or the overall-parity bit itself) are corrected; every
        other mismatch is classified as uncorrectable.
        """
        self._require_word(data)
        self._require_check(check)

        expected = self.encode(data)
        syndrome = (expected ^ check) & 0x7F
        # Overall parity covers data + hamming parity bits; recompute the
        # parity of the *stored* codeword and compare with the stored
        # overall-parity bit.
        stored_overall = (check >> 7) & 1
        recomputed_overall = self._codeword_parity(data, check & 0x7F)
        parity_mismatch = stored_overall != recomputed_overall

        # The (syndrome, parity-mismatch) pair fully classifies the
        # error; the per-pair action is memoised in _DECODE_ACTIONS.
        status, flip_bit = _DECODE_ACTIONS[(syndrome << 1) | parity_mismatch]
        corrected = data if flip_bit is None else data ^ (1 << flip_bit)
        return DecodeResult(data=corrected, status=status,
                            syndrome=syndrome, codec=self.name)

    def scramble_syndrome(self, bit_positions):
        """Codeword-position syndrome of flipping the given data bits.

        Preserves the historical SEC-DED semantics (the XOR of the
        flipped bits' codeword positions) with codec-width validation:
        any value above :data:`MAX_POSITION` is guaranteed
        uncorrectable, and zero would read as an overall-parity flip.
        """
        self._error_mask(bit_positions)  # range validation
        syndrome = 0
        for index in bit_positions:
            syndrome ^= DATA_POSITIONS[index]
        return syndrome

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _codeword_parity(self, data, hamming_bits):
        """Parity (0/1) over the 71-position codeword as stored."""
        ones = bin(data).count("1") + bin(hamming_bits).count("1")
        return ones & 1


# ----------------------------------------------------------------------
# SEC-DAEC (72,64): adjacent-double-error correction
# ----------------------------------------------------------------------
def _build_daec_matrix():
    """Construct the SEC-DAEC H-matrix columns and decode actions.

    Layout: codeword bits 0..63 are the data bits, 64..71 the check
    bits (whose columns are the unit vectors, so encoding is just the
    data syndrome).  Data columns are drawn from the odd-weight bytes
    of weight >= 3, found by a deterministic first-fit backtracking
    search so that every adjacent-pair XOR is distinct.  Odd-weight
    single columns XOR to even-weight pair syndromes, so the single-
    and double-adjacent-error syndrome sets can never collide — the
    classic Dutta/Touba construction trick.

    Returns ``(columns, actions)`` where ``actions[syndrome]`` is
    ``(status, data_flip_mask)``.
    """
    check_columns = [1 << i for i in range(8)]
    candidates = [value for value in range(256)
                  if bin(value).count("1") & 1
                  and bin(value).count("1") >= 3]
    columns = [None] * 64 + check_columns
    used = set(check_columns)
    # Check-check adjacencies (positions 64..71) are fixed up front.
    pair_syndromes = {check_columns[i] ^ check_columns[i + 1]
                      for i in range(7)}

    def place(index):
        previous = columns[index - 1] if index else None
        for value in candidates:
            if value in used:
                continue
            new_pairs = []
            if previous is not None:
                pair = value ^ previous
                if pair in pair_syndromes:
                    continue
                new_pairs.append(pair)
            if index == 63:
                boundary = value ^ check_columns[0]
                if boundary in pair_syndromes or boundary in new_pairs:
                    continue
                new_pairs.append(boundary)
            columns[index] = value
            used.add(value)
            pair_syndromes.update(new_pairs)
            if index == 63 or place(index + 1):
                return True
            columns[index] = None
            used.discard(value)
            pair_syndromes.difference_update(new_pairs)
        return False

    if not place(0):  # pragma: no cover - construction always succeeds
        raise ConfigurationError("SEC-DAEC column search failed")

    actions = [(DecodeStatus.UNCORRECTABLE, 0)] * 256
    actions[0] = (DecodeStatus.OK, 0)
    for position in range(72):
        flip = (1 << position) if position < 64 else 0
        actions[columns[position]] = (DecodeStatus.CORRECTED, flip)
    for position in range(71):
        syndrome = columns[position] ^ columns[position + 1]
        flip = 0
        if position < 64:
            flip |= 1 << position
        if position + 1 < 64:
            flip |= 1 << (position + 1)
        actions[syndrome] = (DecodeStatus.CORRECTED, flip)
    return tuple(columns), tuple(actions)


_DAEC_CACHE = None


def _daec_tables():
    """Lazily built (columns, byte tables, decode actions) triple."""
    global _DAEC_CACHE
    if _DAEC_CACHE is None:
        columns, actions = _build_daec_matrix()
        byte_tables = []
        for byte_index in range(ECC_GROUP_BYTES):
            table = []
            for value in range(256):
                syndrome = 0
                for bit in range(8):
                    if (value >> bit) & 1:
                        syndrome ^= columns[byte_index * 8 + bit]
                table.append(syndrome)
            byte_tables.append(tuple(table))
        _DAEC_CACHE = (columns, tuple(byte_tables), actions)
    return _DAEC_CACHE


class SecDaecCodec(Codec):
    """(72,64) single-error-correct, double-adjacent-error-correct code.

    Models the codes newer server parts ship against multi-bit upsets
    from a single particle strike: any one flipped bit *and* any two
    physically adjacent flipped bits are corrected; wider damage is
    detected as uncorrectable (up to syndrome aliasing inherent to an
    8-check-bit code, which the scramble search avoids by
    construction).
    """

    name = "secdaec"
    check_bits = 8
    double_bit_guarantee = "corrects-adjacent"

    def __init__(self):
        super().__init__()
        _, self._byte_tables, self._actions = _daec_tables()

    def encode(self, data):
        """Return the 8 check bits for a 64-bit ``data`` word."""
        self._require_word(data)
        syndrome = 0
        word = data
        for table in self._byte_tables:
            syndrome ^= table[word & 0xFF]
            word >>= 8
        return syndrome

    def encode_words(self, data):
        """Batch-encode: one check byte per 64-bit group of ``data``."""
        if len(data) % ECC_GROUP_BYTES:
            raise ConfigurationError(
                f"batch encode needs a multiple of {ECC_GROUP_BYTES} "
                f"bytes, got {len(data)}"
            )
        tables = self._byte_tables
        out = bytearray(len(data) // ECC_GROUP_BYTES)
        base = 0
        for group in range(len(out)):
            syndrome = 0
            for byte_index in range(ECC_GROUP_BYTES):
                syndrome ^= tables[byte_index][data[base + byte_index]]
            out[group] = syndrome
            base += ECC_GROUP_BYTES
        return bytes(out)

    def decode(self, data, check):
        """Decode a stored (data, check) pair read back from DRAM."""
        self._require_word(data)
        self._require_check(check)
        syndrome = self.encode(data) ^ check
        status, flip = self._actions[syndrome]
        return DecodeResult(data=data ^ flip, status=status,
                            syndrome=syndrome, codec=self.name)


# ----------------------------------------------------------------------
# chipkill: shortened Reed-Solomon over GF(256), distance 4
# ----------------------------------------------------------------------
_GF_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1, the usual RS polynomial

#: Number of 8-bit symbols per codeword: 8 data + 3 check.
_CK_DATA_SYMBOLS = ECC_GROUP_BYTES
_CK_CHECK_SYMBOLS = 3
_CK_SYMBOLS = _CK_DATA_SYMBOLS + _CK_CHECK_SYMBOLS


def _build_gf_tables():
    exp = [0] * 510
    log = [0] * 256
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _GF_POLY
    for power in range(255, 510):
        exp[power] = exp[power - 255]
    return tuple(exp), tuple(log)


_GF_EXP, _GF_LOG = _build_gf_tables()


def _gf_mul(left, right):
    if left == 0 or right == 0:
        return 0
    return _GF_EXP[_GF_LOG[left] + _GF_LOG[right]]


def _gf_inv(value):
    return _GF_EXP[255 - _GF_LOG[value]]


def _mul_table(constant):
    """256-entry multiply-by-constant table."""
    return tuple(_gf_mul(constant, value) for value in range(256))


def _build_chipkill_tables():
    """Syndrome tables and the check-symbol solver matrix.

    Symbol ``i`` of the codeword carries coordinate ``alpha^i``; the
    three syndromes are ``S_k = sum_i alpha^(k*i) * sym_i``.  Encoding
    solves the 3x3 Vandermonde system over the check-symbol
    coordinates (positions 8..10) so that all syndromes of the stored
    codeword are zero.
    """
    syndrome_tables = []
    for k in range(_CK_CHECK_SYMBOLS):
        row = []
        for i in range(_CK_SYMBOLS):
            row.append(_mul_table(_GF_EXP[(k * i) % 255]))
        syndrome_tables.append(tuple(row))

    # Invert M[k][j] = alpha^(k * (8 + j)) by Gauss-Jordan over GF(256).
    size = _CK_CHECK_SYMBOLS
    matrix = [[_GF_EXP[(k * (_CK_DATA_SYMBOLS + j)) % 255]
               for j in range(size)] for k in range(size)]
    inverse = [[1 if r == c else 0 for c in range(size)]
               for r in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if matrix[r][col])
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        inverse[col], inverse[pivot] = inverse[pivot], inverse[col]
        scale = _gf_inv(matrix[col][col])
        matrix[col] = [_gf_mul(scale, v) for v in matrix[col]]
        inverse[col] = [_gf_mul(scale, v) for v in inverse[col]]
        for row in range(size):
            if row != col and matrix[row][col]:
                factor = matrix[row][col]
                matrix[row] = [matrix[row][c] ^ _gf_mul(factor,
                                                        matrix[col][c])
                               for c in range(size)]
                inverse[row] = [inverse[row][c] ^ _gf_mul(factor,
                                                          inverse[col][c])
                               for c in range(size)]
    solver = tuple(tuple(_mul_table(inverse[r][c]) for c in range(size))
                   for r in range(size))
    return tuple(syndrome_tables), solver


_CHIPKILL_CACHE = None


def _chipkill_tables():
    global _CHIPKILL_CACHE
    if _CHIPKILL_CACHE is None:
        _CHIPKILL_CACHE = _build_chipkill_tables()
    return _CHIPKILL_CACHE


class ChipkillCodec(Codec):
    """Chipkill-style single-symbol-correct Reed-Solomon code.

    Treats each of the eight data bytes of a 64-bit group as one 8-bit
    symbol from an x8 DRAM device and adds three check symbols
    (distance 4): *any* error confined to one symbol — up to a whole
    failed chip — is corrected, and any two damaged symbols are
    detected without risk of miscorrection.  Check storage is 24 bits
    per group; real chipkill hardware amortises this by ganging
    channels, so the simulated overhead here is the honest per-word
    cost (see docs/HARDWARE.md).
    """

    name = "chipkill"
    check_bits = _CK_CHECK_SYMBOLS * 8
    double_bit_guarantee = "corrects-within-symbol"

    def __init__(self):
        super().__init__()
        self._syndrome_tables, self._solver = _chipkill_tables()

    def encode(self, data):
        """Return the three check symbols packed little-endian."""
        self._require_word(data)
        tables = self._syndrome_tables
        targets = []
        for k in range(_CK_CHECK_SYMBOLS):
            total = 0
            word = data
            row = tables[k]
            for i in range(_CK_DATA_SYMBOLS):
                total ^= row[i][word & 0xFF]
                word >>= 8
            targets.append(total)
        check = 0
        for j in range(_CK_CHECK_SYMBOLS):
            symbol = 0
            for k in range(_CK_CHECK_SYMBOLS):
                symbol ^= self._solver[j][k][targets[k]]
            check |= symbol << (8 * j)
        return check

    def encode_words(self, data):
        """Batch-encode: three check bytes per 64-bit group."""
        if len(data) % ECC_GROUP_BYTES:
            raise ConfigurationError(
                f"batch encode needs a multiple of {ECC_GROUP_BYTES} "
                f"bytes, got {len(data)}"
            )
        tables = self._syndrome_tables
        solver = self._solver
        groups = len(data) // ECC_GROUP_BYTES
        out = bytearray(groups * _CK_CHECK_SYMBOLS)
        base = 0
        for group in range(groups):
            targets = []
            for k in range(_CK_CHECK_SYMBOLS):
                total = 0
                row = tables[k]
                for i in range(_CK_DATA_SYMBOLS):
                    total ^= row[i][data[base + i]]
                targets.append(total)
            slot = group * _CK_CHECK_SYMBOLS
            for j in range(_CK_CHECK_SYMBOLS):
                symbol = 0
                for k in range(_CK_CHECK_SYMBOLS):
                    symbol ^= solver[j][k][targets[k]]
                out[slot + j] = symbol
            base += ECC_GROUP_BYTES
        return bytes(out)

    def decode(self, data, check):
        """Decode a stored (data, check) pair read back from DRAM."""
        self._require_word(data)
        self._require_check(check)
        tables = self._syndrome_tables
        syndromes = []
        for k in range(_CK_CHECK_SYMBOLS):
            total = 0
            word = data
            row = tables[k]
            for i in range(_CK_DATA_SYMBOLS):
                total ^= row[i][word & 0xFF]
                word >>= 8
            stored = check
            for j in range(_CK_CHECK_SYMBOLS):
                total ^= row[_CK_DATA_SYMBOLS + j][stored & 0xFF]
                stored >>= 8
            syndromes.append(total)
        s0, s1, s2 = syndromes
        packed = s0 | (s1 << 8) | (s2 << 16)
        if packed == 0:
            return DecodeResult(data=data, status=DecodeStatus.OK,
                                syndrome=0, codec=self.name)
        # A single error of magnitude e at symbol j gives the geometric
        # progression S_k = e * alpha^(k*j); anything else (distance 4
        # guarantees every double-symbol error lands here) is
        # uncorrectable.
        if s0 and s1 and s2 and _gf_mul(s1, s1) == _gf_mul(s0, s2):
            locator = (_GF_LOG[s1] - _GF_LOG[s0]) % 255
            if locator < _CK_SYMBOLS:
                corrected = data
                if locator < _CK_DATA_SYMBOLS:
                    corrected = data ^ (s0 << (8 * locator))
                return DecodeResult(data=corrected,
                                    status=DecodeStatus.CORRECTED,
                                    syndrome=packed, codec=self.name)
        return DecodeResult(data=data, status=DecodeStatus.UNCORRECTABLE,
                            syndrome=packed, codec=self.name)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
#: Registered codec backends by name.
CODECS = {
    "secded": SecDedCodec,
    "secdaec": SecDaecCodec,
    "chipkill": ChipkillCodec,
}

_CODEC_INSTANCES = {}


def codec_names():
    """Names of every registered codec backend, sorted."""
    return tuple(sorted(CODECS))


def get_codec(name):
    """Resolve a codec by registry name (or pass an instance through).

    Instances are shared — codecs are stateless after construction —
    so the lazily built lookup tables are paid for once per process.
    """
    if isinstance(name, Codec):
        return name
    try:
        factory = CODECS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown codec {name!r}; choose from {codec_names()}"
        ) from None
    instance = _CODEC_INSTANCES.get(name)
    if instance is None:
        instance = factory()
        _CODEC_INSTANCES[name] = instance
    return instance


def scramble_syndrome(bit_positions):
    """SEC-DED codeword-position syndrome of flipping the given bits.

    Kept as a module-level convenience for the paper's default code;
    validates bit positions against the 64-bit group (out-of-range
    positions raise ConfigurationError rather than indexing past — or
    silently wrapping around — the position table).  Other codecs
    expose the same hook as :meth:`Codec.scramble_syndrome`.
    """
    return get_codec("secded").scramble_syndrome(bit_positions)
