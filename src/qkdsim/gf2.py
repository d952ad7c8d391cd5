"""Packed bit vectors and bit matrices over GF(2).

A vector holds its bits in one form or both: as a Python int, bit i at bit
position i (LSB first), so XOR, AND and popcount run word-parallel on
arbitrary lengths; or unpacked, as a read-only uint8 0/1 array (bits()).
A vector built from an int unpacks it on the first bits() call, and one
built from an array (from_array) packs its int on the first read of value,
so numpy stages never convert a vector that only numpy reads. Its bytes
(to_bytes_msb, matvec's operand) come from whichever form it already
holds. Values are kept canonical: bits at positions >= len are always
zero, which makes equality and hashing plain int comparisons; they read
the int, so two vectors compare and hash alike whichever form each was
built from.

A matrix keeps its rows in a read-only (rows, ceil(cols / 8)) numpy uint8
array: row i is row i's int as little-endian bytes, the layout in which
rng_bytes and SHAKE draws are read, so a drawn matrix needs no repacking
and serialization runs over the whole matrix at once. matvec works in
row blocks of about MATVEC_BLOCK_BYTES through one buffer: a fresh
matrix-sized temporary (1.83 MB at n_raw = 131072) page-faults on every
product, while a block-sized one is reused from the heap. Matrices are
immutable; operations that change one return a new matrix built on a copy
of the array.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# Bytes of matrix rows that matvec ANDs and folds in one step. The default
# 256 x 3,542-bit matrix fits in a single block; a 256 x 57,340-bit one
# takes eight.
MATVEC_BLOCK_BYTES = 1 << 18

# Byte-level bit reversal table. Serialization is most-significant-bit
# first (vector bit 0 maps to bit 7 of byte 0), while storage is LSB
# first, so packing is a byte reversal, done at C speed by bytes.translate.
_REV8 = bytes(int(format(i, "08b")[::-1], 2) for i in range(256))


def pack_bits_msb(value: int, nbits: int) -> bytes:
    """Pack an LSB-first bit integer into MSB-first bytes.

    Bit i of value maps to bit 7 - (i % 8) of byte i // 8. Trailing pad
    bits in the final byte are zero because value is canonical.
    """
    nbytes = (nbits + 7) // 8
    return value.to_bytes(nbytes, "little").translate(_REV8)


def rng_bytes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Exactly the bytes of rng.bytes(n), as a uint8 array, and the same end state.

    Generator.bytes(n) takes ceil(n / 4) 32-bit words, and one when n is 0,
    from the bit generator's next_uint32, which PCG64 serves in halves: the
    buffered half-word, if has_uint32 is set; then the low and then the high
    half of each 64-bit output. An odd number of words left makes the high
    half of the last output the new buffer, and every output drawn leaves
    its high half in uinteger, even once that buffer is spent. So this takes
    the buffered half-word from the state, draws the other words as whole
    64-bit outputs through random_raw, whose little-endian bytes are the
    low then high halves, and writes has_uint32 and uinteger back. Only
    PCG64 is supported; any other bit generator raises TypeError.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError(f"rng_bytes needs a PCG64 bit generator, not {type(bitgen).__name__}")
    words = max(1, (n + 3) // 4)  # Generator.bytes(0) still takes one word
    state = bitgen.state
    buffered = state["has_uint32"]
    head = np.frombuffer(state["uinteger"].to_bytes(4, "little"), np.uint8)
    rest = words - buffered
    raw = bitgen.random_raw((rest + 1) // 2)
    if rest:
        state = bitgen.state  # random_raw advanced the generator
        state["uinteger"] = int(raw[-1]) >> 32
    state["has_uint32"] = rest % 2
    bitgen.state = state
    out = raw.astype("<u8", copy=False).view(np.uint8)
    if not buffered:
        return out[:n]
    if rest % 2:
        # The last high half went to the buffer, so the bytes fit in place:
        # move them up one word (memoryview assignment is a memmove).
        view = memoryview(out)
        view[4:] = view[:-4]
        out[:4] = head
        return out[:n]
    return np.concatenate((head, out))[:n]


class BitVector:
    """Immutable fixed-length bit string over GF(2).

    It holds its int (_value), its bits array (_bits) or both, and fills in
    the other on first use; at least one is always set.
    """

    __slots__ = ("n", "_value", "_bits")

    def __init__(self, n: int, value: int = 0):
        if n < 0:
            raise ValueError("length must be nonnegative")
        if value < 0 or value >> n:
            raise ValueError("value has bits outside the vector length")
        self.n = n
        self._value: int | None = value
        self._bits: np.ndarray | None = None

    @property
    def value(self) -> int:
        """The bits as an int, bit i at position i; packed on first read."""
        if self._value is None:
            self._value = int.from_bytes(np.packbits(self._bits, bitorder="little"), "little")
        return self._value

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "BitVector":
        """n independent fair bits from rng, LSB first; draws nothing when n == 0."""
        if n == 0:
            return cls(0)
        return cls(n, int.from_bytes(rng_bytes(rng, (n + 7) // 8), "little") & ((1 << n) - 1))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitVector":
        """Build from a numpy 0/1 array (uint8 or bool); nonzero entries are ones.

        The vector keeps only its own read-only copy of the bits, which
        bits() returns, so arr is never aliased and may change afterwards.
        Its int is packed from those bits on the first read of value.
        """
        bits = np.not_equal(arr, 0).view(np.uint8)
        bits.flags.writeable = False
        v = cls.__new__(cls)
        v.n, v._value, v._bits = len(bits), None, bits
        return v

    @classmethod
    def from_positions(cls, n: int, positions: Iterable[int]) -> "BitVector":
        """Indicator vector: ones exactly at the given positions."""
        value = 0
        for p in positions:
            if not 0 <= p < n:
                raise IndexError(f"position {p} out of range for length {n}")
            value |= 1 << p
        return cls(n, value)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"position {i} out of range for length {self.n}")
        return (self.value >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.n, self.value ^ other.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVector) and self.n == other.n and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.n, self.value))

    def __repr__(self) -> str:
        shown = "".join(str(self[i]) for i in range(min(self.n, 64)))
        tail = "..." if self.n > 64 else ""
        return f"BitVector({self.n}, bits={shown}{tail})"

    def popcount(self) -> int:
        return self.value.bit_count()

    def first(self, k: int) -> "BitVector":
        if not 0 <= k <= self.n:
            raise ValueError(f"cannot take first {k} of {self.n} bits")
        return BitVector(k, self.value & ((1 << k) - 1))

    def last(self, k: int) -> "BitVector":
        if not 0 <= k <= self.n:
            raise ValueError(f"cannot take last {k} of {self.n} bits")
        return BitVector(k, self.value >> (self.n - k))

    def bits(self) -> np.ndarray:
        """Bits as a read-only numpy uint8 array, index i = bit i.

        A vector built from an int unpacks it on first use and caches the
        array; one built by from_array returns its own. Later calls return
        the same array.
        """
        if self._bits is None:
            raw = self._value.to_bytes((self.n + 7) // 8, "little")
            bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[: self.n]
            bits.flags.writeable = False
            self._bits = bits
        return self._bits

    def to_bytes_msb(self) -> bytes:
        if self._value is None:
            return np.packbits(self._bits, bitorder="big").tobytes()
        return pack_bits_msb(self._value, self.n)

    def to_hex(self) -> str:
        """Length-prefixed MSB-first hex, e.g. '12:ab30'."""
        return f"{self.n}:{self.to_bytes_msb().hex()}"


class BitMatrix:
    """Immutable rectangular bit matrix over GF(2).

    Row i is packed[i], the row's ceil(cols / 8) bytes LSB first: entry
    (i, j) is bit j % 8 of byte j // 8, and the pad bits past cols in the
    last byte are zero.
    """

    __slots__ = ("rows", "cols", "packed")

    def __init__(self, row_values: Sequence[int], cols: int):
        if cols < 0:
            raise ValueError("cols must be nonnegative")
        values = tuple(row_values)
        for r in values:
            if r < 0 or r >> cols:
                raise ValueError("row value has bits outside cols")
        nbytes = (cols + 7) // 8
        buf = bytearray().join(r.to_bytes(nbytes, "little") for r in values)  # writable
        self._adopt(np.frombuffer(buf, np.uint8).reshape(len(values), nbytes), cols)

    def _adopt(self, packed: np.ndarray, cols: int) -> "BitMatrix":
        """Take ownership of a writable (rows, ceil(cols / 8)) uint8 array.

        Zeroes the pad bits past cols in each row's last byte, freezes the
        array and returns self. Every constructor ends here.
        """
        if cols % 8:
            packed[:, -1] &= (1 << (cols % 8)) - 1
        packed.flags.writeable = False
        self.rows = packed.shape[0]
        self.cols = cols
        self.packed = packed
        return self

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls.__new__(cls)._adopt(np.zeros((rows, (cols + 7) // 8), np.uint8), cols)

    @classmethod
    def from_packed_rows(cls, data: bytes | np.ndarray, rows: int, cols: int) -> "BitMatrix":
        """Matrix from rows * ceil(cols / 8) bytes, one byte-padded row after another.

        data is a bytes object or a uint8 array, such as rng_bytes returns;
        the matrix holds a copy, so data is never aliased or changed.

        Each row is packed LSB first: entry (i, j) is bit j % 8 of the row's
        byte j // 8. Bits past cols in a row's last byte are dropped.
        """
        nbytes = (cols + 7) // 8
        if len(data) != rows * nbytes:
            raise ValueError(f"expected {rows * nbytes} bytes for {rows}x{cols}, got {len(data)}")
        packed = np.frombuffer(data, np.uint8).reshape(rows, nbytes).copy()
        return cls.__new__(cls)._adopt(packed, cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.cols == other.cols
            and np.array_equal(self.packed, other.packed)
        )

    def __hash__(self) -> int:
        return hash((self.cols, self.rows, self.packed.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"

    def to_bytes_msb(self) -> bytes:
        """Rows concatenated, each packed MSB-first and byte-padded."""
        return self.packed.tobytes().translate(_REV8)

    def to_hex_lines(self) -> list[str]:
        """Dimension header line, then one length-prefixed hex row per line.

        Row i reads like BitVector(self.cols, row i's int).to_hex(), sliced
        out of to_bytes_msb.
        """
        body = self.to_bytes_msb().hex()
        step = 2 * ((self.cols + 7) // 8)
        lines = [f"{self.rows}x{self.cols}"]
        lines.extend(f"{self.cols}:{body[i * step : (i + 1) * step]}" for i in range(self.rows))
        return lines


def matvec(m: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product over GF(2): out[i] = parity(row_i AND v).

    Each block of whole rows, about MATVEC_BLOCK_BYTES (one row when a row
    is wider), is ANDed into one reused buffer and XOR-folded there.
    """
    if m.cols != v.n:
        raise ValueError(f"dimension mismatch: matrix cols {m.cols} vs vector length {v.n}")
    # parity(row AND v) is the parity of the XOR of the row's ANDed bytes,
    # so each row needs one popcount.
    nbytes = m.packed.shape[1]
    if v._value is None:
        x = np.packbits(v._bits, bitorder="little")
    else:
        x = np.frombuffer(v._value.to_bytes(nbytes, "little"), np.uint8)
    step = max(1, MATVEC_BLOCK_BYTES // max(1, nbytes))
    buf = np.empty((min(step, m.rows), nbytes), np.uint8)
    folded = np.empty(m.rows, np.uint8)
    for start in range(0, m.rows, step):
        block = m.packed[start : start + step]
        anded = buf[: len(block)]
        np.bitwise_and(block, x, out=anded)
        np.bitwise_xor.reduce(anded, axis=1, out=folded[start : start + len(block)])
    return BitVector.from_array(np.bitwise_count(folded) & 1)


def random_matrix(rows: int, cols: int, rng: np.random.Generator) -> BitMatrix:
    """Uniform random matrix, each entry an independent fair bit from rng.

    Draws rows * ceil(cols / 8) bytes with a single rng_bytes call, row i
    from the i-th block, and nothing when the matrix has no entries. The
    matrix wraps the drawn array itself, pad bits zeroed, with no copy.
    """
    nbytes = (cols + 7) // 8
    if rows == 0 or nbytes == 0:
        return BitMatrix.zeros(rows, cols)
    block = rng_bytes(rng, rows * nbytes).reshape(rows, nbytes)
    return BitMatrix.__new__(BitMatrix)._adopt(block, cols)


def random_rows(count: int, cols: int, rng: np.random.Generator) -> BitMatrix:
    """count random rows of cols bits, as a matrix, from a single rng_bytes call.

    rng_bytes, like Generator.bytes, draws whole uint32 words, so one draw
    of count rows of ceil(cols / 8) bytes, each padded to whole words, holds
    the bytes of count separate BitVector.random(cols, rng) calls and leaves
    rng in the same state.
    """
    nbytes = (cols + 7) // 8
    if count == 0 or nbytes == 0:
        return BitMatrix.zeros(count, cols)  # like BitVector.random, draws nothing
    stride = 4 * ((nbytes + 3) // 4)
    block = rng_bytes(rng, count * stride).reshape(count, stride)
    return BitMatrix.__new__(BitMatrix)._adopt(block[:, :nbytes], cols)


def replace_rows(m: BitMatrix, start: int, rows: BitMatrix) -> BitMatrix:
    """Replace rows [start, start + rows.rows) of m with the block rows.

    Rows outside the interval are copied unchanged from m.
    """
    stop = start + rows.rows
    if not 0 <= start <= stop <= m.rows:
        raise ValueError(f"row interval [{start}, {stop}) out of range for {m.rows} rows")
    if rows.cols != m.cols:
        raise ValueError(f"length mismatch: rows of {rows.cols} vs cols {m.cols}")
    packed = m.packed.copy()
    packed[start:stop] = rows.packed
    return BitMatrix.__new__(BitMatrix)._adopt(packed, m.cols)


def flip_entry(m: BitMatrix, i: int, j: int) -> BitMatrix:
    """Flip the single entry (i, j)."""
    if not 0 <= i < m.rows:
        raise IndexError(f"row {i} out of range for {m.rows} rows")
    if not 0 <= j < m.cols:
        raise IndexError(f"column {j} out of range for cols {m.cols}")
    packed = m.packed.copy()
    packed[i, j >> 3] ^= 1 << (j & 7)
    return BitMatrix.__new__(BitMatrix)._adopt(packed, m.cols)
