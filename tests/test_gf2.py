"""Tests for the packed GF(2) vector/matrix core."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bit_at,
    oracle_matvec_bitloop,
    oracle_matvec_numpy,
    read_hex,
    row_ints,
    unpack_msb,
)
from qkdsim.gf2 import (
    BitMatrix,
    BitVector,
    flip_entry,
    matvec,
    pack_bits_msb,
    random_matrix,
    random_rows,
    replace_rows,
)
from qkdsim.scenarios import render_payload


def vec(*bits: int) -> BitVector:
    """The vector with the given bits, bit 0 first."""
    return BitVector.from_array(np.array(bits, np.uint8))


# ---------------------------------------------------------------- vectors


def test_bitvector_basics():
    v = vec(1, 0, 1, 1)
    assert len(v) == 4
    assert [v[i] for i in range(4)] == [1, 0, 1, 1]
    assert v.value == 0b1101
    assert v.popcount() == 3
    assert v == BitVector(4, 13)
    assert v != BitVector(5, 13)  # same bits, different length


def test_bitvector_canonical_form_enforced():
    with pytest.raises(ValueError):
        BitVector(3, 0b1000)
    with pytest.raises(ValueError):
        BitVector(-1, 0)


def test_bitvector_index_out_of_range():
    v = BitVector(4, 0b1010)
    with pytest.raises(IndexError):
        v[4]
    with pytest.raises(IndexError):
        v[-1]


def test_bitvector_xor_and_length_mismatch():
    a = BitVector(4, 0b1100)
    b = BitVector(4, 0b1010)
    assert (a ^ b).value == 0b0110
    with pytest.raises(ValueError):
        a ^ BitVector(5, 0)


def test_bitvector_first_last_split():
    v = vec(1, 1, 0, 1, 0, 0, 1)
    assert v.first(3) == vec(1, 1, 0)
    assert v.last(4) == vec(1, 0, 0, 1)
    assert v.first(0) == BitVector(0, 0)
    assert v.last(7) == v


def test_bitvector_from_positions():
    v = BitVector.from_positions(8, [0, 3, 7])
    assert v.value == 0b10001001
    with pytest.raises(IndexError):
        BitVector.from_positions(8, [8])


def test_bitvector_array_roundtrip():
    rng = np.random.default_rng(5)
    for n in [0, 1, 7, 8, 9, 64, 200]:
        v = BitVector.random(n, rng)
        arr = v.bits()
        assert list(arr) == [v[i] for i in range(n)]
        assert BitVector.from_array(arr) == v


@settings(deadline=None, database=None)
@given(st.integers(0, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
def test_bits_cache_is_read_only_and_invisible(nv):
    n, value = nv
    plain = BitVector(n, value)  # holds no cache
    unpacked = BitVector(n, value)
    cached = unpacked.bits()  # fills the cache from the value
    built = BitVector.from_array(cached)  # keeps its own copy
    assert unpacked.bits() is cached
    for v in (unpacked, built):
        assert not v.bits().flags.writeable
        with pytest.raises(ValueError):
            v.bits()[:] = 1
        assert list(v.bits()) == [(value >> i) & 1 for i in range(n)]
    for v in (unpacked, built):
        assert v == plain and plain == v
        assert hash(v) == hash(plain)
        assert v.to_hex() == plain.to_hex()
        assert render_payload(v) == render_payload(plain)
    for v in (plain, unpacked, built):
        arr = v.bits().copy()
        assert arr.flags.writeable and arr.dtype == np.uint8
        arr ^= 1  # a writable copy changes neither the vector nor its cache
        assert v.value == value
        assert list(v.bits()) == [(value >> i) & 1 for i in range(n)]


@settings(deadline=None, database=None, max_examples=200)
@given(
    st.integers(0, 300).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, 2**32 - 1))
    )
)
def test_lazy_and_packed_vectors_agree(case):
    # A from_array vector holds only its bits until its int is read; every
    # form it gives must be the one the int-built vector gives, both while
    # its int is unread (the bytes then come from the bits) and once it is.
    n, value, seed = case
    packed = BitVector(n, value)
    arr = np.array([(value >> i) & 1 for i in range(n)], np.uint8)
    m = random_matrix(5, n, np.random.default_rng(seed))
    product = matvec(m, packed)
    for value_first in (False, True):
        lazy = BitVector.from_array(arr)
        if value_first:
            assert lazy.value == value
        assert list(lazy.bits()) == list(packed.bits())
        assert lazy.to_bytes_msb() == packed.to_bytes_msb() == pack_bits_msb(value, n)
        assert lazy.to_hex() == packed.to_hex()
        assert render_payload(lazy) == render_payload(packed)
        assert matvec(m, lazy).to_bytes_msb() == product.to_bytes_msb()
        assert (lazy._value is None) is not value_first  # nothing above packed it
        assert lazy.value == value
        assert lazy == packed and packed == lazy
        assert hash(lazy) == hash(packed)
        assert lazy.popcount() == packed.popcount() == value.bit_count()
        assert [lazy[i] for i in range(n)] == [packed[i] for i in range(n)]
        for k in sorted({0, n // 3, n}):
            assert lazy.first(k) == packed.first(k) and lazy.last(k) == packed.last(k)
        assert matvec(m, lazy) == product


def test_from_array_copies_its_input():
    arr = np.array([1, 0, 1, 1, 0], np.uint8)
    v = BitVector.from_array(arr)
    arr[:] = 0
    assert v == BitVector(5, 0b01101)
    assert list(v.bits()) == [1, 0, 1, 1, 0]
    assert arr.flags.writeable  # the caller's array is left writable
    # Bool input, and nonzero entries other than 1, read as ones.
    assert BitVector.from_array(np.array([True, False, True])) == BitVector(3, 0b101)
    odd = BitVector.from_array(np.array([2, 0, 255], np.uint8))
    assert odd == BitVector(3, 0b101)
    assert list(odd.bits()) == [1, 0, 1]


# ---------------------------------------------------------- serialization


def test_hex_format_msb_first():
    # bits 1011 0010 1110 pack MSB-first to 0xb2e0 with 4 pad bits
    v = vec(1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0)
    assert v.to_hex() == "12:b2e0"
    assert read_hex("12:b2e0") == v
    assert BitVector(0, 0).to_hex() == "0:"
    assert read_hex("0:") == BitVector(0, 0)


def test_pack_unpack_roundtrip_many_lengths():
    rng = np.random.default_rng(11)
    for n in [0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 250]:
        for _ in range(20):
            v = BitVector.random(n, rng)
            data = pack_bits_msb(v.value, n)
            assert len(data) == (n + 7) // 8
            assert BitVector.from_array(unpack_msb(data, n)) == v


def test_matrix_hex_roundtrip():
    rng = np.random.default_rng(12)
    m = random_matrix(5, 19, rng)
    lines = m.to_hex_lines()
    assert lines[0] == "5x19"
    assert BitMatrix([read_hex(line).value for line in lines[1:]], 19) == m


# ----------------------------------------------------------------- matvec


def test_matvec_fixed_seed_frozen_values():
    # Generated with seed 42; expected output computed by the bit-loop oracle
    # and checked by hand against the row parities.
    rng = np.random.default_rng(42)
    m = random_matrix(3, 4, rng)
    v = BitVector.random(4, rng)
    assert row_ints(m) == (8, 6, 9)
    assert v.value == 13
    out = matvec(m, v)
    assert [out[i] for i in range(3)] == [1, 1, 0]
    assert oracle_matvec_bitloop(m, v) == [1, 1, 0]
    assert oracle_matvec_numpy(m, v) == [1, 1, 0]


def test_matvec_dimension_mismatch():
    m = BitMatrix.zeros(3, 4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        matvec(m, BitVector(5, 0))


def exhaustive_shapes(max_cells: int = 9, max_dim: int = 4):
    for rows in range(1, max_dim + 1):
        for cols in range(1, max_dim + 1):
            if rows * cols <= max_cells:
                yield rows, cols


def test_matvec_exhaustive_small_matrices():
    # Every matrix and every vector for all shapes with at most 9 cells.
    for rows, cols in exhaustive_shapes():
        for mbits in range(1 << (rows * cols)):
            values = [(mbits >> (i * cols)) & ((1 << cols) - 1) for i in range(rows)]
            m = BitMatrix(values, cols)
            for vbits in range(1 << cols):
                v = BitVector(cols, vbits)
                got = matvec(m, v)
                assert [got[i] for i in range(rows)] == oracle_matvec_bitloop(m, v)


def test_matvec_exhaustive_rows_up_to_width_8():
    # matvec output bit i depends only on row i, so checking every
    # (row, vector) pair at each width covers all matrices of that width.
    for cols in range(0, 9):
        for rbits in range(1 << cols):
            m = BitMatrix([rbits], cols)
            for vbits in range(1 << cols):
                expected = (rbits & vbits).bit_count() & 1
                assert matvec(m, BitVector(cols, vbits)).value == expected


def test_matvec_random_large_against_numpy_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        rows = int(rng.integers(1, 96))
        cols = int(rng.integers(1, 600))
        m = random_matrix(rows, cols, rng)
        v = BitVector.random(cols, rng)
        got = matvec(m, v)
        assert [got[i] for i in range(rows)] == oracle_matvec_numpy(m, v)


def test_matvec_linearity_property():
    # m(v xor w) == m(v) xor m(w) across random shapes.
    rng = np.random.default_rng(77)
    for _ in range(1000):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 120))
        m = random_matrix(rows, cols, rng)
        v = BitVector.random(cols, rng)
        w = BitVector.random(cols, rng)
        assert matvec(m, v ^ w) == matvec(m, v) ^ matvec(m, w)


def test_matvec_row_locality():
    rng = np.random.default_rng(88)
    for _ in range(200):
        rows = int(rng.integers(2, 30))
        cols = int(rng.integers(1, 80))
        m = random_matrix(rows, cols, rng)
        i = int(rng.integers(0, rows))
        m2 = replace_rows(m, i, random_rows(1, cols, rng))
        v = BitVector.random(cols, rng)
        a, b = matvec(m, v), matvec(m2, v)
        for k in range(rows):
            if k != i:
                assert a[k] == b[k]


# ------------------------------------------------------------- generation


def test_random_matrix_deterministic_per_seed():
    a = random_matrix(64, 256, np.random.default_rng(7))
    b = random_matrix(64, 256, np.random.default_rng(7))
    c = random_matrix(64, 256, np.random.default_rng(8))
    assert a == b
    assert a != c


def test_random_matrix_density_near_half():
    m = random_matrix(64, 256, np.random.default_rng(7))
    ones = sum(r.bit_count() for r in row_ints(m))
    assert 0.47 <= ones / (64 * 256) <= 0.53


def test_random_matrix_rows_canonical():
    m = random_matrix(10, 13, np.random.default_rng(9))
    for r in row_ints(m):
        assert r >> 13 == 0


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 17, 25, 33, 40, 3537, 3544, 3545, 3600, 3608])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 128])
def test_random_vectors_match_separate_draws(n, count):
    # random_rows' one draw gives the row vectors and the end state of count
    # separate draws, also when the generator starts with half a 64-bit
    # output buffered.
    for buffered in (False, True):
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        if buffered:  # one uint32 drawn, the other half of its output kept
            a.bytes(4), b.bytes(4)
        expected = [BitVector.random(n, a).value for _ in range(count)]
        block = random_rows(count, n, b)
        assert (block.rows, block.cols) == (count, n)
        assert row_ints(block) == tuple(expected)
        assert a.bit_generator.state == b.bit_generator.state


# ------------------------------------------------------------ replace_rows


def test_replace_rows_zero_generator_full_range():
    m = random_matrix(8, 16, np.random.default_rng(1))
    z = replace_rows(m, 0, BitMatrix.zeros(8, 16))
    assert z == BitMatrix.zeros(8, 16)


def test_replace_rows_preserves_tail_and_randomizes_head():
    m = random_matrix(256, 512, np.random.default_rng(3))
    rng = np.random.default_rng(99)
    m2 = replace_rows(m, 0, random_rows(128, 512, rng))
    rows, rows2 = row_ints(m), row_ints(m2)
    assert rows2[128:] == rows[128:]
    diff = sum((rows[i] ^ rows2[i]).bit_count() for i in range(128))
    # replaced region should differ from the original in about half its entries
    assert 0.47 <= diff / (128 * 512) <= 0.53


def test_replace_rows_interval_out_of_range():
    m = BitMatrix.zeros(4, 4)
    with pytest.raises(ValueError, match="out of range"):
        replace_rows(m, 0, BitMatrix.zeros(5, 4))
    with pytest.raises(ValueError, match="out of range"):
        replace_rows(m, 3, BitMatrix.zeros(2, 4))
    with pytest.raises(ValueError, match="out of range"):
        replace_rows(m, -1, BitMatrix.zeros(1, 4))
    with pytest.raises(ValueError, match="length mismatch"):
        replace_rows(m, 0, BitMatrix.zeros(1, 5))


# -------------------------------------------------------------- flip_entry


def test_flip_entry_is_involution_and_local():
    rng = np.random.default_rng(4)
    m = random_matrix(6, 10, rng)
    m2 = flip_entry(m, 2, 7)
    assert bit_at(m2, 2, 7) == 1 - bit_at(m, 2, 7)
    assert flip_entry(m2, 2, 7) == m
    for i, j in itertools.product(range(6), range(10)):
        if (i, j) != (2, 7):
            assert bit_at(m2, i, j) == bit_at(m, i, j)


def test_flip_entry_bounds():
    m = BitMatrix.zeros(3, 4)
    with pytest.raises(IndexError):
        flip_entry(m, 3, 0)
    with pytest.raises(IndexError):
        flip_entry(m, 0, 4)


def test_flip_entry_matvec_semantics_exhaustive():
    # Flipping (i, j) perturbs output bit i exactly when v[j] == 1,
    # exhaustively over every vector of length up to 8.
    rng = np.random.default_rng(6)
    for cols in range(1, 9):
        m = random_matrix(3, cols, rng)
        i = 1
        for j in range(cols):
            m2 = flip_entry(m, i, j)
            for vbits in range(1 << cols):
                v = BitVector(cols, vbits)
                a, b = matvec(m, v), matvec(m2, v)
                assert (a[i] != b[i]) == (v[j] == 1)
                assert a[0] == b[0] and a[2] == b[2]
