"""Property tests for the byte-backed GF(2) matrix kernels and the digest check.

Each kernel is checked against a plain-int reference built from the row
values alone, across column counts on both sides of the byte and 64-bit
word boundaries and matrices with no rows. matvec is also checked on
shapes that span several of its row blocks, with a short last block, and
on rows wider than a whole block. from_packed_rows is checked to
drop set pad bits and never to alias the caller's buffer. rng_bytes is
checked against Generator.bytes itself: same bytes and same generator
state afterwards, from fresh generators and from ones holding a buffered
half-word; the top bits of its bytes against Generator.integers(0, 2),
the fair bits the source draws. The hex formats are checked to
round-trip through the independent reader in oracles. The last test
checks that verify accepts a tag exactly when its MAC holds and its
digest equals the checking party's log digest.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_matvec_bitloop, oracle_matvec_numpy, read_hex, row_ints
from qkdsim.gf2 import (
    MATVEC_BLOCK_BYTES,
    BitMatrix,
    BitVector,
    flip_entry,
    matvec,
    pack_bits_msb,
    random_matrix,
    replace_rows,
    rng_bytes,
)
from qkdsim.hardening import derive_matrix
from qkdsim.pipeline import AuthTag, ProtocolLogExtract, authenticate, log_digest, verify

COLS = (1, 7, 8, 63, 64, 65, 200)
props = settings(deadline=None, database=None)


@st.composite
def matrices(draw, min_rows=0, max_rows=6):
    """(row values, cols) for a matrix of up to max_rows rows."""
    cols = draw(st.sampled_from(COLS))
    rows = draw(st.integers(min_rows, max_rows))
    values = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return values, cols


def row_vectors(cols):
    return st.integers(0, (1 << cols) - 1).map(lambda x: BitVector(cols, x))


@props
@given(matrices(), st.data())
def test_matvec_matches_int_reference_and_oracles(mc, data):
    values, cols = mc
    m = BitMatrix(values, cols)
    v = data.draw(row_vectors(cols))
    got = matvec(m, v)
    expected = [(r & v.value).bit_count() & 1 for r in values]
    assert got == BitVector(len(values), sum(b << i for i, b in enumerate(expected)))
    if values:
        assert oracle_matvec_bitloop(m, v) == expected
        assert oracle_matvec_numpy(m, v) == expected


# (rows, row bytes, pad bits in the last byte) of matrices that span
# several matvec row blocks: three rows to a block with a short last block
# of two, three rows to a block with no short block, rows one byte wider
# than a whole block (a block each), and empty shapes.
BLOCK = MATVEC_BLOCK_BYTES
BLOCK_SHAPES = [
    (8, BLOCK // 4 + 1, 7),
    (6, BLOCK // 4 + 1, 0),
    (2, BLOCK + 1, 3),
    (1, BLOCK + 1, 5),
    (0, BLOCK + 1, 0),
    (0, 3, 2),
    (5, 0, 0),
    (0, 0, 0),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("rows,nbytes,pad", BLOCK_SHAPES)
def test_matvec_across_row_blocks_matches_int_reference_and_oracle(rows, nbytes, pad, seed):
    cols = max(0, 8 * nbytes - pad)
    rng = np.random.default_rng(seed)
    m = random_matrix(rows, cols, rng)
    v = BitVector.random(cols, rng)
    expected = [(r & v.value).bit_count() & 1 for r in row_ints(m)]
    assert matvec(m, v) == BitVector(rows, sum(b << i for i, b in enumerate(expected)))
    if rows:
        assert oracle_matvec_numpy(m, v) == expected


@props
@given(matrices())
def test_to_bytes_msb_matches_per_row_packing(mc):
    values, cols = mc
    m = BitMatrix(values, cols)
    assert m.to_bytes_msb() == b"".join(pack_bits_msb(r, cols) for r in values)


@props
@given(matrices())
def test_row_values_round_trip_through_words(mc):
    values, cols = mc
    m = BitMatrix(values, cols)
    assert row_ints(m) == tuple(values)
    nbytes = (cols + 7) // 8
    packed = b"".join(r.to_bytes(nbytes, "little") for r in values)
    rebuilt = BitMatrix.from_packed_rows(packed, len(values), cols)
    assert row_ints(rebuilt) == tuple(values)
    assert rebuilt == m
    assert hash(rebuilt) == hash(m)
    # The same rows with every pad bit of each row's last byte set, as bytes
    # and as a writable array the caller keeps writing to afterwards.
    pad = 0xFF & ~((1 << (cols % 8)) - 1) if cols % 8 else 0
    dirty = np.frombuffer(packed, np.uint8).reshape(len(values), nbytes).copy()
    dirty[:, -1] |= pad
    for data in (dirty.tobytes(), dirty.reshape(-1)):
        from_dirty = BitMatrix.from_packed_rows(data, len(values), cols)
        assert row_ints(from_dirty) == tuple(values)
        assert from_dirty == m
    dirty[:] ^= 0xFF
    assert row_ints(from_dirty) == tuple(values)


@props
@given(matrices(), st.data())
def test_equality_and_hash_follow_the_rows(mc, data):
    values, cols = mc
    m = BitMatrix(values, cols)
    assert m == BitMatrix(list(values), cols)
    assert hash(m) == hash(BitMatrix(list(values), cols))
    assert m != BitMatrix(values, cols + 1)
    if values:
        i = data.draw(st.integers(0, len(values) - 1))
        j = data.draw(st.integers(0, cols - 1))
        changed = list(values)
        changed[i] ^= 1 << j
        assert m != BitMatrix(changed, cols)


@props
@given(matrices(min_rows=1), st.data())
def test_flip_entry_matches_int_reference(mc, data):
    values, cols = mc
    m = BitMatrix(values, cols)
    i = data.draw(st.integers(0, len(values) - 1))
    j = data.draw(st.integers(0, cols - 1))
    expected = list(values)
    expected[i] ^= 1 << j
    assert row_ints(flip_entry(m, i, j)) == tuple(expected)
    assert row_ints(m) == tuple(values)  # the input is left unchanged


@props
@given(matrices(min_rows=1), st.data())
def test_replace_rows_with_one_row_matches_int_reference(mc, data):
    """A one-row block at any row, as extract-bits writes."""
    values, cols = mc
    m = BitMatrix(values, cols)
    i = data.draw(st.integers(0, len(values) - 1))
    row = data.draw(row_vectors(cols))
    expected = list(values)
    expected[i] = row.value
    assert row_ints(replace_rows(m, i, BitMatrix([row.value], cols))) == tuple(expected)
    assert row_ints(m) == tuple(values)  # the input is left unchanged


@props
@given(matrices(), st.data())
def test_replace_rows_matches_int_reference(mc, data):
    values, cols = mc
    m = BitMatrix(values, cols)
    start = data.draw(st.integers(0, len(values)))
    stop = data.draw(st.integers(start, len(values)))
    fresh = data.draw(st.lists(row_vectors(cols), min_size=stop - start, max_size=stop - start))
    expected = values[:start] + [r.value for r in fresh] + values[stop:]
    block = BitMatrix([r.value for r in fresh], cols)
    assert row_ints(replace_rows(m, start, block)) == tuple(expected)
    assert row_ints(m) == tuple(values)  # the input is left unchanged


def generator(seed: int, earlier: list[int], buffered: bool) -> np.random.Generator:
    """A PCG64 generator after the earlier byte draws, with or without a
    buffered half-word (a one-word draw toggles the buffer)."""
    rng = np.random.default_rng(seed)
    for n in earlier:
        rng.bytes(n)
    if rng.bit_generator.state["has_uint32"] != buffered:
        rng.bytes(4)
    assert rng.bit_generator.state["has_uint32"] == buffered
    return rng


def assert_rng_bytes_matches_generator_bytes(rng: np.random.Generator, n: int) -> None:
    ref = np.random.Generator(np.random.PCG64(0))
    ref.bit_generator.state = rng.bit_generator.state
    got = rng_bytes(rng, n)
    assert got.dtype == np.uint8 and got.shape == (n,)
    assert got.tobytes() == ref.bytes(n)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.bytes(13) == ref.bytes(13)
    assert rng.random() == ref.random()


@settings(deadline=None, database=None, max_examples=300)
@given(
    st.one_of(st.integers(0, 8), st.integers(0, 5000)),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 40), max_size=3),
    st.booleans(),
)
def test_rng_bytes_equals_generator_bytes(n, seed, earlier, buffered):
    assert_rng_bytes_matches_generator_bytes(generator(seed, earlier, buffered), n)


def test_rng_bytes_equals_generator_bytes_on_a_large_key_matrix():
    # A 256 x 57,340-bit amplification matrix, drawn with a half-word
    # buffered as it is in every session.
    assert_rng_bytes_matches_generator_bytes(generator(11, [3], True), 256 * 7168)


def assert_top_bits_match_generator_integers(rng: np.random.Generator, n: int) -> None:
    ref = np.random.Generator(np.random.PCG64(0))
    ref.bit_generator.state = rng.bit_generator.state
    got = rng_bytes(rng, n) >> 7
    assert got.dtype == np.uint8
    assert np.array_equal(got, ref.integers(0, 2, n, dtype=np.uint8))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rng.random() == ref.random()


# n starts at 1: Generator.integers draws nothing for n = 0, where
# rng_bytes, like Generator.bytes, still takes a word. The source draws
# n_raw >= 1 bits.
@settings(deadline=None, database=None, max_examples=300)
@given(
    st.one_of(st.integers(1, 8), st.integers(1, 5000)),
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(0, 40), max_size=3),
    st.booleans(),
)
def test_top_bits_of_rng_bytes_equal_generator_integers(n, seed, earlier, buffered):
    assert_top_bits_match_generator_integers(generator(seed, earlier, buffered), n)


@pytest.mark.parametrize("buffered", [False, True])
def test_top_bits_of_rng_bytes_equal_generator_integers_at_large_n_raw(buffered):
    assert_top_bits_match_generator_integers(generator(13, [3], buffered), 131072)


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
def test_rng_bytes_rejects_other_bit_generators(bit_generator):
    with pytest.raises(TypeError, match="PCG64"):
        rng_bytes(np.random.Generator(bit_generator(0)), 8)


@props
@given(st.integers(0, 6), st.sampled_from(COLS), st.integers(0, 2**32 - 1), st.booleans())
def test_random_matrix_reads_one_block_of_rng_bytes(rows, cols, seed, buffered):
    rng = generator(seed, [], buffered)
    m = random_matrix(rows, cols, rng)
    ref = generator(seed, [], buffered)
    nbytes = (cols + 7) // 8
    if rows:
        buf = ref.bytes(rows * nbytes)
    else:
        buf = b""  # an empty matrix draws nothing
    expected = tuple(
        int.from_bytes(buf[i * nbytes : (i + 1) * nbytes], "little") & ((1 << cols) - 1)
        for i in range(rows)
    )
    assert row_ints(m) == expected
    assert rng.bytes(16) == ref.bytes(16)


@props
@given(st.sampled_from(range(0, 201)).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))
))
def test_bit_vector_hex_round_trips(nv):
    n, value = nv
    v = BitVector(n, value)
    text = v.to_hex()
    assert text == f"{n}:{pack_bits_msb(value, n).hex()}"
    assert read_hex(text) == v


@props
@given(matrices())
def test_matrix_hex_lines_round_trip(mc):
    values, cols = mc
    m = BitMatrix(values, cols)
    lines = m.to_hex_lines()
    assert lines == [f"{len(values)}x{cols}"] + [BitVector(cols, r).to_hex() for r in values]
    assert BitMatrix([read_hex(line).value for line in lines[1:]], cols) == m


@props
@given(st.integers(0, 6), st.sampled_from(COLS), st.binary(min_size=1, max_size=40))
def test_derive_matrix_reads_a_prefix_of_the_shake_stream(rows, cols, secret):
    nbytes = (cols + 7) // 8
    h = hashlib.shake_256()
    h.update(b"qkdsim.derive-matrix|")
    h.update(struct.pack(">III", len(secret), rows, cols))
    h.update(secret)
    stream = h.digest(rows * nbytes + 16)
    expected = tuple(
        int.from_bytes(stream[i * nbytes : (i + 1) * nbytes], "little") & ((1 << cols) - 1)
        for i in range(rows)
    )
    assert row_ints(derive_matrix(secret, rows, cols)) == expected


logs = st.builds(
    ProtocolLogExtract,
    sifted_bases=st.integers(0, 255).map(lambda x: BitVector(8, x)),
    est_positions=st.lists(st.integers(0, 2**32 - 1), max_size=4).map(tuple),
    est_rate=st.fractions(min_value=0, max_value=1, max_denominator=64),
    corrected_positions=st.lists(st.integers(0, 2**32 - 1), max_size=4).map(tuple),
    key_tail=st.integers(0, 2**16 - 1).map(lambda x: BitVector(16, x)),
)


@props
@given(logs, logs, st.sampled_from((1, 8, 13, 128, 256)), st.integers(0, 31), st.booleans())
def test_verify_agrees_with_digest_check(log, other, width, byte, in_mac):
    key = b"k" * 32
    digest = log_digest(log, width)
    tag = authenticate(digest, key)
    if in_mac:
        forged = AuthTag(tag.digest, tag.mac[:byte] + bytes([tag.mac[byte] ^ 1]) + tag.mac[byte + 1 :])
    else:
        at = byte % len(tag.digest)
        forged = AuthTag(
            tag.digest[:at] + bytes([tag.digest[at] ^ 0x80]) + tag.digest[at + 1 :], tag.mac
        )
    other_digest = log_digest(other, width)
    assert verify(digest, tag, key)  # honest
    assert not verify(digest, forged, key)  # tampered tag
    assert verify(other_digest, tag, key) == (other_digest == tag.digest)  # tampered log
