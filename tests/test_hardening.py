"""Tests for the two hardened protocol variants."""

from __future__ import annotations

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.hardening import (
    HardeningKind,
    derive_matrix,
    embed_matrix_in_log,
)
from qkdsim.gf2 import BitMatrix
from qkdsim.pipeline import (
    SessionParams,
    Verdict,
    build_log_extract,
    run_session,
    serialize_log,
)

from oracles import row_ints


def test_mode_parse():
    assert HardeningKind("baseline") is HardeningKind.BASELINE
    assert HardeningKind("matrix_in_log") is HardeningKind.MATRIX_IN_LOG
    assert HardeningKind("derived_matrix") is HardeningKind.DERIVED_MATRIX
    with pytest.raises(ValueError, match="tinfoil"):
        HardeningKind("tinfoil")


def test_embed_matrix_in_log_returns_a_copy_with_the_matrix():
    result = run_session(SessionParams(n_raw=1024), 1)
    log = build_log_extract(result.alice.state)
    m = result.alice.state.pa_matrix
    embedded = embed_matrix_in_log(log, m)
    assert embedded.matrix_included == m
    assert log.matrix_included is None  # original untouched


def test_matrix_in_log_changes_serialization():
    mode = HardeningKind.MATRIX_IN_LOG
    result = run_session(SessionParams(n_raw=1024), 2, hardening=mode)
    log_a = build_log_extract(result.alice.state, mode)
    log_b = build_log_extract(result.bob.state, mode)
    assert log_a.matrix_included is not None
    assert serialize_log(log_a) == serialize_log(log_b)
    bare = build_log_extract(result.alice.state)
    assert serialize_log(bare) != serialize_log(log_a)
    assert result.alice.verdict is Verdict.ACCEPT
    assert result.bob.verdict is Verdict.ACCEPT


def test_derive_matrix_deterministic():
    a = derive_matrix(b"shared secret", 32, 101)
    b = derive_matrix(b"shared secret", 32, 101)
    assert a == b
    assert a.rows == 32 and a.cols == 101
    assert a != derive_matrix(b"other secret", 32, 101)
    assert a != derive_matrix(b"shared secret", 32, 102)
    for r in row_ints(a):
        assert r >> 101 == 0


@settings(deadline=None, database=None)
@given(
    st.binary(min_size=1, max_size=40),
    st.integers(1, 6),
    st.integers(64, 200),
    st.data(),
)
def test_derive_matrix_is_deterministic_and_depends_on_every_input(secret, rows, cols, data):
    # Every matrix compared has at least 64 entries, so a chance match of
    # independent matrices has probability at most 2^-64.
    m = derive_matrix(secret, rows, cols)
    assert m == derive_matrix(secret, rows, cols)
    bit = data.draw(st.integers(0, 8 * len(secret) - 1))
    flipped = bytearray(secret)
    flipped[bit // 8] ^= 1 << bit % 8
    assert derive_matrix(bytes(flipped), rows, cols) != m
    assert derive_matrix(secret + b"\0", rows, cols) != m
    # The dimensions are hashed too: a matrix of other dimensions shares
    # no prefix of rows or columns with m.
    assert row_ints(derive_matrix(secret, rows + 1, cols))[:rows] != row_ints(m)
    mask = (1 << cols) - 1
    wider = row_ints(derive_matrix(secret, rows, cols + 1))
    assert tuple(r & mask for r in wider) != row_ints(m)


def test_derive_matrix_expands_the_documented_shake_stream():
    # SHAKE-256 over the domain tag, the secret's length, rows and cols (big-endian
    # u32 each) and the secret; row i is the i-th run of ceil(cols / 8) bytes, LSB first.
    secret, rows, cols = b"shared secret", 5, 37
    nbytes = (cols + 7) // 8
    header = b"qkdsim.derive-matrix|" + struct.pack(">III", len(secret), rows, cols)
    stream = hashlib.shake_256(header + secret).digest(rows * nbytes)
    expected = tuple(
        int.from_bytes(stream[i * nbytes : (i + 1) * nbytes], "little") & ((1 << cols) - 1)
        for i in range(rows)
    )
    assert row_ints(derive_matrix(secret, rows, cols)) == expected


def test_derive_matrix_avalanche_on_secret_bit():
    secret = bytearray(b"0123456789abcdef")
    a = derive_matrix(bytes(secret), 64, 512)
    secret[0] ^= 1
    b = derive_matrix(bytes(secret), 64, 512)
    diff = sum((x ^ y).bit_count() for x, y in zip(row_ints(a), row_ints(b)))
    assert 0.45 <= diff / (64 * 512) <= 0.55


def test_derive_matrix_empty_secret():
    with pytest.raises(ValueError, match="empty shared secret"):
        derive_matrix(b"", 8, 8)


def test_derive_matrix_edge_dimensions():
    assert derive_matrix(b"s", 0, 16) == BitMatrix.zeros(0, 16)
    z = derive_matrix(b"s", 4, 0)
    assert z.rows == 4 and z.cols == 0
    with pytest.raises(ValueError):
        derive_matrix(b"s", -1, 4)
