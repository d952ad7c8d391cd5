"""Tests for the post-processing pipeline stages and session driver."""

from __future__ import annotations

import array
import dataclasses
import hashlib
import hmac
import json
import struct
from collections import UserString, deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim.channel import (
    A_TO_B,
    B_TO_A,
    AttackStrategy,
    Channel,
    Frame,
    FrameType,
)
from qkdsim.gf2 import BitMatrix, BitVector, flip_entry, matvec, random_matrix
from qkdsim.hardening import HardeningKind
from qkdsim.pipeline import (
    AuthTag,
    PartyState,
    Positions,
    ProtocolError,
    ProtocolLogExtract,
    SessionParams,
    Verdict,
    authenticate,
    build_log_extract,
    estimate_error,
    log_digest,
    mac_digest,
    pos_field,
    privacy_amplify,
    reconcile,
    run_session,
    serialize_log,
    session_auth_key,
    sift,
    source_correlated,
    truncate_digest,
    verify,
)
from qkdsim.scenarios import BUILTIN_SCENARIOS, render_payload, run_trial
from qkdsim.seeding import make_rng

from oracles import (
    oracle_estimate_error,
    oracle_reconcile,
    oracle_sift,
    oracle_source_correlated,
    read_hex,
    unpack_msb,
)


def make_params(**kw) -> SessionParams:
    return SessionParams(**kw)


def render_transcript(result) -> list:
    """Each transcript entry rendered whole: direction, frame and tampered flag."""
    return [render_payload(e) for e in result.channel.transcript]


def make_states(n_raw=2048, qber=0.03, seed=1, **kw):
    params = make_params(n_raw=n_raw, qber=qber, **kw)
    rng = make_rng(seed, "test")
    alice, bob = source_correlated(params, rng)
    return params, rng, alice, bob


# ----------------------------------------------------------------- params


def test_params_validation():
    with pytest.raises(ValueError):
        make_params(qber=1.5)
    with pytest.raises(ValueError):
        make_params(qber=-0.1)
    with pytest.raises(ValueError):
        make_params(sample_fraction=0.0)
    with pytest.raises(ValueError):
        make_params(sample_fraction=1.0)
    with pytest.raises(ValueError):
        make_params(key_len=128, tail_len=128)
    with pytest.raises(ValueError):
        make_params(hash_width=0)
    with pytest.raises(ValueError):
        make_params(n_raw=0)


# ----------------------------------------------------------------- source


def test_source_qber_zero_matched_positions_agree():
    params = make_params(n_raw=4096, qber=0.0)
    alice, bob = source_correlated(params, make_rng(3, "t"))
    matched = alice.bases.bits() == bob.bases.bits()
    a, b = alice.raw_bits.bits(), bob.raw_bits.bits()
    assert (a[matched] == b[matched]).all()


def test_source_mismatch_rate_tracks_qber():
    params = make_params(n_raw=20000, qber=0.05)
    alice, bob = source_correlated(params, make_rng(4, "t"))
    matched = alice.bases.bits() == bob.bases.bits()
    a, b = alice.raw_bits.bits(), bob.raw_bits.bits()
    rate = (a[matched] != b[matched]).mean()
    assert 0.04 <= rate <= 0.06


def test_default_session_packs_no_front_end_int():
    # The front end's vectors are read only as bits or as bytes, so a whole
    # default session never packs their ints; a stage that starts reading
    # .value on the hot path fails here.
    result = run_session(make_params(), 1)
    alice, bob = result.alice.state, result.bob.state
    assert result.alice.verdict is result.bob.verdict is Verdict.ACCEPT
    for state in (alice, bob):
        for v in (state.raw_bits, state.bases, state.sifted, state.sifted_bases):
            assert v._value is None


@pytest.mark.parametrize("bases_tampered", [False, True])
@pytest.mark.parametrize("hardening", list(HardeningKind))
def test_session_vectors_hold_frozen_bits_of_zeros_and_ones(hardening, bases_tampered):
    # The stages wrap the arrays they build without a copy; every vector of
    # a session must still give a read-only uint8 bits() of 0s and 1s that
    # matches its int, and every Positions the log's big-endian u32s.
    # Tampered BASES frames send each party through its own sift (and make
    # the logs differ, so both reject).
    channel = Channel(_BasesBitFlip(5) if bases_tampered else None)
    result = run_session(make_params(), 2, channel=channel, hardening=hardening)
    verdict = Verdict.REJECT if bases_tampered else Verdict.ACCEPT
    assert result.alice.verdict is result.bob.verdict is verdict
    (est_values,) = result.channel.frames(FrameType.EST_VALUES)
    vectors = [est_values.frame.payload]  # the estimation's disclosed_values
    for state in (result.alice.state, result.bob.state):
        fields = [getattr(state, f.name) for f in dataclasses.fields(state)]
        vectors += [v for v in fields if isinstance(v, BitVector)]
        for p in (state.est_positions, state.corrected_positions):
            assert p.log_field() == struct.pack(f">{len(p) + 1}I", len(p), *p)
    assert len(vectors) == 1 + 2 * 8
    for v in vectors:
        bits = v.bits()
        assert bits.dtype == np.uint8 and bits.shape == (v.n,)
        assert not bits.flags.writeable
        with pytest.raises(ValueError):
            bits[:1] = 1
        assert bits.max() <= 1
        assert np.array_equal(BitVector(v.n, v.value).bits(), bits)


# ------------------------------------------------------------------- sift


def test_sift_identical_bases_keeps_everything():
    params, rng, alice, bob = make_states()
    sift(alice, alice.bases)
    assert alice.sifted == alice.raw_bits
    assert alice.sifted_bases == alice.bases


def test_sift_complementary_bases_keeps_nothing():
    params, rng, alice, bob = make_states()
    flipped = BitVector(alice.bases.n, alice.bases.value ^ ((1 << alice.bases.n) - 1))
    sift(alice, flipped)
    assert len(alice.sifted) == 0


def test_sift_random_bases_keeps_about_half():
    params = make_params(n_raw=10000)
    alice, bob = source_correlated(params, make_rng(5, "t"))
    sift(alice, bob.bases)
    sift(bob, alice.bases)
    assert 4700 <= len(alice.sifted) <= 5300
    assert alice.sifted_bases == bob.sifted_bases  # same basis at kept positions


def test_sift_length_mismatch():
    params, rng, alice, bob = make_states()
    with pytest.raises(ValueError, match="length mismatch"):
        sift(alice, BitVector(7, 0))


def sifted_by_oracle(state: PartyState, peer_bases: BitVector) -> PartyState:
    """A fresh copy of state's raw bits and bases, sifted by the mask oracle."""
    expected = PartyState(role=state.role, raw_bits=state.raw_bits, bases=state.bases)
    oracle_sift(expected, peer_bases)
    return expected


@pytest.mark.parametrize("n_raw", [1, 7, 600])
@pytest.mark.parametrize("seed", range(4))
def test_sift_with_peer_sifts_both_parties_like_the_mask_oracle(n_raw, seed):
    params, rng, alice, bob = make_states(n_raw=n_raw, seed=seed)
    sift(alice, bob.bases, peer=bob)
    for state, peer_bases in ((alice, bob.bases), (bob, alice.bases)):
        expected = sifted_by_oracle(state, peer_bases)
        assert state.sifted == expected.sifted
        assert state.sifted_bases == expected.sifted_bases
    assert bob.sifted_bases is alice.sifted_bases


# ------------------------------------------------------------- estimation


def run_until_sift(n_raw=2048, qber=0.03, seed=1, **kw):
    params, rng, alice, bob = make_states(n_raw=n_raw, qber=qber, seed=seed, **kw)
    sift(alice, bob.bases)
    sift(bob, alice.bases)
    return params, rng, alice, bob


def test_estimate_sample_size_and_removal():
    params, rng, alice, bob = run_until_sift(seed=11)
    n = len(alice.sifted)
    est = estimate_error(alice, bob, params, rng)
    k = -(-n * 1 // 8)  # ceil(0.125 * n)
    assert len(est.positions) == k
    assert len(alice.sifted) == n - k
    assert len(bob.sifted) == n - k
    assert list(est.positions) == sorted(set(est.positions))
    assert alice.est_rate == est.rate == bob.est_rate
    # bases kept for the log are the pre-removal ones
    assert len(alice.sifted_bases) == n


def test_estimate_all_mismatch_aborts():
    params, rng, alice, bob = run_until_sift(seed=12)
    bob.sifted = BitVector(alice.sifted.n, alice.sifted.value ^ ((1 << alice.sifted.n) - 1))
    est = estimate_error(alice, bob, params, rng)
    assert est.rate == 1
    assert est.abort


@pytest.mark.parametrize("all_wrong", [False, True])
def test_estimate_rate_equal_to_the_threshold_does_not_abort(all_wrong):
    # Rate 0 at threshold 0 and rate 1 at threshold 1: only a higher rate aborts.
    threshold = 1.0 if all_wrong else 0.0
    params, rng, alice, bob = run_until_sift(qber=0.0, seed=12, abort_threshold=threshold)
    if all_wrong:
        bob.sifted = BitVector(alice.sifted.n, alice.sifted.value ^ ((1 << alice.sifted.n) - 1))
    est = estimate_error(alice, bob, params, rng)
    assert est.rate == threshold
    assert not est.abort


def test_estimate_abort_rare_at_low_qber():
    aborts = 0
    for seed in range(1000):
        params, rng, alice, bob = run_until_sift(n_raw=1024, qber=0.03, seed=seed)
        est = estimate_error(alice, bob, params, rng)
        aborts += est.abort
    assert aborts / 1000 < 0.01


def test_estimate_empty_sifted_key_rejected():
    params, rng, alice, bob = make_states()
    flipped = BitVector(alice.bases.n, alice.bases.value ^ ((1 << alice.bases.n) - 1))
    sift(alice, flipped)
    sift(bob, bob.bases)
    alice_empty = alice
    bob.sifted = BitVector(0, 0)
    with pytest.raises(ValueError, match="empty sifted key"):
        estimate_error(alice_empty, bob, params, rng)


def test_estimate_requires_sift():
    params, rng, alice, bob = make_states()
    with pytest.raises(ProtocolError, match="missing pipeline stage"):
        estimate_error(alice, bob, params, rng)


# ---------------------------------------------------------- reconciliation


def run_until_estimation(n_raw=2048, qber=0.03, seed=1, **kw):
    params, rng, alice, bob = run_until_sift(n_raw=n_raw, qber=qber, seed=seed, **kw)
    estimate_error(alice, bob, params, rng)
    return params, rng, alice, bob


def test_reconcile_makes_keys_equal_exactly():
    params, rng, alice, bob = run_until_estimation(seed=21)
    before = bob.sifted
    positions = reconcile(alice, bob)
    assert bob.reconciled == alice.reconciled == alice.sifted
    assert alice.corrected_positions == bob.corrected_positions == positions
    # exactly the differing positions are recorded as corrected
    assert list(positions) == [p for p in range(len(before)) if before[p] != alice.sifted[p]]
    assert positions


def test_reconcile_identical_keys_corrects_nothing():
    params, rng, alice, bob = run_until_estimation(qber=0.0, seed=22)
    assert reconcile(alice, bob) == []


def test_reconcile_correction_fraction_tracks_qber():
    total_corrected = 0
    total_len = 0
    for seed in range(1000):
        params, rng, alice, bob = run_until_estimation(n_raw=1024, qber=0.05, seed=seed)
        total_corrected += len(reconcile(alice, bob))
        total_len += len(alice.reconciled)
    assert 0.035 <= total_corrected / total_len <= 0.065


def test_reconcile_requires_estimation():
    params, rng, alice, bob = run_until_sift()
    with pytest.raises(ProtocolError, match="missing pipeline stage"):
        reconcile(alice, bob)


# ------------------------------------------------ front end vs mask oracle

INDEX_FRONT_END = (source_correlated, sift, estimate_error, reconcile)
MASK_FRONT_END = (oracle_source_correlated, oracle_sift, oracle_estimate_error, oracle_reconcile)


def run_front_end(stages, params, seed):
    """Source, sift both parties, estimate and reconcile on a fresh rng.

    Reconciliation runs even where estimation would abort, so that it is
    compared on high-error keys too.
    """
    source, sift_stage, estimate, reconcile_stage = stages
    rng = make_rng(seed, "front-end")
    alice, bob = source(params, rng)
    sift_stage(alice, bob.bases)
    sift_stage(bob, alice.bases)
    est = corrected = None
    if len(alice.sifted):
        est = estimate(alice, bob, params, rng)
        corrected = reconcile_stage(alice, bob)
    return alice, bob, est, corrected, rng.bit_generator.state


def assert_front_end_matches_oracle(params, seed):
    fast = run_front_end(INDEX_FRONT_END, params, seed)
    slow = run_front_end(MASK_FRONT_END, params, seed)
    for mine, theirs in zip(fast[:2], slow[:2]):
        assert mine == theirs
        # json.dumps refuses numpy integers, so positions must be Python ints
        assert json.dumps(render_payload(mine)) == json.dumps(render_payload(theirs))
    assert fast[2] == slow[2]  # EstimationResult
    assert fast[3] == slow[3]  # corrected positions
    assert fast[4] == slow[4]  # rng state afterwards


@settings(deadline=None, database=None)
@given(st.binary(min_size=32, max_size=32), st.integers(1, 256))
def test_truncate_digest_keeps_exactly_the_first_width_bits(digest, width):
    out = truncate_digest(digest, width)
    nbytes = (width + 7) // 8
    assert len(out) == nbytes
    first_bits = int.from_bytes(digest, "big") >> (256 - width)
    assert int.from_bytes(out, "big") == first_bits << (8 * nbytes - width)


@settings(deadline=None, database=None, max_examples=150)
@given(
    n_raw=st.integers(1, 600),
    qber=st.sampled_from([0.0, 0.03, 0.5, 1.0]),
    sample_fraction=st.one_of(
        st.sampled_from([1e-9, 0.001, 0.125, 0.5, 0.999, 1 - 1e-9]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
    abort_threshold=st.one_of(st.sampled_from([0.0, 0.11, 0.5, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_front_end_matches_mask_oracle(n_raw, qber, sample_fraction, abort_threshold, seed):
    params = make_params(
        n_raw=n_raw, qber=qber, sample_fraction=sample_fraction, abort_threshold=abort_threshold
    )
    assert_front_end_matches_oracle(params, seed)


def test_front_end_matches_mask_oracle_at_large_n_raw():
    assert_front_end_matches_oracle(make_params(n_raw=131072), 7)


# ------------------------------------------------------------ amplification


def run_until_reconciled(**kw):
    params, rng, alice, bob = run_until_estimation(**kw)
    reconcile(alice, bob)
    return params, rng, alice, bob


def test_privacy_amplify_splits_key():
    params, rng, alice, bob = run_until_reconciled(seed=31)
    m = random_matrix(params.key_len, len(alice.reconciled), rng)
    privacy_amplify(alice, m, params)
    assert alice.full_key == matvec(m, alice.reconciled)
    assert len(alice.final_key) == params.key_len - params.tail_len
    assert len(alice.key_tail) == params.tail_len
    assert alice.full_key.first(128) == alice.final_key
    assert alice.full_key.last(128) == alice.key_tail


def test_privacy_amplify_dimension_checks():
    params, rng, alice, bob = run_until_reconciled(seed=32)
    with pytest.raises(ValueError, match="dimension mismatch"):
        privacy_amplify(alice, random_matrix(params.key_len, 10, rng), params)
    with pytest.raises(ValueError, match="dimension mismatch"):
        privacy_amplify(alice, random_matrix(7, len(alice.reconciled), rng), params)


def test_privacy_amplify_requires_reconciliation():
    params, rng, alice, bob = run_until_estimation()
    with pytest.raises(ProtocolError, match="missing pipeline stage"):
        privacy_amplify(alice, random_matrix(params.key_len, len(alice.sifted), rng), params)


# ------------------------------------------------------------- log extract


def amplified_pair(seed=41, **kw):
    params, rng, alice, bob = run_until_reconciled(seed=seed, **kw)
    m = random_matrix(params.key_len, len(alice.reconciled), rng)
    privacy_amplify(alice, m, params)
    privacy_amplify(bob, m, params)
    return params, rng, alice, bob


def test_log_extract_fields_and_equality():
    params, rng, alice, bob = amplified_pair()
    log_a = build_log_extract(alice)
    log_b = build_log_extract(bob)
    assert len(log_a.key_tail) == params.tail_len
    assert log_a.matrix_included is None
    assert log_a == log_b
    assert serialize_log(log_a) == serialize_log(log_b)


def test_log_extract_missing_stage():
    params, rng, alice, bob = run_until_sift()
    with pytest.raises(ProtocolError, match="missing pipeline stage"):
        build_log_extract(alice)


def test_log_blind_to_non_tail_matrix_rows():
    # Altering a non-tail row changes the final key but not the log bytes.
    params, rng, alice, bob = amplified_pair(seed=42)
    log_before = serialize_log(build_log_extract(bob))
    tampered = flip_entry(bob.pa_matrix, 0, 0)
    privacy_amplify(bob, tampered, params)
    log_after = serialize_log(build_log_extract(bob))
    assert log_before == log_after
    # whereas a tail row does reach the log: flip a column whose key bit
    # is set so the tail bit actually changes
    j = next(p for p in range(len(bob.reconciled)) if bob.reconciled[p] == 1)
    tampered_tail = flip_entry(bob.pa_matrix, params.key_len - 1, j)
    privacy_amplify(bob, tampered_tail, params)
    changed = serialize_log(build_log_extract(bob))
    assert changed != log_before


def test_log_serialization_frozen_layout():
    log = ProtocolLogExtract(
        sifted_bases=BitVector(3, 0b101),
        est_positions=(1, 2),
        est_rate=Fraction(1, 3),
        corrected_positions=(0,),
        key_tail=BitVector(2, 0b11),
    )
    expected = (
        "00000003" + "a0"  # 3 bases bits, MSB-first packed
        "00000002" + "00000001" + "00000002"  # two disclosed positions
        "00000001" + "00000003"  # rate 1/3
        "00000001" + "00000000"  # one corrected position
        "00000002" + "c0"  # 2 tail bits
        "00"  # no matrix embedded
    )
    assert serialize_log(log).hex() == expected


def test_pos_field_packs_count_then_positions():
    assert pos_field(()) == bytes(4)
    assert pos_field((1, 2**32 - 1)).hex() == "00000002" "00000001" "ffffffff"
    for bad in ((-1,), (0, 2**32)):
        with pytest.raises(struct.error):
            pos_field(bad)


def test_log_serialization_with_matrix():
    log = ProtocolLogExtract(
        sifted_bases=BitVector(1, 1),
        est_positions=(),
        est_rate=Fraction(0, 1),
        corrected_positions=(),
        key_tail=BitVector(1, 0),
        matrix_included=BitMatrix([0b01, 0b10], 2),
    )
    expected = (
        "00000001" + "80"
        "00000000"
        "00000000" + "00000001"
        "00000000"
        "00000001" + "00"
        "01" + "00000002" + "00000002" + "80" + "40"  # rows 10 and 01, MSB-first
    )
    assert serialize_log(log).hex() == expected


class _LogReader:
    """Reads serialize_log's fields back, in its order, from its bytes."""

    def __init__(self, data: bytes):
        self.data, self.at = data, 0

    def take(self, n: int) -> bytes:
        assert self.at + n <= len(self.data), "field runs past the end"
        out = self.data[self.at : self.at + n]
        self.at += n
        return out

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def bits(self, n: int) -> int:
        return BitVector.from_array(unpack_msb(self.take((n + 7) // 8), n)).value

    def vec(self) -> BitVector:
        n = self.u32()
        return BitVector(n, self.bits(n))

    def positions(self) -> tuple[int, ...]:
        return tuple(self.u32() for _ in range(self.u32()))

    def matrix(self) -> BitMatrix | None:
        if self.take(1) == b"\x00":
            return None
        rows, cols = self.u32(), self.u32()
        return BitMatrix([self.bits(cols) for _ in range(rows)], cols)


def parse_log(data: bytes) -> ProtocolLogExtract:
    r = _LogReader(data)
    log = ProtocolLogExtract(
        sifted_bases=r.vec(),
        est_positions=r.positions(),
        est_rate=Fraction(r.u32(), r.u32()),
        corrected_positions=r.positions(),
        key_tail=r.vec(),
        matrix_included=r.matrix(),
    )
    assert r.at == len(data), "trailing bytes"
    return log


U32 = st.integers(0, 2**32 - 1)


def bit_vectors(max_len=70):
    return st.integers(0, max_len).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda v: BitVector(n, v))
    )


@st.composite
def log_matrices(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(1, 70))
    return BitMatrix(draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows)), cols)


@settings(deadline=None, database=None)
@given(
    bit_vectors(),
    st.lists(U32, max_size=5),
    st.fractions(min_value=0, max_denominator=2**32 - 1).filter(lambda q: q.numerator < 2**32),
    st.lists(U32, max_size=5),
    bit_vectors(),
    st.none() | log_matrices(),
)
def test_serialize_log_round_trips(bases, est, rate, corrected, tail, matrix):
    # A parser that reads the bytes back into an equal extract shows that
    # serialize_log is injective: no two extracts share a serialization,
    # whatever the field lengths.
    log = ProtocolLogExtract(bases, tuple(est), rate, tuple(corrected), tail, matrix)
    assert parse_log(serialize_log(log)) == log


# -------------------------------------------------------------- positions

U32_EDGES = st.one_of(st.sampled_from([0, 1, 2**31, 2**32 - 1]), U32)


def test_positions_cannot_be_written_in_place():
    source = np.array([5, 1, 9])
    p = Positions(source)
    source[0] = 7  # the value keeps its own copy
    assert p == [5, 1, 9]
    with pytest.raises(TypeError):
        p[0] = 2
    with pytest.raises(ValueError, match="read-only"):
        p._a[0] = 2
    with pytest.raises(ValueError):
        p._a.flags.writeable = True
    listed = p.tolist()
    listed[0] = 2
    assert p == [5, 1, 9]


@pytest.mark.parametrize("ps", [[], [0], [3, 1, 4], [2**32 - 1, 0]])
def test_positions_equal_their_sequences_both_ways(ps):
    p = Positions(np.array(ps, dtype=np.int64))
    for same in (list(ps), tuple(ps), Positions(ps), Positions(np.array(ps, dtype=np.uint32))):
        assert p == same and same == p
        assert not (p != same) and not (same != p)
    for other in (list(ps) + [1], tuple(ps[1:]) or (7,), Positions(list(ps) + [2])):
        assert p != other and other != p
    assert p != 3 and p != {*ps}
    # The tuple p stands for equals no other sequence, most of them hashed
    # unlike it, so p equals none: not strings, byte strings or ranges, nor
    # deques, array.arrays or UserStrings of the same items.
    codes = [q % 256 for q in ps]
    text = "".join(map(chr, codes))
    texts = (bytes(codes), bytearray(codes), memoryview(bytes(codes)), text, UserString(text))
    items = (deque(ps), array.array("Q", ps))
    for other in (*texts, range(len(ps)), *items):
        assert tuple(ps) != other
        assert p != other and other != p
        assert not (p == other) and not (other == p)
    assert hash(p) == hash(tuple(ps))
    cases = (
        ([1, 2], b"\x01\x02"),
        ([], ""),
        ([], UserString("")),
        ([1], bytearray(b"\x01")),
        ([0, 1], range(2)),
        ([], deque()),
        ([0, 1], array.array("I", [0, 1])),
    )
    for positions, other in cases:
        assert Positions(positions) != other and other != Positions(positions)


def test_positions_iterate_and_index_as_python_ints():
    params, rng, alice, bob = run_until_estimation(seed=23)
    corrected = reconcile(alice, bob)
    for p in (alice.est_positions, corrected):
        assert len(p) > 0
        assert {type(q) for q in p} == {int}
        assert type(p[0]) is int and type(p[-1]) is int
        assert {type(q) for q in p.tolist()} == {int}
        assert list(p) == p.tolist() == [p[i] for i in range(len(p))]


@settings(deadline=None, database=None)
@given(st.lists(U32_EDGES, max_size=40))
def test_positions_render_as_their_list(ps):
    p = Positions(np.array(ps, dtype=np.int64))
    assert json.dumps(render_payload(p)) == json.dumps(ps)
    assert hash(p) == hash(tuple(ps))


@settings(deadline=None, database=None)
@given(st.lists(U32_EDGES, max_size=40))
def test_pos_field_matches_struct_pack(ps):
    expected = struct.pack(f">{len(ps) + 1}I", len(ps), *ps)
    for given_as in (ps, tuple(ps), np.array(ps, dtype=np.int64), np.array(ps, dtype=np.uint32)):
        assert pos_field(Positions(given_as)) == expected
        assert pos_field(given_as) == expected


@pytest.mark.parametrize(
    "bad, container",
    [(b, c) for b in (-1, 2**32) for c in (list, tuple, np.array)] + [(2**64, list), (-(2**63) - 1, tuple)],
)
def test_pos_field_refuses_positions_outside_u32(bad, container):
    with pytest.raises(struct.error):
        pos_field(container([0, bad, 1]))
    with pytest.raises(struct.error):
        Positions(container([bad]))


class _PositionsVandal(AttackStrategy):
    """Try to rewrite the disclosed and corrected positions on the wire."""

    name = "positions-vandal"

    def __init__(self):
        self.refused = []

    def tamper(self, direction, frame):
        if frame.kind not in (FrameType.EST_POSITIONS, FrameType.CORRECTIONS):
            return frame
        p = frame.payload
        for target in (p, p._a):
            try:
                target[0] = 0
            except (TypeError, ValueError) as exc:
                self.refused.append(type(exc))
        p.tolist().reverse()
        return Frame(frame.kind, Positions([q + 1 for q in p]))


def test_strategy_cannot_change_recorded_positions_through_frames():
    params = make_params(n_raw=1024, qber=0.05)
    honest = run_session(params, 17)
    vandal = _PositionsVandal()
    result = run_session(params, 17, channel=Channel(vandal))
    assert vandal.refused == [TypeError, ValueError] * 2
    assert [e.frame.kind for e in result.channel.transcript if e.tampered] == [
        FrameType.EST_POSITIONS,
        FrameType.CORRECTIONS,
    ]
    assert len(honest.alice.state.corrected_positions) > 0
    for outcome, before in ((result.alice, honest.alice), (result.bob, honest.bob)):
        assert outcome.state.est_positions == before.state.est_positions
        assert outcome.state.corrected_positions == before.state.corrected_positions
        assert serialize_log(build_log_extract(outcome.state)) == serialize_log(
            build_log_extract(before.state)
        )
        assert outcome.verdict is Verdict.ACCEPT


# ----------------------------------------------------------- authentication


def small_log(tail_value: int, tail_len: int = 16) -> ProtocolLogExtract:
    return ProtocolLogExtract(
        sifted_bases=BitVector(4, 0b1010),
        est_positions=(0, 2),
        est_rate=Fraction(1, 2),
        corrected_positions=(1,),
        key_tail=BitVector(tail_len, tail_value),
    )


def test_authenticate_deterministic():
    key = b"k" * 32
    log = small_log(0x1234)
    assert authenticate(log_digest(log, 128), key) == authenticate(log_digest(log, 128), key)


@settings(deadline=None, database=None, max_examples=60)
@given(st.binary(max_size=100), st.binary(max_size=32))
def test_mac_digest_is_hmac_sha256(key, digest):
    # Keys longer than SHA-256's 64-byte block are hashed first; both forms
    # must agree there too.
    assert mac_digest(key, digest) == hmac.new(key, digest, hashlib.sha256).digest()


def test_digest_sensitive_to_single_bit():
    log1 = small_log(0x1234)
    log2 = small_log(0x1235)
    assert log_digest(log1, 128) != log_digest(log2, 128)


def test_truncate_digest_masks_partial_byte():
    d = bytes([0xFF, 0xFF, 0xFF])
    assert truncate_digest(d, 8) == bytes([0xFF])
    assert truncate_digest(d, 12) == bytes([0xFF, 0xF0])
    assert truncate_digest(d, 1) == bytes([0x80])
    assert truncate_digest(d, 16) == bytes([0xFF, 0xFF])


def test_digest_collision_rate_at_width_8():
    rng = make_rng(51, "pairs")
    collisions = 0
    trials = 10_000
    for _ in range(trials):
        a = small_log(int(rng.integers(0, 1 << 16)))
        b = small_log(int(rng.integers(0, 1 << 16)))
        if a != b and log_digest(a, 8) == log_digest(b, 8):
            collisions += 1
    assert 0.002 <= collisions / trials <= 0.006


def test_verify_accepts_valid_and_rejects_modified():
    key = b"s" * 32
    log = small_log(0xBEEF)
    digest = log_digest(log, 128)
    tag = authenticate(digest, key)
    assert verify(digest, tag, key)
    assert not verify(log_digest(small_log(0xBEEE), 128), tag, key)
    assert not verify(digest, tag, b"x" * 32)
    assert not verify(digest, AuthTag(tag.digest, b"\x00" * 32), key)


def test_verify_replays_captured_tag_on_digest_collision():
    # The MAC binds only the digest: a captured tag verifies against any
    # other log whose extract hashes to the same truncated digest.
    key = b"r" * 32
    base = small_log(0)
    tag = authenticate(log_digest(base, 8), key)
    for v in range(1, 1 << 16):
        digest = log_digest(small_log(v), 8)
        if digest == tag.digest:
            assert verify(digest, tag, key)
            return
    pytest.fail("no 8-bit collision found in 2^16 candidates")


# ---------------------------------------------------------------- sessions


def test_honest_sessions_complete_and_agree():
    for seed in range(100):
        result = run_session(make_params(n_raw=1024), seed)
        assert result.alice.verdict is Verdict.ACCEPT
        assert result.bob.verdict is Verdict.ACCEPT
        assert result.alice.state.final_key == result.bob.state.final_key
        assert result.alice.released_key == result.alice.state.final_key
        assert result.alice.state.key_tail == result.bob.state.key_tail
        # Bob may take Alice's product only because it is also his own.
        for state in (result.alice.state, result.bob.state):
            assert state.full_key == matvec(state.pa_matrix, state.reconciled)


def test_session_message_order():
    result = run_session(make_params(n_raw=1024), 7)
    kinds = [e.frame.kind for e in result.channel.transcript]
    assert kinds == [
        FrameType.BASES,
        FrameType.BASES,
        FrameType.EST_POSITIONS,
        FrameType.EST_VALUES,
        FrameType.EST_RATE,
        FrameType.CORRECTIONS,
        FrameType.PA_MATRIX,
        FrameType.AUTH_TAG_A,
        FrameType.AUTH_TAG_B,
    ]
    assert all(not e.tampered for e in result.channel.transcript)


def test_session_determinism():
    params = make_params(n_raw=1024)
    r1 = run_session(params, 99)
    r2 = run_session(params, 99)
    assert render_transcript(r1) == render_transcript(r2)
    assert r1.alice.state.final_key == r2.alice.state.final_key
    r3 = run_session(params, 100)
    assert r3.alice.state.final_key != r1.alice.state.final_key


def test_session_abort_on_high_qber():
    result = run_session(make_params(n_raw=2048, qber=0.5), 13)
    assert result.alice.verdict is Verdict.ABORT
    assert result.bob.verdict is Verdict.ABORT
    assert result.alice.released_key is None
    assert result.bob.released_key is None
    kinds = [e.frame.kind for e in result.channel.transcript]
    assert kinds[-1] is FrameType.EST_RATE  # session stops at the abort


def test_session_aborts_on_short_key():
    # 33 reconciled bits would be stretched into a 256-bit key.
    result = run_session(make_params(n_raw=64, key_len=256), 3)
    assert len(result.alice.state.reconciled) == 33
    assert result.alice.verdict is Verdict.ABORT
    assert result.bob.verdict is Verdict.ABORT
    assert result.alice.released_key is None
    assert result.bob.released_key is None
    assert result.alice.state.pa_matrix is None
    kinds = [e.frame.kind for e in result.channel.transcript]
    assert kinds[-1] is FrameType.CORRECTIONS  # session stops at the abort


class _TailRowFlip(AttackStrategy):
    """Flip a tail-row entry of the matrix in flight (detectable tamper)."""

    name = "tail-row-flip"

    def tamper(self, direction, frame):
        if frame.kind is FrameType.PA_MATRIX and direction == A_TO_B:
            m = frame.payload
            return Frame(frame.kind, flip_entry(m, m.rows - 1, 0))
        return frame


def test_release_gate_on_reject():
    # A tail-row tamper perturbs Bob's log, so verification fails and no
    # key is released, though the states still hold keys for analysis.
    for seed in range(20):
        result = run_session(make_params(n_raw=1024), seed, channel=Channel(_TailRowFlip()))
        tampered = [e for e in result.channel.transcript if e.tampered]
        assert len(tampered) == 1 and tampered[0].frame.kind is FrameType.PA_MATRIX
        if result.bob.state.reconciled[0] == 1:  # flip actually lands in the tail
            assert result.bob.verdict is Verdict.REJECT
            assert result.alice.verdict is Verdict.REJECT
            assert result.bob.released_key is None
            assert result.alice.released_key is None
        else:
            assert result.bob.verdict is Verdict.ACCEPT


def _forward_equal_copies(self, direction, frame):
    """Forward each BASES and PA_MATRIX frame with an equal copy of its payload.

    The copy goes into the frame object that was handed in, so the channel
    does not mark the frame tampered and a trial's bytes compare whole. The
    receiving party gets another object than the one sent, which makes the
    session sift and amplify for each party on its own.
    """
    payload = frame.payload
    if frame.kind is FrameType.BASES:
        object.__setattr__(frame, "payload", BitVector(payload.n, payload.value))
    elif frame.kind is FrameType.PA_MATRIX:
        copy = BitMatrix.from_packed_rows(payload.packed.tobytes(), payload.rows, payload.cols)
        object.__setattr__(frame, "payload", copy)
    return frame


def test_equal_frame_copies_take_the_per_party_path(monkeypatch):
    params = make_params(n_raw=1024)
    shared = run_session(params, 3)
    monkeypatch.setattr(AttackStrategy, "tamper", _forward_equal_copies)
    apart = run_session(params, 3)
    a, b = apart.alice.state, apart.bob.state
    assert b.sifted_bases == a.sifted_bases and b.sifted_bases is not a.sifted_bases
    assert b.pa_matrix == a.pa_matrix and b.pa_matrix is not a.pa_matrix
    assert b.full_key == a.full_key and b.full_key is not a.full_key
    assert (a, b) == (shared.alice.state, shared.bob.state)
    assert render_transcript(apart) == render_transcript(shared)


@pytest.mark.parametrize("dump_states", [False, True])
@pytest.mark.parametrize("hardening", [HardeningKind.BASELINE, HardeningKind.MATRIX_IN_LOG])
def test_per_party_path_gives_the_shared_paths_trial_bytes(monkeypatch, hardening, dump_states):
    config = dataclasses.replace(BUILTIN_SCENARIOS["baseline"], hardening=hardening)
    shared = [run_trial(config, i, dump_states).to_json() for i in range(12)]
    monkeypatch.setattr(AttackStrategy, "tamper", _forward_equal_copies)
    assert [run_trial(config, i, dump_states).to_json() for i in range(12)] == shared


class _BasesBitFlip(AttackStrategy):
    """Flip one bit of the BASES frames sent in the given directions.

    The same position flipped in both frames (the default) is kept by both
    parties or by neither, so their sifted keys keep one length and the
    session runs on.
    """

    name = "bases-bit-flip"

    def __init__(self, position: int, directions=(A_TO_B, B_TO_A)):
        self.position = position
        self.directions = directions

    def tamper(self, direction, frame):
        if frame.kind is not FrameType.BASES or direction not in self.directions:
            return frame
        v = frame.payload
        return Frame(frame.kind, BitVector(v.n, v.value ^ (1 << self.position)))


@pytest.mark.parametrize("seed", range(6))
def test_tampered_bases_frames_sift_each_party_on_its_own_mask(seed):
    params = make_params(n_raw=512)
    result = run_session(params, seed, channel=Channel(_BasesBitFlip(61 * seed % 512)))
    received = {e.direction: e.frame.payload for e in result.channel.frames(FrameType.BASES)}
    assert [e.tampered for e in result.channel.frames(FrameType.BASES)] == [True, True]
    for outcome, peer_bases in ((result.alice, received[B_TO_A]), (result.bob, received[A_TO_B])):
        state = outcome.state
        expected = sifted_by_oracle(state, peer_bases)
        assert state.sifted_bases == expected.sifted_bases
        # estimation removed the disclosed sample from the sifted key
        kept = np.delete(expected.sifted.bits(), state.est_positions.tolist())
        assert state.sifted == BitVector.from_array(kept)


@pytest.mark.parametrize("seed", range(4))
def test_one_tampered_bases_frame_aborts_before_estimation(seed):
    # Bit 0 flipped in the A->B frame alone changes whether Bob keeps
    # position 0 but not whether Alice does: their sifted keys differ by one bit.
    strategy = _BasesBitFlip(0, directions=(A_TO_B,))
    result = run_session(make_params(n_raw=1024), seed, channel=Channel(strategy))
    assert abs(len(result.alice.state.sifted) - len(result.bob.state.sifted)) == 1
    assert result.alice.verdict is Verdict.ABORT and result.bob.verdict is Verdict.ABORT
    assert result.alice.released_key is None and result.bob.released_key is None
    kinds = [e.frame.kind for e in result.channel.transcript]
    assert kinds == [FrameType.BASES, FrameType.BASES]  # no EST_* frame is sent


def test_session_derived_matrix_mode_sends_no_matrix():
    result = run_session(make_params(n_raw=1024), 5, hardening=HardeningKind.DERIVED_MATRIX)
    assert len(result.channel.frames(FrameType.PA_MATRIX)) == 0
    assert result.alice.state.pa_matrix == result.bob.state.pa_matrix
    assert result.alice.verdict is Verdict.ACCEPT
    assert result.bob.verdict is Verdict.ACCEPT


def test_party_state_json_dump_roundtrippable_fields():
    result = run_session(make_params(n_raw=1024), 3)
    d = render_payload(result.alice.state)
    assert read_hex(d["final_key"]) == result.alice.state.final_key
    assert read_hex(d["reconciled"]) == result.alice.state.reconciled
    num, den = d["est_rate"].split("/")
    assert Fraction(int(num), int(den)) == result.alice.state.est_rate
