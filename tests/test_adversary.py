"""Tests for the channel attacks and the collision replay attack."""

from __future__ import annotations

import dataclasses
import errno
import fcntl
import functools
import math
import operator
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim import adversary as adversary_mod
from qkdsim import pipeline as pipeline_mod
from qkdsim.adversary import (
    ExtractBitsStrategy,
    FlipEntryStrategy,
    RandomizeRowsStrategy,
    ZeroRowsStrategy,
    attack_collision_impersonate,
    attack_extract_bits,
    attack_flip_entry,
    attack_randomize_rows,
    attack_zero_rows,
    demo_otp_malleability,
    otp_decrypt,
    otp_encrypt,
    run_collision_impersonation,
)
from qkdsim.channel import A_TO_B, Channel, FrameType
from qkdsim.gf2 import BitMatrix, BitVector, matvec, random_matrix
from qkdsim.hardening import HardeningKind
from qkdsim.pipeline import (
    SessionParams,
    Verdict,
    exchange_reconciled_key,
    run_session,
    truncate_digest,
)
from qkdsim.scenarios import builtin_scenario
from qkdsim.seeding import derive_bytes, make_rng, trial_seed

from oracles import (
    bit_at,
    oracle_candidates,
    oracle_collision_search,
    row_ints,
    wilson_interval,
)

MATRIX_IN_LOG = HardeningKind.MATRIX_IN_LOG
DERIVED = HardeningKind.DERIVED_MATRIX


def matrix(rows=16, cols=32, seed=1) -> BitMatrix:
    return random_matrix(rows, cols, make_rng(seed, "m"))


# ------------------------------------------------------------- attack ops


def test_randomize_rows_op():
    m = matrix()
    rng = make_rng(2, "adv")
    m2 = attack_randomize_rows(m, 4, 8, rng)
    rows, rows2 = row_ints(m), row_ints(m2)
    assert rows2[4:] == rows[4:]
    assert any(rows2[i] != rows[i] for i in range(4))
    assert attack_randomize_rows(m, 0, 8, rng) == m
    with pytest.raises(ValueError):
        attack_randomize_rows(m, -1, 8, rng)
    with pytest.raises(ValueError):
        attack_randomize_rows(m, 9, 8, rng)  # would touch the tail


def test_flip_entry_op():
    m = matrix()
    m2 = attack_flip_entry(m, 3, 17, 8)
    assert bit_at(m2, 3, 17) == 1 - bit_at(m, 3, 17)
    with pytest.raises(ValueError, match="tail"):
        attack_flip_entry(m, 8, 0, 8)  # first tail row
    with pytest.raises(ValueError):
        attack_flip_entry(m, -1, 0, 8)


def test_zero_rows_op():
    m = matrix()
    m2 = attack_zero_rows(m, 8)
    assert row_ints(m2)[:8] == (0,) * 8
    assert row_ints(m2)[8:] == row_ints(m)[8:]
    with pytest.raises(ValueError, match="does not fit"):
        attack_zero_rows(m, 17)  # a tail longer than the matrix
    with pytest.raises(ValueError, match="does not fit"):
        attack_zero_rows(m, -1)


def test_extract_bits_op():
    m = matrix()
    positions = [0, 5, 9]
    m2 = attack_extract_bits(m, positions, 2, 8)
    assert isinstance(m2, BitMatrix)
    rows, rows2 = row_ints(m), row_ints(m2)
    assert [p for p in range(32) if rows2[2] >> p & 1] == [0, 5, 9]
    assert rows2[:2] + rows2[3:] == rows[:2] + rows[3:]
    with pytest.raises(ValueError, match="tail"):
        attack_extract_bits(m, positions, 8, 8)
    with pytest.raises(ValueError, match="at least one known position"):
        attack_extract_bits(m, [], 2, 8)


# --------------------------------------------------- strategies in session


def attacked_session(strategy, seed, hardening=None, n_raw=2048):
    params = SessionParams(n_raw=n_raw, master_seed=seed)
    return params, run_session(params, channel=Channel(strategy), hardening=hardening)


FRAME_STRATEGIES = {
    "randomize-rows": lambda: RandomizeRowsStrategy(r=5, tail_len=128, rng=make_rng(0, "adv")),
    "flip-entry": lambda: FlipEntryStrategy(0, 0, 128),
    "zero-rows": lambda: ZeroRowsStrategy(128),
    "extract-bits": lambda: ExtractBitsStrategy(0, 128, make_rng(0, "adv"), known_positions=[1, 2]),
}


@pytest.mark.parametrize("name", FRAME_STRATEGIES)
def test_strategy_tampers_only_the_matrix_frame(name):
    # The channel marks a frame tampered when the strategy returns another
    # object, so every unmarked frame was forwarded as the object sent.
    _, result = attacked_session(FRAME_STRATEGIES[name](), seed=1)
    transcript = result.channel.transcript
    assert len(transcript) == 9
    tampered = [e for e in transcript if e.tampered]
    assert [(e.direction, e.frame.kind) for e in tampered] == [(A_TO_B, FrameType.PA_MATRIX)]
    assert tampered[0].frame.payload != result.alice.state.pa_matrix


def test_randomize_no_rows_tampers_no_frame():
    strategy = RandomizeRowsStrategy(r=0, tail_len=128, rng=make_rng(0, "adv"))
    _, result = attacked_session(strategy, seed=1)
    assert not any(e.tampered for e in result.channel.transcript)
    assert result.bob.state.final_key == result.alice.state.final_key


def test_randomize_all_non_tail_rows_undetected_key_divergence():
    differ = accept = 0
    trials = 200
    for seed in range(trials):
        strategy = RandomizeRowsStrategy(r=128, tail_len=128, rng=make_rng(seed, "adv"))
        params, result = attacked_session(strategy, seed)
        accept += (
            result.alice.verdict is Verdict.ACCEPT and result.bob.verdict is Verdict.ACCEPT
        )
        differ += result.alice.state.final_key != result.bob.state.final_key
    assert accept == trials  # tampering is invisible to authentication
    assert differ == trials


def test_flip_entry_success_iff_reconciled_bit_set():
    # Success means Bob's key bit i differs from the same-seed honest run;
    # that happens exactly when his reconciled key is 1 at column j.
    i, j = 0, 0
    flipped = 0
    trials = 300
    for seed in range(trials):
        params = SessionParams(n_raw=2048, master_seed=seed)
        honest = run_session(params)
        attacked = run_session(params, channel=Channel(FlipEntryStrategy(i, j, 128)))
        assert attacked.alice.verdict is Verdict.ACCEPT
        assert attacked.bob.verdict is Verdict.ACCEPT
        bit_flipped = (
            attacked.bob.state.full_key[i] != honest.bob.state.full_key[i]
        )
        assert bit_flipped == (attacked.bob.state.reconciled[j] == 1)
        # the perturbation is confined to bit i
        if bit_flipped:
            flip_i = BitVector.from_positions(len(honest.bob.state.full_key), [i])
            assert attacked.bob.state.full_key ^ flip_i == honest.bob.state.full_key
        else:
            assert attacked.bob.state.full_key == honest.bob.state.full_key
        flipped += bit_flipped
    assert 0.4 <= flipped / trials <= 0.6


def test_flip_entry_column_at_the_key_length_leaves_the_frame_untouched():
    # Column len(reconciled) is the first past the matrix; the one before it is the last inside.
    params = SessionParams(n_raw=2048, master_seed=4)
    cols = len(run_session(params).bob.state.reconciled)
    for j, tampered in ((cols, False), (cols - 1, True)):
        result = run_session(params, channel=Channel(FlipEntryStrategy(0, j, 128)))
        assert [e.tampered for e in result.channel.frames(FrameType.PA_MATRIX)] == [tampered]
        assert result.bob.verdict is Verdict.ACCEPT


def test_zero_rows_all_zero_key_undetected():
    for seed in range(100):
        params = SessionParams(n_raw=2048, master_seed=seed)
        honest = run_session(params)
        attacked = run_session(params, channel=Channel(ZeroRowsStrategy(tail_len=128)))
        assert attacked.bob.verdict is Verdict.ACCEPT
        assert attacked.alice.verdict is Verdict.ACCEPT
        assert attacked.bob.state.final_key == BitVector(128)
        assert attacked.bob.released_key == BitVector(128)
        # Alice is untouched relative to the honest run
        assert attacked.alice.state.final_key == honest.alice.state.final_key
        # the logged tail is intact, which is why nobody notices
        assert attacked.bob.state.key_tail == attacked.alice.state.key_tail


def known_parity(state, positions) -> int:
    parity = 0
    for p in positions:
        parity ^= state.reconciled[p]
    return parity


def test_extract_bits_prediction_always_correct():
    for seed in range(200):
        strategy = ExtractBitsStrategy(
            target_row=0, tail_len=128, rng=make_rng(seed, "adv"), num_known=8
        )
        params, result = attacked_session(strategy, seed)
        assert result.bob.verdict is Verdict.ACCEPT
        assert len(set(strategy.positions)) == 8
        assert known_parity(result.bob.state, strategy.positions) == result.bob.state.full_key[0]
        # the bits the attacker is taken to know, Alice's, are Bob's too
        assert known_parity(result.alice.state, strategy.positions) == result.bob.state.full_key[0]


def test_extract_bits_explicit_positions():
    strategy = ExtractBitsStrategy(
        target_row=3, tail_len=128, rng=make_rng(0, "adv"), known_positions=[2, 40, 41]
    )
    params, result = attacked_session(strategy, 17)
    assert strategy.positions == [2, 40, 41]
    assert known_parity(result.bob.state, strategy.positions) == result.bob.state.full_key[3]


def test_extract_bits_position_at_the_key_length_leaves_the_frame_untouched():
    # Position len(reconciled) is the first past the key; the one before it is the last inside.
    params = SessionParams(n_raw=2048, master_seed=4)
    cols = len(run_session(params).bob.state.reconciled)
    for p, tampered in ((cols, False), (cols - 1, True)):
        strategy = ExtractBitsStrategy(0, 128, make_rng(0, "adv"), known_positions=[0, p])
        result = run_session(params, channel=Channel(strategy))
        assert [e.tampered for e in result.channel.frames(FrameType.PA_MATRIX)] == [tampered]
        assert strategy.positions == ([0, p] if tampered else [])
        assert result.bob.verdict is Verdict.ACCEPT


def test_extract_bits_strategy_validation():
    rng = make_rng(0, "adv")
    with pytest.raises(ValueError):
        ExtractBitsStrategy(0, 128, rng)  # neither positions nor count
    with pytest.raises(ValueError):
        ExtractBitsStrategy(0, 128, rng, known_positions=[1], num_known=1)
    with pytest.raises(ValueError):
        ExtractBitsStrategy(0, 128, rng, num_known=0)
    with pytest.raises(ValueError, match="distinct"):
        ExtractBitsStrategy(0, 128, rng, known_positions=[3, 3])


# ----------------------------------------------- hardening vs frame attacks


def strategies_for(seed):
    return [
        RandomizeRowsStrategy(r=128, tail_len=128, rng=make_rng(seed, "adv")),
        FlipEntryStrategy(0, 0, tail_len=128),
        ZeroRowsStrategy(tail_len=128),
        ExtractBitsStrategy(0, tail_len=128, rng=make_rng(seed, "adv"), num_known=8),
    ]


def test_matrix_in_log_detects_every_frame_attack():
    for seed in range(30):
        for strategy in strategies_for(seed):
            params, result = attacked_session(strategy, seed, hardening=MATRIX_IN_LOG)
            assert result.bob.verdict is Verdict.REJECT, type(strategy).__name__
            assert result.bob.released_key is None


def test_derived_matrix_leaves_no_tampering_surface():
    for seed in range(30):
        for strategy in strategies_for(seed):
            params, result = attacked_session(strategy, seed, hardening=DERIVED)
            assert len(result.channel.frames(FrameType.PA_MATRIX)) == 0
            assert result.bob.verdict is Verdict.ACCEPT, type(strategy).__name__
            assert result.alice.verdict is Verdict.ACCEPT
            assert result.alice.state.final_key == result.bob.state.final_key
            assert not any(e.tampered for e in result.channel.transcript)


@pytest.mark.parametrize("hardening", [None, MATRIX_IN_LOG, DERIVED])
def test_each_party_amplifies_with_its_own_matrix(hardening):
    for seed in range(6):
        for strategy in strategies_for(seed):
            params, result = attacked_session(strategy, seed, hardening=hardening)
            alice, bob = result.alice.state, result.bob.state
            for state in (alice, bob):
                assert state.full_key == matvec(state.pa_matrix, state.reconciled)
            if hardening is DERIVED:
                # Each party derives its own matrix: equal values, other objects.
                assert bob.pa_matrix == alice.pa_matrix
                assert bob.pa_matrix is not alice.pa_matrix
            else:
                (entry,) = result.channel.frames(FrameType.PA_MATRIX)
                assert entry.tampered, type(strategy).__name__
                assert bob.pa_matrix is entry.frame.payload


@pytest.mark.parametrize("hardening", [None, MATRIX_IN_LOG])
def test_honest_session_computes_party_symmetric_values_once(hardening):
    for seed in range(6):
        result = run_session(SessionParams(n_raw=2048, master_seed=seed), hardening=hardening)
        alice, bob = result.alice.state, result.bob.state
        assert bob.sifted_bases is alice.sifted_bases
        assert bob.reconciled is alice.reconciled
        assert bob.pa_matrix is alice.pa_matrix
        assert bob.full_key is alice.full_key
        assert bob.key_tail is alice.key_tail
        assert result.bob.verdict is Verdict.ACCEPT


# ----------------------------------------------------------- collision replay


def test_collision_impersonation_width8():
    # 2^12 candidates against an 8-bit digest: failure odds per trial
    # are (1 - 2^-8)^4096, about 1e-7.
    successes = 0
    for t in range(200):
        params = SessionParams(
            n_raw=1024, hash_width=8, master_seed=trial_seed(900, t)
        )
        out = run_collision_impersonation(params, 1 << 12)
        if out.found:
            assert out.bob_verdict is Verdict.ACCEPT
            assert out.bob_key is not None
            successes += 1
    assert successes / 200 >= 0.99


def test_collision_trial_computes_one_product_per_session(monkeypatch):
    # One product in the capture session and one for Bob's replay: the
    # attacker holds Bob's reconciled key object, so its key is Bob's key.
    calls = []

    def counting_matvec(m, v):
        calls.append(m)
        return matvec(m, v)

    monkeypatch.setattr(pipeline_mod, "matvec", counting_matvec)
    monkeypatch.setattr(adversary_mod, "matvec", counting_matvec)
    config = builtin_scenario("collision-impersonation")
    for t in range(3):
        params = dataclasses.replace(config.params, master_seed=trial_seed(config.master_seed, t))
        calls.clear()
        out = run_collision_impersonation(params, config.attack.options["search_budget"])
        assert out.found and out.bob_verdict is Verdict.ACCEPT, t
        assert len(calls) == 2, t


def _record_sessions(monkeypatch):
    """Record the SessionResult of every run_session and finish_session call
    the impersonation makes, under those names."""
    calls = {"run_session": [], "finish_session": []}
    for name, results in calls.items():
        def recorder(*args, _real=getattr(adversary_mod, name), _results=results, **kwargs):
            result = _real(*args, **kwargs)
            _results.append(result)
            return result

        monkeypatch.setattr(adversary_mod, name, recorder)
    return calls


def test_collision_replay_is_a_session(monkeypatch):
    # Bob's verdict comes from finish_session, over a transcript of a whole
    # untampered session whose AUTH_TAG_A is the tag captured from Alice.
    calls = _record_sessions(monkeypatch)
    config = builtin_scenario("collision-impersonation")
    order = [
        FrameType.BASES, FrameType.BASES, FrameType.EST_POSITIONS, FrameType.EST_VALUES,
        FrameType.EST_RATE, FrameType.CORRECTIONS, FrameType.PA_MATRIX,
        FrameType.AUTH_TAG_A, FrameType.AUTH_TAG_B,
    ]
    for t in range(3):
        params = dataclasses.replace(config.params, master_seed=trial_seed(config.master_seed, t))
        for results in calls.values():
            results.clear()
        out = run_collision_impersonation(params, config.attack.options["search_budget"])
        assert out.found and out.bob_verdict is Verdict.ACCEPT, t
        [capture], [result] = calls["run_session"], calls["finish_session"]
        transcript = result.channel.transcript
        assert [e.frame.kind for e in transcript] == order, t
        assert not any(e.tampered for e in transcript), t
        [captured] = capture.channel.frames(FrameType.AUTH_TAG_A)
        [replayed] = result.channel.frames(FrameType.AUTH_TAG_A)
        assert replayed.frame.payload == captured.frame.payload, t
        assert result.bob.verdict is out.bob_verdict
        assert out.bob_key is result.bob.state.final_key


@pytest.mark.parametrize(
    "params, budget",
    [
        (SessionParams(n_raw=1024, hash_width=128, master_seed=trial_seed(901, 0)), 16),
        (SessionParams(n_raw=64, key_len=256, hash_width=8, master_seed=3), 64),
        (SessionParams(n_raw=64, key_len=24, tail_len=1, hash_width=8, master_seed=8), 64),
    ],
    ids=["search-misses", "capture-aborts", "exchange-aborts"],
)
def test_collision_replay_ends_no_session_without_a_found_matrix(monkeypatch, params, budget):
    calls = _record_sessions(monkeypatch)
    out = run_collision_impersonation(params, budget)
    assert not out.found and out.bob_key is None
    assert calls["finish_session"] == []


@pytest.mark.parametrize("w", [6, 8, 10])
def test_collision_rate_matches_random_oracle(w):
    # K = ln2 * 2^w candidates put the analytic hit rate 1-(1-2^-w)^K at
    # about 1/2. Trials whose exchange with Bob aborts search nothing and
    # are left out of the rate.
    budget = round(math.log(2) * 2**w)
    predicted = 1 - (1 - 2.0**-w) ** budget
    found = searched = 0
    for t in range(400):
        params = SessionParams(n_raw=1024, hash_width=w, master_seed=trial_seed(903, t))
        out = run_collision_impersonation(params, budget)
        if out.bob_verdict is not Verdict.ABORT:
            searched += 1
            found += out.found
    lo, hi = wilson_interval(found, searched, z=4.0)
    assert lo <= predicted <= hi, (w, found, searched, predicted)


def test_collision_impersonation_never_finds_full_width():
    # At the full 128-bit digest width a 2^20 search finds nothing: a hit
    # has probability ~2^-108 per trial, so a few trials show it as well as many.
    for t in range(4):
        params = SessionParams(
            n_raw=1024, hash_width=128, master_seed=trial_seed(901, t)
        )
        out = run_collision_impersonation(params, 1 << 20)
        assert not out.found
        assert out.candidates_examined == 1 << 20
        assert out.bob_verdict is Verdict.REJECT


def test_collision_search_deterministic_and_budgeted():
    params = SessionParams(n_raw=1024, hash_width=16, master_seed=4242)
    a = run_collision_impersonation(params, 1 << 20)
    b = run_collision_impersonation(params, 1 << 20)
    assert a == b
    assert a.candidates_examined <= 1 << 20
    short = run_collision_impersonation(params, 16)
    assert short.candidates_examined <= 16


def _capture_and_bob_exchange(params: SessionParams):
    """The two exchanges run_collision_impersonation runs before its search:
    the capture session with Alice, and the front end of the one with Bob."""
    capture_seed = int.from_bytes(derive_bytes(params.master_seed, "capture-session", n=8), "big")
    capture = run_session(dataclasses.replace(params, master_seed=capture_seed), hardening=MATRIX_IN_LOG)
    session_seed = int.from_bytes(
        derive_bytes(params.master_seed, "impersonation-session", n=8), "big"
    )
    attacker, _, aborted = exchange_reconciled_key(
        params, Channel(), make_rng(session_seed, "session")
    )
    return capture, attacker, aborted


def test_collision_impersonation_aborts_on_empty_sifted_key():
    # At this seed the capture session completes, and the attacker's
    # exchange with Bob (four raw bits) matches no basis.
    params = SessionParams(n_raw=4, qber=0.0, key_len=2, tail_len=1, hash_width=8, master_seed=2)
    capture, attacker, _ = _capture_and_bob_exchange(params)
    assert capture.alice.verdict is Verdict.ACCEPT
    assert len(attacker.sifted) == 0
    out = run_collision_impersonation(params, 64)
    assert out.bob_verdict is Verdict.ABORT
    assert out.candidates_examined == 0


@pytest.mark.parametrize("seed", [8, 9])
def test_collision_impersonation_aborts_on_empty_reconciled_key(seed):
    # At these seeds the attacker's exchange with Bob sifts one bit, which
    # estimation discloses, leaving no reconciled key to search a matrix for:
    # that exchange aborts on its short key. (The capture session, with at
    # most one reconciled bit here, aborts on its short key as well.)
    params = SessionParams(n_raw=1, qber=0.0, key_len=2, tail_len=1, hash_width=8, master_seed=seed)
    _, attacker, aborted = _capture_and_bob_exchange(params)
    assert len(attacker.sifted_bases) == 1 and len(attacker.reconciled) == 0
    assert aborted
    out = run_collision_impersonation(params, 64)
    assert out.bob_verdict is Verdict.ABORT
    assert out.candidates_examined == 0
    assert not out.found


def test_collision_impersonation_aborts_on_short_key():
    # The key-expansion case: 33 reconciled bits cannot become a 256-bit key.
    out = run_collision_impersonation(
        SessionParams(n_raw=64, key_len=256, hash_width=8, master_seed=3), 64
    )
    assert out.bob_verdict is Verdict.ABORT
    # Here the capture session completes, and only the exchange with Bob
    # (21 reconciled bits for a 24-bit key) is short.
    params = SessionParams(n_raw=64, key_len=24, tail_len=1, hash_width=8, master_seed=8)
    capture, attacker, aborted = _capture_and_bob_exchange(params)
    assert capture.alice.verdict is Verdict.ACCEPT
    assert len(attacker.reconciled) == 21 and aborted
    out = run_collision_impersonation(params, 64)
    assert out.bob_verdict is Verdict.ABORT
    assert out.candidates_examined == 0
    assert out.bob_key is None


def test_collision_search_validation():
    params = SessionParams(n_raw=1024, hash_width=8, master_seed=3)
    result = run_session(params)
    with pytest.raises(ValueError, match="budget"):
        attack_collision_impersonate(b"\x00", result.alice.state, params, 0, make_rng(0, "s"))


@pytest.mark.parametrize(
    "n_raw,key_len,tail_len,w",
    [(40, 8, 1, 6), (300, 20, 3, 7), (200, 16, 15, 8)],
)
def test_collision_search_shapes(n_raw, key_len, tail_len, w):
    # Short reconciled keys (fewer than 128 columns, not a whole number of
    # bytes) and tails of one row up to key_len - 1 rows: every hit must be
    # accepted by Bob and release his key.
    hits = 0
    for t in range(20):
        params = SessionParams(
            n_raw=n_raw,
            key_len=key_len,
            tail_len=tail_len,
            hash_width=w,
            master_seed=trial_seed(902, t),
        )
        out = run_collision_impersonation(params, 1 << 12)
        if out.found:
            assert out.bob_verdict is Verdict.ACCEPT
            assert out.bob_key is not None
            hits += 1
    assert hits >= 1


_ORACLE_WIDTHS = (5, 7, 8, 9, 12, 16)
_ORACLE_BUDGETS = (1, 4095, 4096, 4097, 3 * 4096 + 5)


def _oracle_case(cols: int, w: int, tail_len: int = 1):
    """A search state whose reconciled key has `cols` columns, and a target."""
    params = SessionParams(n_raw=512, key_len=16, tail_len=tail_len, hash_width=w, master_seed=7)
    state = run_session(params).alice.state
    state = dataclasses.replace(state, reconciled=BitVector.random(cols, make_rng(cols, "key")))
    digest = truncate_digest(derive_bytes(cols, "target", str(w), n=32), w)
    return digest, state, params


def _search_both(case, budget: int, seed: int, label: str):
    """The search and its oracle on the same case, each from a fresh rng."""
    return tuple(
        search(*case, budget, make_rng(seed, label))
        for search in (attack_collision_impersonate, oracle_collision_search)
    )


@pytest.mark.parametrize(
    "cols",
    # Keys shorter than 128 columns in every residue mod 8, the 128-column
    # edges, and longer keys in every residue, i.e. every sub-byte shift.
    [1, 7, *range(60, 68), 127, 128, 129, *range(1000, 1008)],
)
def test_collision_search_matches_oracle(cols):
    for w in _ORACLE_WIDTHS:
        fast, slow = _search_both(_oracle_case(cols, w, 1 + cols % 3), _ORACLE_BUDGETS[-1], cols, "s")
        assert fast == slow, (cols, w)
    # At w=16 most searches exhaust their budget, crossing chunk edges.
    case = _oracle_case(cols, 16)
    for budget in _ORACLE_BUDGETS[:-1]:
        fast, slow = _search_both(case, budget, cols, "b")
        assert fast == slow, (cols, budget)


def test_collision_search_hit_in_second_chunk_matches_oracle():
    # At search seed 3 this search first hits at candidate 7017.
    fast, slow = _search_both(_oracle_case(1003, 12), _ORACLE_BUDGETS[-1], 3, "s")
    assert fast == slow
    assert fast.matrix is not None and 4096 < fast.candidates_examined <= 8192


@pytest.mark.parametrize("w", [1, 2, 3, 4])
@pytest.mark.parametrize("cols", [1, 7, 61, 128, 1003])
def test_collision_search_matches_oracle_below_one_byte(cols, w):
    # Below 8 bits the masked first-byte test is the whole hit check. Each
    # search seed puts the first hit at a different candidate.
    case = _oracle_case(cols, w)
    for seed in range(12):
        fast, slow = _search_both(case, 64, seed, "tiny")
        assert fast == slow, (cols, w, seed)


_PLANTED_BUDGET = 3 * 4096 + 5


@pytest.mark.parametrize("w", [24, 32, 256])
@pytest.mark.parametrize("cols", [61, 1003])
def test_collision_search_finds_a_planted_hit_at_its_candidate(cols, w):
    # The target is the oracle's k-th candidate digest, truncated to w bits,
    # so the first hit is candidate k unless an earlier one collides with it
    # (checked below; about k / 2^w likely).
    _, state, params = _oracle_case(cols, w)
    candidates = list(oracle_candidates(state, params, _PLANTED_BUDGET, make_rng(cols, "plant")))
    for k in (1, 4096, 4097, _PLANTED_BUDGET):
        row, digest = candidates[k - 1]
        target = truncate_digest(digest, w)
        assert all(truncate_digest(d, w) != target for _, d in candidates[: k - 1])
        found = attack_collision_impersonate(
            target, state, params, _PLANTED_BUDGET, make_rng(cols, "plant")
        )
        assert found.candidates_examined == k, (cols, w, k)
        assert found.matrix == BitMatrix((0,) * (params.key_len - 1) + (row,), cols)


@settings(max_examples=30, deadline=None, database=None)
@given(
    cols=st.integers(1, 1100),
    w=st.integers(1, 32),
    budget=st.integers(1, 9000),
    target=st.binary(min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    lanes=st.sampled_from([1, 2, 3]),
)
def test_collision_search_equals_oracle_property(cols, w, budget, target, seed, lanes):
    _, state, params = _oracle_case(cols, w, 1 + seed % 3)
    case = (truncate_digest(target, w), state, params)
    rng = make_rng(seed, "p")
    before = rng.bit_generator.state
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adversary_mod, "max_search_lanes", lambda: lanes)
        fast = attack_collision_impersonate(*case, budget, rng)
    assert rng.bit_generator.state == before  # read, never advanced
    assert fast == oracle_collision_search(*case, budget, make_rng(seed, "p"))


# ------------------------------------------------------- collision search lanes

# At cols=1003, w=12 and eight chunks, search seed 3 first hits in chunk 1
# (offset 2920; more hits in chunks 3 and 4) and seed 343 in chunk 6.
_LANE_BUDGET = 8 * 4096
_CHILD_HIT, _LANE0_HIT = 3, 343


def _pool_search(monkeypatch, lanes: int, seed: int, w: int = 12):
    """A search at `lanes` lanes, on whatever lanes the pool holds, and its oracle."""
    monkeypatch.setattr(adversary_mod, "max_search_lanes", lambda: lanes)
    case = _oracle_case(1003, w)
    rng = make_rng(seed, "s")
    before = rng.bit_generator.state
    found = attack_collision_impersonate(*case, _LANE_BUDGET, rng)
    assert rng.bit_generator.state == before
    return found, oracle_collision_search(*case, _LANE_BUDGET, make_rng(seed, "s"))


def _lane_search(monkeypatch, lanes: int, seed: int, w: int = 12):
    # The pool is shut down first, so the lanes this search uses are forked
    # by whatever os.fork the test has patched in.
    adversary_mod.shutdown_search_lanes()
    return _pool_search(monkeypatch, lanes, seed, w)


def _no_child_left():
    # Pooled lanes outlive their search, but not their owner's shutdown.
    adversary_mod.shutdown_search_lanes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("seed,chunk", [(_CHILD_HIT, 1), (_LANE0_HIT, 6)])
def test_collision_search_lanes_find_the_serial_hit(monkeypatch, lanes, seed, chunk):
    found, serial = _lane_search(monkeypatch, lanes, seed)
    assert found == serial
    assert found.candidates_examined // 4096 == chunk
    _no_child_left()


def _patch_scan_chunks(monkeypatch, lane_hook=lambda chunk: None) -> list[list[int]]:
    """Shut the pool down and patch _scan_chunks, which the lanes forked
    next inherit. In a child it calls lane_hook(chunk) after each chunk it
    scans; in the calling process it records the chunks each call scans, one
    list per call, in the list it returns."""
    caller, real_scan_chunks = os.getpid(), adversary_mod._scan_chunks
    streams: list[list[int]] = []

    def scan_chunks(scan, state, budget, claim):
        if os.getpid() == caller:
            streams.append([])
        for rec in real_scan_chunks(scan, state, budget, claim):
            if os.getpid() == caller:
                streams[-1].append(rec[0])
            else:
                lane_hook(rec[0])
            yield rec

    adversary_mod.shutdown_search_lanes()
    monkeypatch.setattr(adversary_mod, "_scan_chunks", scan_chunks)
    return streams


def _late_claims(monkeypatch):
    """Patch the caller's claims to start 0.1 s late, so the lanes claim the lowest chunks."""
    caller, real_shared_claim = os.getpid(), adversary_mod._shared_claim

    def shared_claim(search):
        claim = real_shared_claim(search)
        if os.getpid() == caller:
            time.sleep(0.1)
        return claim

    monkeypatch.setattr(adversary_mod, "_shared_claim", shared_claim)


@pytest.mark.parametrize("lanes", [2, 3])
def test_collision_search_waits_for_a_slow_lane_below_its_hit(monkeypatch, lanes):
    # The caller claims late, so a child claims chunk 1, the first hit, and
    # sleeps before reporting it; the hit in chunk 3 arrives long before.
    def slow_chunk_1(chunk):
        if chunk == 1:
            time.sleep(0.3)

    _patch_scan_chunks(monkeypatch, slow_chunk_1)
    _late_claims(monkeypatch)
    found, serial = _pool_search(monkeypatch, lanes, _CHILD_HIT)
    assert found == serial
    assert found.candidates_examined == 4096 + 2920 + 1
    _no_child_left()


def _slow_fork(monkeypatch, seconds: float) -> None:
    """Patch os.fork so that every child sleeps before it serves."""
    real_fork = os.fork

    def slow_fork():
        pid = real_fork()
        if pid == 0:
            time.sleep(seconds)
        return pid

    monkeypatch.setattr(os, "fork", slow_fork)


def test_collision_search_caller_claims_every_chunk_a_held_back_lane_leaves(monkeypatch):
    # The child sleeps through the search, so the caller claims and scans
    # every chunk up to the hit in chunk 6 without waiting for it. The hit
    # lowers the limit, so the child, once awake, finds no chunk left to
    # claim and closes the search without a chunk report.
    streams = _patch_scan_chunks(monkeypatch)
    _slow_fork(monkeypatch, 0.5)
    found, serial = _pool_search(monkeypatch, 2, _LANE0_HIT)
    assert found == serial
    assert streams == [list(range(7))]
    ((_, conn),) = adversary_mod._pool
    assert conn.poll(5)
    assert conn.recv()[1:] == (-1, -1, None)
    _no_child_left()


def test_collision_search_lane_claims_no_chunk_of_a_later_search(monkeypatch):
    # The child sleeps at fork, so it reads its job of the first search only
    # while the second, whose caller is slow, is running. It must claim no
    # chunk of the second search for the first: the caller would then have
    # to scan that chunk again, once the child closed the second search.
    streams = _patch_scan_chunks(monkeypatch)
    _slow_fork(monkeypatch, 0.3)
    assert operator.eq(*_pool_search(monkeypatch, 2, _LANE0_HIT))
    caller, real_rng_bytes = os.getpid(), adversary_mod.rng_bytes

    def slow_rng_bytes(rng, n):
        if os.getpid() == caller:
            time.sleep(0.1)
        return real_rng_bytes(rng, n)

    monkeypatch.setattr(adversary_mod, "rng_bytes", slow_rng_bytes)
    streams.clear()
    found, serial = _pool_search(monkeypatch, 2, _LANE0_HIT)
    assert found == serial
    assert len(streams) == 1  # the caller scanned no chunk a second time
    _no_child_left()


def test_collision_search_leaves_no_process_behind(monkeypatch):
    for seed, w in ((_CHILD_HIT, 12), (_LANE0_HIT, 12), (0, 32)):
        found, serial = _lane_search(monkeypatch, 2, seed, w)
        assert found == serial
        _no_child_left()
    assert found.matrix is None and found.candidates_examined == _LANE_BUDGET
    # Lane 0 raises in the calling process after the children are forked.
    caller, real_rng_bytes = os.getpid(), adversary_mod.rng_bytes

    def failing_rng_bytes(rng, n):
        if os.getpid() == caller:
            raise RuntimeError("lane 0 failed")
        return real_rng_bytes(rng, n)

    monkeypatch.setattr(adversary_mod, "rng_bytes", failing_rng_bytes)
    with pytest.raises(RuntimeError, match="lane 0 failed"):
        _lane_search(monkeypatch, 2, _CHILD_HIT)
    _no_child_left()


def _exiting_fork(real_fork=os.fork):
    pid = real_fork()
    if pid == 0:
        os._exit(0)  # a lane that never reports a chunk
    return pid


def _job_dropping_fork(real_fork=os.fork):
    pid = real_fork()
    if pid == 0:
        time.sleep(0.1)  # long enough for the job to arrive
        os._exit(0)  # a lane that dies with its job unread
    return pid


def _failing_fork():
    raise OSError(errno.EAGAIN, "fork refused")


@pytest.mark.parametrize(
    "fork",
    [_exiting_fork, _job_dropping_fork, _failing_fork],
    ids=["children-exit", "children-exit-with-job-unread", "fork-fails"],
)
@pytest.mark.parametrize("seed,w", [(_CHILD_HIT, 12), (_LANE0_HIT, 12), (0, 32)])
def test_collision_search_scans_unreported_chunks_itself(monkeypatch, fork, seed, w):
    monkeypatch.setattr(os, "fork", fork)
    found, serial = _lane_search(monkeypatch, 3, seed, w)
    assert found == serial
    _no_child_left()


@pytest.mark.parametrize("holding", ["a claim", "the claim lock"])
def test_collision_search_outlives_a_lane_that_dies_holding(monkeypatch, holding):
    # The caller claims late, so the two children claim chunks 0 and 1, the
    # first hit, and each dies at its first draw: holding its claim, or
    # after taking the claim counter's lock and keeping it 0.2 s, so that
    # the caller blocks on that lock until the kernel releases it. The
    # caller must scan both chunks itself.
    caller, real_rng_bytes = os.getpid(), adversary_mod.rng_bytes

    def dying_rng_bytes(rng, n):
        if os.getpid() != caller:
            if holding == "the claim lock":
                fcntl.lockf(adversary_mod._counter.fileno(), fcntl.LOCK_EX)
                time.sleep(0.2)
            os._exit(0)
        return real_rng_bytes(rng, n)

    monkeypatch.setattr(adversary_mod, "rng_bytes", dying_rng_bytes)
    _late_claims(monkeypatch)
    found, serial = _lane_search(monkeypatch, 3, _CHILD_HIT)
    assert found == serial
    assert found.candidates_examined // 4096 == 1
    _no_child_left()


def test_claims_hand_out_each_chunk_once_under_contention(tmp_path):
    # Four forked claimants, more processes than a 2-CPU host has cores,
    # race for the pool's counter; a lost update would hand a chunk out twice.
    adversary_mod.shutdown_search_lanes()
    adversary_mod._lane_pool(1)  # opens the counter
    chunks, search = 20000, -7
    with adversary_mod._locked_counter():
        adversary_mod._set_counter(search, 0, chunks)
    start, go = os.pipe()  # closing go starts every claimant at once
    pids = []
    for i in range(4):
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(go)
                os.read(start, 1)
                claim = adversary_mod._shared_claim(search)
                claimed = list(iter(claim, None))
                (tmp_path / str(i)).write_text(" ".join(map(str, claimed)))
                status = 0
            finally:
                os._exit(status)
        pids.append(pid)
    os.close(go)
    os.close(start)
    deadline = time.monotonic() + 30
    while pids:
        assert time.monotonic() < deadline, "a claimant did not finish"
        for pid in list(pids):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                assert status == 0
                pids.remove(pid)
        time.sleep(0.01)
    claimed = [int(c) for i in range(4) for c in (tmp_path / str(i)).read_text().split()]
    assert sorted(claimed) == list(range(chunks))
    _no_child_left()


def _buffered_rng(seed: int) -> np.random.Generator:
    """A search generator that holds a buffered half-word."""
    rng = make_rng(seed, "s")
    rng.integers(0, 5, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"]
    return rng


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_collision_search_from_a_buffered_half_word_matches_oracle(monkeypatch, lanes):
    monkeypatch.setattr(adversary_mod, "max_search_lanes", lambda: lanes)
    case = _oracle_case(1003, 14)
    for seed in (0, 2, 5, 8):  # from this state, first hits in chunks 7, 4, none and 2
        rng = _buffered_rng(seed)
        before = rng.bit_generator.state
        found = attack_collision_impersonate(*case, _LANE_BUDGET, rng)
        assert rng.bit_generator.state == before
        assert found == oracle_collision_search(*case, _LANE_BUDGET, _buffered_rng(seed)), seed
    _no_child_left()


@settings(max_examples=25, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    buffered=st.booleans(),
    claimed=st.sets(st.integers(0, 5), min_size=1).map(sorted),
    tail=st.integers(1, 4096),
)
def test_scan_chunks_draws_each_claimed_chunk_as_the_whole_stream_does(
    seed, buffered, claimed, tail
):
    # A lane jumps its generator over the chunks it does not claim; each
    # chunk it draws must be that chunk of the whole stream, with and
    # without a buffered half-word.
    budget = 5 * 4096 + tail
    rng = make_rng(seed, "skip")
    if buffered:
        rng.integers(0, 5, dtype=np.uint32)
    state = rng.bit_generator.state
    stream = rng.bytes(16 * budget)
    drawn = []

    def scan(draws):
        drawn.append(draws.tobytes())
        return -1

    claim = functools.partial(next, iter(claimed), None)
    records = list(adversary_mod._scan_chunks(scan, state, budget, claim))
    assert records == [(c, -1, None) for c in claimed]
    assert drawn == [stream[c * 16 * 4096 : (c + 1) * 16 * 4096] for c in claimed]


def _counting_fork(monkeypatch) -> list[int]:
    """Patch os.fork to record, in the list it returns, each child it starts."""
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _pooled_pids() -> list[int]:
    return [pid for pid, *_ in adversary_mod._pool]


def test_collision_searches_fork_their_lanes_once(monkeypatch):
    adversary_mod.shutdown_search_lanes()
    forks = _counting_fork(monkeypatch)
    for seed, w in ((_CHILD_HIT, 12), (_LANE0_HIT, 12), (0, 32), (_CHILD_HIT, 12), (1, 12)):
        found, serial = _pool_search(monkeypatch, 2, seed, w)
        assert found == serial, (seed, w)
    assert len(forks) == 1 and _pooled_pids() == forks
    # A search at three lanes grows the pool by one and keeps the first lane.
    found, serial = _pool_search(monkeypatch, 3, _CHILD_HIT)
    assert found == serial
    assert len(forks) == 2 and _pooled_pids() == forks
    _no_child_left()


def test_collision_search_drops_the_reports_of_a_failed_search(monkeypatch):
    # The caller claims late, so the lane, slowed down, claims chunk 0,
    # where search seed 1 first hits; lane 0 raises at its first draw. The
    # lane reports that hit only while the next search, whose first hit is
    # in chunk 6 and whose caller is slow too, runs: that search must drop
    # the report.
    caller, real_rng_bytes = os.getpid(), adversary_mod.rng_bytes

    def slow_rng_bytes(rng, n):
        time.sleep(0.05 if os.getpid() == caller else 0.15)
        return real_rng_bytes(rng, n)

    def failing_rng_bytes(rng, n):
        if os.getpid() == caller:
            raise RuntimeError("lane 0 failed")
        return slow_rng_bytes(rng, n)

    _late_claims(monkeypatch)
    monkeypatch.setattr(adversary_mod, "rng_bytes", failing_rng_bytes)
    with pytest.raises(RuntimeError, match="lane 0 failed"):
        _lane_search(monkeypatch, 2, 1)
    monkeypatch.setattr(adversary_mod, "rng_bytes", slow_rng_bytes)
    found, serial = _pool_search(monkeypatch, 2, _LANE0_HIT)
    assert found == serial
    assert found.candidates_examined // 4096 == 6
    _no_child_left()


def test_collision_search_forks_the_pool_again_after_a_lane_dies(monkeypatch):
    adversary_mod.shutdown_search_lanes()
    forks = _counting_fork(monkeypatch)
    assert operator.eq(*_pool_search(monkeypatch, 2, _LANE0_HIT))
    (lane,) = forks
    os.kill(lane, signal.SIGKILL)
    # The send to the dead lane fails, or its connection reaches EOF, so
    # the caller scans its chunks, shuts the pool down and reaps the lane.
    found, serial = _pool_search(monkeypatch, 2, _CHILD_HIT)
    assert found == serial
    assert found.candidates_examined // 4096 == 1
    assert _pooled_pids() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(lane, os.WNOHANG)
    assert operator.eq(*_pool_search(monkeypatch, 2, _LANE0_HIT))
    assert len(forks) == 2 and _pooled_pids() == forks[1:]
    _no_child_left()


def test_collision_search_in_a_forked_child_leaves_the_parents_lanes(monkeypatch):
    assert operator.eq(*_lane_search(monkeypatch, 2, _CHILD_HIT))
    pool = list(adversary_mod._pool)
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            found, serial = _pool_search(monkeypatch, 2, _LANE0_HIT)
            own = _pooled_pids()
            adversary_mod.shutdown_search_lanes()  # as it runs at exit
            status = 0 if found == serial and own and not set(own) & {p for p, *_ in pool} else 2
        finally:
            os._exit(status)
    assert os.waitpid(pid, 0)[1] == 0
    assert adversary_mod._pool == pool
    for lane, *_ in pool:
        assert os.waitpid(lane, os.WNOHANG) == (0, 0)  # alive
    forks = _counting_fork(monkeypatch)
    assert operator.eq(*_pool_search(monkeypatch, 2, _LANE0_HIT))
    assert forks == []
    _no_child_left()


# At cols=1003 and w=14, each of these search seeds first hits in one of
# chunks 2 to 6 of the eight, or, for 16, 23 and 32, in none.
_SCHEDULE_SEEDS = (0, 2, 3, 4, 8, 10, 13, 15, 16, 18, 20, 23, 24, 25, 27, 28, 30, 32, 33, 34, 36)
_SCHEDULE_CHUNKS = _LANE_BUDGET // 4096
_SCHEDULE_DELAYS = 5 * 3 * _SCHEDULE_CHUNKS  # one per (search, lane, chunk)


@functools.cache
def _schedule_case():
    return _oracle_case(1003, 14)


@functools.cache
def _schedule_oracle(seed: int):
    return oracle_collision_search(*_schedule_case(), _LANE_BUDGET, make_rng(seed, "s"))


def _last_chunk(seed: int) -> int:
    """The chunk of the search's first hit, or its last chunk if none."""
    return (_schedule_oracle(seed).candidates_examined - 1) // 4096


@settings(max_examples=12, deadline=None, database=None)
@given(
    seeds=st.lists(st.sampled_from(_SCHEDULE_SEEDS), min_size=3, max_size=5, unique=True),
    lane_counts=st.lists(st.sampled_from([2, 3]), min_size=5, max_size=5),
    delays=st.lists(st.integers(0, 20), min_size=_SCHEDULE_DELAYS, max_size=_SCHEDULE_DELAYS),
    exit_at=st.none() | st.tuples(st.integers(0, 4), st.integers(0, _SCHEDULE_CHUNKS - 1)),
    raise_at=st.none() | st.tuples(st.integers(0, 4), st.integers(0, _SCHEDULE_CHUNKS - 1)),
)
def test_collision_search_lanes_under_a_drawn_schedule(
    seeds, lane_counts, delays, exit_at, raise_at
):
    # Each search has its own seed, so a lane tells its search by the state
    # it is sent; a child learns its lane number from the fork that starts
    # it. Each lane sleeps its drawn delay, keyed by (search, lane, chunk),
    # after scanning each chunk it claims. A child that scans the drawn exit
    # chunk, which lies at or below the first hit, exits, so the caller must
    # scan that chunk itself; lane 0 raises, in the caller, after scanning
    # its drawn chunk, if it claims it.
    search_of = {
        make_rng(seed, "s").bit_generator.state["state"]["state"]: s
        for s, seed in enumerate(seeds)
    }
    if exit_at is not None:
        s = exit_at[0] % len(seeds)
        exit_at = s, exit_at[1] % (_last_chunk(seeds[s]) + 1)
    if raise_at is not None:
        raise_at = raise_at[0] % len(seeds), raise_at[1]
    real_fork, real_scan_chunks = os.fork, adversary_mod._scan_chunks
    lane = 0  # this process's lane number

    def numbered_fork():
        nonlocal lane
        number = len(adversary_mod._pool) + 1
        pid = real_fork()
        if pid == 0:
            lane = number
        return pid

    def scheduled_scan_chunks(scan, state, budget, claim):
        s = search_of[state["state"]["state"]]
        for rec in real_scan_chunks(scan, state, budget, claim):
            time.sleep(delays[(3 * s + lane) * _SCHEDULE_CHUNKS + rec[0]] / 1000)
            if (s, rec[0]) == exit_at and lane:
                os._exit(0)
            if (s, rec[0]) == raise_at and not lane:
                raise RuntimeError("lane 0 failed")
            yield rec

    adversary_mod.shutdown_search_lanes()
    with pytest.MonkeyPatch.context() as mp:
        # Patched before the pool is forked, so the lanes inherit them.
        mp.setattr(os, "fork", numbered_fork)
        mp.setattr(adversary_mod, "_scan_chunks", scheduled_scan_chunks)
        for s, seed in enumerate(seeds):
            mp.setattr(adversary_mod, "max_search_lanes", lambda: lane_counts[s])
            rng = make_rng(seed, "s")
            before = rng.bit_generator.state
            try:
                found = attack_collision_impersonate(*_schedule_case(), _LANE_BUDGET, rng)
            except RuntimeError:
                assert raise_at is not None and raise_at[0] == s
            else:
                assert found == _schedule_oracle(seed), (s, seed)
            assert rng.bit_generator.state == before
    _no_child_left()


# One 2-lane search in a fresh interpreter, which then prints its lane pids
# and, given "idle", waits for stdin to close.
_SEARCH_SCRIPT = """
import sys
from qkdsim import adversary
from qkdsim.pipeline import SessionParams, run_session
from qkdsim.seeding import make_rng

adversary.max_search_lanes = lambda: 2
params = SessionParams(n_raw=512, key_len=16, tail_len=1, hash_width=32, master_seed=7)
state = run_session(params).alice.state
adversary.attack_collision_impersonate(bytes(4), state, params, 8 * 4096, make_rng(0, "s"))
print(*(pid for pid, *_ in adversary._pool), flush=True)
if sys.argv[1] == "idle":
    sys.stdin.read()
"""


def _gone_or_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_collision_search_lanes_end_with_their_process():
    env = {**os.environ, "PYTHONPATH": str(Path(adversary_mod.__file__).parents[1])}
    lanes = {}
    for mode in ("exit", "idle"):
        # On leaving, Popen closes stdin, which ends an idle wait, and waits.
        with subprocess.Popen(
            [sys.executable, "-c", _SEARCH_SCRIPT, mode],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        ) as proc:
            lanes[mode] = [int(pid) for pid in proc.stdout.readline().split()]
            if mode == "idle":
                proc.kill()  # no exit handler runs: the lanes see their connections close
    assert len(lanes["exit"]) == len(lanes["idle"]) == 1
    # A normal exit kills and reaps its lanes.
    assert not any(os.path.exists(f"/proc/{pid}") for pid in lanes["exit"])
    deadline = time.monotonic() + 2
    while not all(map(_gone_or_zombie, lanes["idle"])):
        assert time.monotonic() < deadline, "a lane outlived its killed owner"
        time.sleep(0.01)


def test_collision_search_forks_no_lane_while_another_thread_lives(monkeypatch):
    # A forked child holds only the calling thread, so a lock held by the
    # other thread would stay held in it: the search keeps to one lane.
    def no_fork():
        pytest.fail("a search lane was forked while another thread was alive")

    monkeypatch.setattr(adversary_mod, "usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        case = _oracle_case(1003, 12)
        found = attack_collision_impersonate(*case, _LANE_BUDGET, make_rng(_CHILD_HIT, "s"))
    finally:
        stop.set()
        waiter.join()
    assert found == oracle_collision_search(*case, _LANE_BUDGET, make_rng(_CHILD_HIT, "s"))
    assert found.matrix is not None


@pytest.mark.parametrize("w", [12, 16, 256])
def test_collision_search_refuses_a_digest_it_could_never_match(w):
    digest, state, params = _oracle_case(129, w)
    nb = (w + 7) // 8
    for wrong in (b"", digest[:-1], digest + b"\x00"):
        with pytest.raises(ValueError, match=f"must be {nb} bytes for a {w}-bit width"):
            attack_collision_impersonate(wrong, state, params, 16, make_rng(0, "s"))
    if w % 8:
        padded = digest[:-1] + bytes([digest[-1] | 1])
        with pytest.raises(ValueError, match=f"bits set past its {w}-bit width"):
            attack_collision_impersonate(padded, state, params, 16, make_rng(0, "s"))
    # The digest as truncate_digest gives it is accepted.
    attack_collision_impersonate(digest, state, params, 16, make_rng(0, "s"))


# ------------------------------------------------------------ one-time pad


def test_otp_malleability_frozen_example():
    # Flipping bit 2 of an encrypted '1' (0x31) decrypts to '5' (0x35).
    plaintext = BitVector(8, 0x31)
    pad = BitVector(8, 0xA7)
    ciphertext = otp_encrypt(plaintext, pad)
    tampered = demo_otp_malleability(ciphertext, [2])
    assert otp_decrypt(tampered, pad) == BitVector(8, 0x35)
    assert chr(0x31) == "1" and chr(0x35) == "5"


def test_otp_malleability_edge_positions():
    plaintext = BitVector(16, 0x4D2)
    pad = BitVector(16, 0x9A7)
    ciphertext = otp_encrypt(plaintext, pad)
    assert otp_decrypt(demo_otp_malleability(ciphertext, []), pad) == plaintext
    complement = otp_decrypt(demo_otp_malleability(ciphertext, range(16)), pad)
    assert complement == plaintext ^ BitVector(16, 0xFFFF)


def test_otp_malleability_flips_exactly_targets():
    rng = make_rng(60, "otp")
    for _ in range(100):
        n = int(rng.integers(8, 256))
        plaintext = BitVector.random(n, rng)
        pad = BitVector.random(n, rng)
        count = int(rng.integers(1, n + 1))
        positions = sorted(int(p) for p in rng.choice(n, count, replace=False))
        tampered = demo_otp_malleability(otp_encrypt(plaintext, pad), positions)
        recovered = otp_decrypt(tampered, pad)
        assert recovered == plaintext ^ BitVector.from_positions(n, positions)


def test_otp_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        otp_encrypt(BitVector(8, 0), BitVector(9, 0))
    with pytest.raises(IndexError):
        demo_otp_malleability(BitVector(8, 0), [8])
