"""Scenario runner: dispatch, reproducibility, sweeps, reports and configs."""

import dataclasses
import functools
import itertools
import json
import math
import os
import platform
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdsim import adversary as adversary_mod
from qkdsim import scenarios as scenarios_mod
from qkdsim.adversary import run_collision_impersonation
from qkdsim.gf2 import BitVector
from qkdsim.hardening import HardeningKind
from qkdsim.pipeline import SessionParams, Verdict, run_session
from qkdsim.scenarios import (
    _ATTACKS,
    BUILTIN_SCENARIOS,
    SUMMARY_METRICS,
    AttackSpec,
    BatchSummary,
    Check,
    ConfigError,
    ScenarioConfig,
    TrialReport,
    builtin_scenario,
    config_from_dict,
    config_to_dict,
    evaluate_checks,
    format_claims_table,
    load_config_file,
    load_report_dir,
    read_trials_jsonl,
    render_payload,
    run_scenario,
    run_trial,
    sweep,
    validate_config,
    write_report,
    write_summary_csv,
    write_trials_jsonl,
)

from oracles import (
    MAX_SEARCH_BUDGET,
    ORACLE_ATTACKS,
    analytic_rates,
    exact_abort_probability,
    oracle_validate_config,
    read_hex,
    wilson_interval,
)

ACCEPT = "accept"


def small(name, trials, **extra):
    cfg = builtin_scenario(name, trials=trials)
    return dataclasses.replace(cfg, **extra) if extra else cfg


# ------------------------------------------------------------ registry


def test_builtin_registry_names():
    expected = {
        "baseline",
        "randomize-rows",
        "flip-entry",
        "zero-rows",
        "extract-bits",
        "collision-impersonation",
        "otp-malleability",
        "harden-matrix-in-log-randomize-rows",
        "harden-matrix-in-log-flip-entry",
        "harden-matrix-in-log-zero-rows",
        "harden-matrix-in-log-extract-bits",
        "harden-derived-matrix",
    }
    assert set(BUILTIN_SCENARIOS) == expected


def test_builtins_are_valid_and_documented():
    for name, config in BUILTIN_SCENARIOS.items():
        validate_config(config)
        assert config.claim, name
        assert config.checks, name


def test_unknown_builtin():
    with pytest.raises(ConfigError, match="unknown scenario"):
        builtin_scenario("warp-field")


# ------------------------------------------------------- headline rates


def test_baseline_scenario_honest_completeness():
    reports, summary = run_scenario(small("baseline", 100))
    assert summary.accept_rate_alice == 1.0
    assert summary.accept_rate_bob == 1.0
    assert summary.key_mismatch_rate == 0.0
    assert summary.attack_success_rate == 0.0
    assert all(r.keys_equal for r in reports)


def test_zero_rows_scenario_rates():
    _, summary = run_scenario(small("zero-rows", 1000))
    assert summary.attack_success_rate == 1.0
    assert summary.accept_rate_alice == 1.0
    assert summary.accept_rate_bob == 1.0


def test_flip_entry_scenario_rate():
    # about half; the tight band at 10^4 trials runs in the acceptance suite
    _, summary = run_scenario(small("flip-entry", 1500))
    assert summary.accept_rate_alice == 1.0
    assert summary.accept_rate_bob == 1.0
    assert 0.42 <= summary.attack_success_rate <= 0.58


@pytest.mark.parametrize("name", ["flip-entry", "harden-matrix-in-log-flip-entry"])
def test_flip_entry_bit_flips_iff_reconciled_bit_set(name):
    # Flipping entry (0, 0) changes Bob's key bit 0 by reconciled bit 0,
    # so the counterfactual must match it on every completed trial.
    reports, _ = run_scenario(small(name, 300))
    completed = [r for r in reports if r.bob_verdict != "abort"]
    assert len(completed) >= 290
    for r in completed:
        assert r.aux["bit_flipped"] == (r.aux["reconciled_bit"] == 1), r.trial_index


def test_empty_sifted_key_aborts_instead_of_crashing():
    # Four raw bits leave no matching basis in about 1 trial in 16.
    params = SessionParams(n_raw=4, key_len=2, tail_len=1)
    reports, summary = run_scenario(small("baseline", 200, params=params, checks=()))
    assert summary.trials == 200
    assert any(r.alice_verdict == r.bob_verdict == "abort" for r in reports)


def test_randomize_single_row_divergence():
    # one random replacement row agrees with the original's parity half the time
    cfg = small("randomize-rows", 10_000, attack=AttackSpec("randomize-rows", {"r": 1}))
    cfg = dataclasses.replace(cfg, checks=())
    _, summary = run_scenario(cfg)
    assert summary.accept_rate_alice == 1.0
    assert summary.accept_rate_bob == 1.0
    assert 0.45 <= summary.key_mismatch_rate <= 0.55


@pytest.mark.parametrize("r", [1, None], ids=["r1", "default-r"])
def test_randomize_rows_keys_differ_iff_a_randomized_row_flips_parity(r):
    # Exact per-trial form of the divergence rate: only the first r rows are
    # replaced, and Bob's key bit i moves by
    # parity((Bob's row i xor Alice's row i) . reconciled).
    cfg = small("randomize-rows", 300)
    if r is not None:
        cfg = dataclasses.replace(cfg, attack=AttackSpec("randomize-rows", {"r": r}), checks=())
    r = cfg.attack.options["r"]
    reports, _ = run_scenario(cfg, dump_states=True)
    moved = []
    for rep in reports:
        alice, bob = rep.aux["dump"]["alice"], rep.aux["dump"]["bob"]
        rows_a = [read_hex(line).value for line in alice["pa_matrix"][1:]]
        rows_b = [read_hex(line).value for line in bob["pa_matrix"][1:]]
        key = read_hex(alice["reconciled"])
        assert read_hex(bob["reconciled"]) == key
        assert rows_a[r:] == rows_b[r:]
        flips = any(((a ^ b) & key.value).bit_count() & 1 for a, b in zip(rows_a[:r], rows_b[:r]))
        assert (rep.keys_equal is False) == flips, rep.trial_index
        moved.append(flips)
    assert any(moved)
    if r == 1:
        assert not all(moved)


def test_all_builtin_checks_pass_at_reduced_trials():
    # cut trial counts for speed; bands stay comfortably wide at 200 trials
    for name, config in BUILTIN_SCENARIOS.items():
        trials = min(config.trials, 25 if name == "collision-impersonation" else 200)
        loosened = []
        for c in config.checks:
            if c.lo == c.hi:
                loosened.append(c)
            elif c.metric in ("attack_success_rate", "key_mismatch_rate"):
                loosened.append(Check(c.metric, max(0.0, c.lo - 0.08), min(1.0, c.hi + 0.08)))
            else:
                loosened.append(c)
        cfg = dataclasses.replace(config, trials=trials, checks=tuple(loosened))
        _, summary = run_scenario(cfg)
        results = evaluate_checks(summary, cfg.checks)
        assert all(r.passed for r in results), (name, results)


# ------------------------------------------------------- reproducibility


def test_trials_jsonl_byte_identical(tmp_path):
    cfg = small("extract-bits", 25)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_trials_jsonl(run_scenario(cfg)[0], p1)
    write_trials_jsonl(run_scenario(cfg)[0], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_master_seed_changes_trials():
    r1, _ = run_scenario(small("baseline", 5))
    r2, _ = run_scenario(small("baseline", 5, master_seed=1))
    assert [r.seed for r in r1] != [r.seed for r in r2]


def test_worker_count_invariance(tmp_path):
    trials = {"collision-impersonation": 2, "flip-entry": 16}
    for name in BUILTIN_SCENARIOS:
        cfg = small(name, trials.get(name, 4))
        r1, _ = run_scenario(cfg, workers=1)
        path = tmp_path / f"{name}.1.jsonl"
        write_trials_jsonl(r1, path)
        for workers in (2, 3):
            rw, _ = run_scenario(cfg, workers=workers)
            assert rw == r1, (name, workers)
            other = tmp_path / f"{name}.{workers}.jsonl"
            write_trials_jsonl(rw, other)
            assert other.read_bytes() == path.read_bytes(), (name, workers)


class _StandInPool:
    """A ProcessPoolExecutor stand-in: records its size and maps in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "workers, trials, started",
    [(8, 3, [3]), (2, 3, [2]), (4, 1, []), (1, 3, [])],
    ids=["more-workers-than-trials", "fewer-workers-than-trials", "one-trial", "one-worker"],
)
def test_pool_starts_at_most_one_worker_per_trial(monkeypatch, workers, trials, started):
    sizes = []
    stand_in = functools.partial(_StandInPool, sizes)
    monkeypatch.setattr(scenarios_mod, "ProcessPoolExecutor", stand_in)
    cfg = small("zero-rows", trials)
    reports, _ = run_scenario(cfg, workers=workers)
    assert sizes == started
    assert reports == [run_trial(cfg, i) for i in range(trials)]


def test_single_trial_matches_batch():
    cfg = small("randomize-rows", 6)
    reports, _ = run_scenario(cfg)
    assert run_trial(cfg, 3) == reports[3]


def test_jsonl_roundtrip(tmp_path):
    reports, _ = run_scenario(small("otp-malleability", 10))
    path = tmp_path / "t.jsonl"
    write_trials_jsonl(reports, path)
    assert read_trials_jsonl(path) == reports


# ----------------------------------------------------------- summaries


def test_summary_counts_consistent():
    reports, summary = run_scenario(small("flip-entry", 60))
    assert summary.trials == 60 == len(reports)
    for rate in (
        summary.accept_rate_alice,
        summary.accept_rate_bob,
        summary.key_mismatch_rate,
        summary.attack_success_rate,
    ):
        assert 0.0 <= rate <= 1.0
    assert summary.attack_success_rate == sum(r.attack_success for r in reports) / 60


def test_from_reports_counts_each_rate_exactly():
    # Each party accepts in a different number of trials, and an aborted
    # trial (keys_equal null) is not a mismatch.
    rows = [
        ("accept", "accept", True, False),
        ("accept", "accept", False, True),
        ("accept", "reject", False, True),
        ("reject", "accept", None, True),
        ("abort", "abort", None, False),
        ("accept", "reject", True, False),
        ("accept", "accept", True, False),
    ]
    reports = [TrialReport(i, i, *row, {}) for i, row in enumerate(rows)]
    summary = BatchSummary.from_reports("mixed", reports, 2.5)
    assert summary == BatchSummary(
        scenario="mixed",
        trials=7,
        accept_rate_alice=5 / 7,
        accept_rate_bob=4 / 7,
        key_mismatch_rate=2 / 7,
        attack_success_rate=3 / 7,
        wall_time_s=2.5,
    )


def test_summary_metrics_are_the_summary_fields_between_trials_and_wall_time():
    fields = tuple(f.name for f in dataclasses.fields(BatchSummary))
    assert ("scenario", "trials", *SUMMARY_METRICS, "wall_time_s") == fields


def test_csv_empty_has_header(tmp_path):
    path = tmp_path / "s.csv"
    write_summary_csv([], path)
    assert path.read_text().strip() == (
        "scenario,trials,accept_rate_alice,accept_rate_bob,"
        "key_mismatch_rate,attack_success_rate,wall_time_s"
    )


def test_csv_one_row(tmp_path):
    summary = BatchSummary("demo", 10, 1.0, 0.9, 0.0, 0.5, 1.25)
    path = tmp_path / "s.csv"
    write_summary_csv([summary], path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1] == "demo,10,1,0.9,0,0.5,1.250"


def test_claims_table_flags_out_of_band():
    summary = BatchSummary("demo", 10, 1.0, 1.0, 0.0, 0.2, 0.1)
    config = ScenarioConfig(
        "demo", claim="always succeeds", checks=(Check("attack_success_rate", 0.9, 1.0),)
    )
    text = format_claims_table([(config, summary)])
    assert "FAIL" in text and "OUT OF BAND" in text
    passing = format_claims_table(
        [(dataclasses.replace(config, checks=(Check("attack_success_rate", 0.1, 0.3),)), summary)]
    )
    assert "PASS" in passing


# -------------------------------------------------------------- sweeps


def test_sweep_w_tracks_random_oracle_prediction():
    cfg = small("collision-impersonation", 300)
    cfg = dataclasses.replace(
        cfg, checks=(), attack=AttackSpec("collision-impersonation", {"search_budget": 1 << 10})
    )
    entries = sweep(cfg, "w", [8, 12, 16])
    rates = [e.summary.attack_success_rate for e in entries]
    for e, rate in zip(entries, rates):
        predicted = 1 - (1 - 2.0**-e.value) ** (1 << 10)
        assert abs(rate - predicted) <= 0.05, (e.value, rate, predicted)
    assert rates[0] > rates[1] > rates[2]
    assert [e.summary.scenario for e in entries] == [
        "collision-impersonation[w=8]",
        "collision-impersonation[w=12]",
        "collision-impersonation[w=16]",
    ]


def test_sweep_r_tracks_row_divergence():
    cfg = dataclasses.replace(small("randomize-rows", 1000), checks=())
    entries = sweep(cfg, "r", [1, 8, 64])
    for e in entries:
        predicted = 1 - 2.0 ** -e.value
        assert abs(e.summary.key_mismatch_rate - predicted) <= 0.05, e.value


def test_sweep_qber_abort_concentration():
    # ~1e4 sifted bits; the sampled rate concentrates far from the 0.11 threshold
    cfg = dataclasses.replace(
        small("baseline", 100),
        checks=(),
        params=dataclasses.replace(SessionParams(), n_raw=20000),
    )
    entries = sweep(cfg, "qber", [0.0, 0.05, 0.15])
    aborts = [
        sum(r.alice_verdict == "abort" for r in e.reports) / len(e.reports) for e in entries
    ]
    assert aborts == [0.0, 0.0, 1.0]


def _abort_probability_term_by_term(params: SessionParams) -> Fraction:
    """exact_abort_probability's sum, one Fraction per sifted length."""
    n, q = params.n_raw, Fraction(params.qber)
    total = Fraction(0)
    for sifted in range(n + 1):
        if sifted == 0:
            p_abort = Fraction(1)
        else:
            k = math.ceil(params.sample_fraction * sifted)
            p_pass = sum(
                math.comb(k, m) * q**m * (1 - q) ** (k - m)
                for m in range(k + 1)
                if not Fraction(m, k) > params.abort_threshold
            )
            p_abort = 1 - p_pass if sifted - k >= params.key_len else Fraction(1)
        total += math.comb(n, sifted) * p_abort
    return total / 2**n


@pytest.mark.parametrize(
    "n_raw,key_len,qber,threshold",
    [(512, 16, 0.08, 0.11), (64, 24, 0.01, 0.11), (40, 4, 0.0, 0.0), (40, 4, 1.0, 0.5), (40, 4, 0.5, 1.0)],
)
def test_exact_abort_probability_is_its_binomial_sum(n_raw, key_len, qber, threshold):
    params = SessionParams(n_raw=n_raw, key_len=key_len, tail_len=0, qber=qber, abort_threshold=threshold)
    assert exact_abort_probability(params) == _abort_probability_term_by_term(params)


@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_builtin_bands_contain_their_analytic_rates(name):
    # A run of n trials reads a rate k / n, so each band must hold the
    # reading nearest the rate's exact value.
    config = builtin_scenario(name)
    bands = {check.metric: check for check in config.checks}
    rates = analytic_rates(config)
    assert rates and set(rates) <= set(bands)
    for rate, value in rates.items():
        reading = Fraction(round(value * config.trials), config.trials)
        assert bands[rate].lo <= reading <= bands[rate].hi, (rate, value, reading)


@pytest.mark.parametrize(
    "n_raw,key_len,qber",
    [
        (512, 16, 0.08),
        (512, 16, 0.11),
        (512, 16, 0.14),
        (64, 24, 0.01),  # mostly short-key aborts
    ],
)
def test_abort_rate_matches_exact_probability(n_raw, key_len, qber):
    params = SessionParams(n_raw=n_raw, key_len=key_len, tail_len=8, qber=qber)
    cfg = dataclasses.replace(small("baseline", 2000), checks=(), params=params, master_seed=5)
    reports, _ = run_scenario(cfg)
    aborts = sum(r.alice_verdict == "abort" for r in reports)
    assert all((r.alice_verdict == "abort") == (r.bob_verdict == "abort") for r in reports)
    lo, hi = wilson_interval(aborts, len(reports), z=4.0)
    assert lo <= exact_abort_probability(params) <= hi


def test_sweep_known_sets_number_of_known_bits():
    cfg = dataclasses.replace(small("extract-bits", 8), checks=())
    for e in sweep(cfg, "known", [1, 4]):
        assert all(len(r.aux["known"]) == e.value for r in e.reports)


def test_sweep_k_bounds_search_budget():
    cfg = dataclasses.replace(small("collision-impersonation", 4), checks=())
    (entry,) = sweep(cfg, "K", [16])
    assert all(r.aux["candidates_examined"] <= 16 for r in entry.reports)


def test_sweep_axis_errors():
    # sweep steps and validates every value before it runs any, so these run nothing.
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        sweep(builtin_scenario("baseline"), "turbo", [3])
    with pytest.raises(ConfigError, match="applies to randomize-rows"):
        sweep(builtin_scenario("baseline"), "r", [3])
    with pytest.raises(ConfigError, match="applies to collision-impersonation"):
        sweep(builtin_scenario("baseline"), "K", [3])
    with pytest.raises(ConfigError, match="applies to extract-bits"):
        sweep(builtin_scenario("baseline"), "known", [3])
    with pytest.raises(ConfigError, match="qber must lie in"):
        sweep(builtin_scenario("baseline"), "qber", [2.0])
    with pytest.raises(ConfigError, match="hash_width must lie in"):
        sweep(builtin_scenario("baseline"), "w", [0])
    # Values of the wrong type are refused, not truncated to another value.
    rows = builtin_scenario("randomize-rows")
    with pytest.raises(ConfigError, match="axis 'r' value must be an integer, got 1.5"):
        sweep(rows, "r", [1.5])
    with pytest.raises(ConfigError, match="axis 'w' value must be an integer, got 12.9"):
        sweep(builtin_scenario("baseline"), "w", [12.9])
    with pytest.raises(ConfigError, match="axis 'r' value must be an integer, got True"):
        sweep(rows, "r", [True])
    with pytest.raises(ConfigError, match="axis 'r' value must be an integer, got 'x'"):
        sweep(rows, "r", ["x"])
    with pytest.raises(ConfigError, match="axis 'qber' value must be a number, got 'x'"):
        sweep(builtin_scenario("baseline"), "qber", ["x"])
    # A valid integer qber still becomes a float, as the config field is.
    (entry,) = sweep(small("baseline", 1), "qber", [0])
    qber = entry.config.params.qber
    assert type(qber) is float and qber == 0.0
    (entry,) = sweep(small("randomize-rows", 1), "r", [3])
    assert entry.config.attack.options["r"] == 3


def test_sweep_validates_every_value_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setattr(scenarios_mod, "run_scenario", lambda c, workers=1: ran.append(c))
    cfg = dataclasses.replace(small("randomize-rows", 2), checks=())
    with pytest.raises(ConfigError, match="randomize-rows r must be at most key_len - tail_len"):
        sweep(cfg, "r", [1, 500])
    assert ran == []


def test_sweep_labels_each_value_as_applied():
    # An integer qber is swept, and labelled, as the float the field holds.
    cfg = dataclasses.replace(small("baseline", 1), checks=())
    (entry,) = sweep(cfg, "qber", [0])
    assert entry.value == 0.0 and type(entry.value) is float
    assert entry.summary.scenario == "baseline[qber=0.0]"


# ------------------------------------------------- success recomputation


def test_success_recomputable_from_dumped_states():
    checks = {
        "randomize-rows": lambda r, d: (
            r.alice_verdict == ACCEPT
            and r.bob_verdict == ACCEPT
            and d["alice"]["final_key"] != d["bob"]["final_key"]
        ),
        "flip-entry": lambda r, d: (
            r.bob_verdict == ACCEPT
            and read_hex(d["bob"]["full_key"])[0] != read_hex(d["honest_bob"]["full_key"])[0]
        ),
        "zero-rows": lambda r, d: (
            r.bob_verdict == ACCEPT and read_hex(d["bob"]["final_key"]).popcount() == 0
        ),
        "extract-bits": lambda r, d: (
            r.bob_verdict == ACCEPT and r.aux["prediction"] == read_hex(d["bob"]["full_key"])[0]
        ),
    }
    for name, recompute in checks.items():
        reports, _ = run_scenario(small(name, 12), dump_states=True)
        for r in reports:
            assert r.attack_success == recompute(r, r.aux["dump"]), (name, r.trial_index)


@pytest.mark.parametrize("w", [1, 2, 4, 8])
@pytest.mark.parametrize("attack", ["randomize-rows", "flip-entry", "zero-rows", "extract-bits"])
def test_matrix_in_log_accepts_a_tampered_matrix_at_the_digest_width_rate(attack, w):
    # With the matrix in the log, a tampered matrix gives the parties
    # different extracts under an untouched MAC, so each accepts exactly
    # when the two truncated digests on the wire agree: at rate 2^-w.
    cfg = small(f"harden-matrix-in-log-{attack}", 200)
    params = dataclasses.replace(cfg.params, n_raw=512, key_len=64, tail_len=32, qber=0.0, hash_width=w)
    cfg = dataclasses.replace(cfg, params=params)
    if attack == "randomize-rows":  # the builtin's r = 128 exceeds the 32 rows outside the tail
        cfg = dataclasses.replace(cfg, attack=AttackSpec(attack, {"r": 32}))
    reports, _ = run_scenario(cfg, dump_states=True)
    for r in reports:
        assert r.aux["tampered_frames"] == 1, r.trial_index
        digests = {
            e["kind"]: e["payload"]["digest"]
            for e in r.aux["dump"]["transcript"]
            if e["kind"] in ("AUTH_TAG_A", "AUTH_TAG_B")
        }
        verdict = ACCEPT if digests["AUTH_TAG_A"] == digests["AUTH_TAG_B"] else "reject"
        assert (r.alice_verdict, r.bob_verdict) == (verdict, verdict), r.trial_index
    accepts = sum(r.bob_verdict == ACCEPT for r in reports)
    lo, hi = wilson_interval(accepts, len(reports), z=4.0)
    assert lo <= 2.0**-w <= hi, (attack, w, accepts)


@pytest.mark.parametrize("hardening", list(HardeningKind))
def test_flip_entry_honest_bob_is_bob_of_the_untampered_session(hardening):
    # Tiny sessions abort in some trials (3, 5, 6 and 9 here), so both branches run.
    params = SessionParams(n_raw=64, key_len=16, tail_len=8)
    cfg = small("flip-entry", 12, params=params, hardening=hardening)
    reports, _ = run_scenario(cfg, dump_states=True)
    plain, _ = run_scenario(cfg)
    assert any(r.bob_verdict == "abort" for r in reports)
    for r, p in zip(reports, plain):
        honest = render_payload(run_session(params, r.seed, hardening=hardening).bob.state)
        assert r.aux.pop("dump")["honest_bob"] == honest, r.trial_index
        assert r == p  # dumping leaves the rest of the record as it is


def test_extract_bits_dump_knowledge_is_genuine():
    reports, _ = run_scenario(small("extract-bits", 8), dump_states=True)
    for r in reports:
        reconciled = read_hex(r.aux["dump"]["bob"]["reconciled"])
        parity = 0
        for pos, bit in r.aux["known"]:
            assert reconciled[pos] == bit
            parity ^= bit
        assert parity == r.aux["prediction"] == r.aux["actual"]


def test_collision_success_recomputable():
    reports, summary = run_scenario(small("collision-impersonation", 10))
    assert summary.attack_success_rate >= 0.9
    for r in reports:
        assert r.attack_success == (r.aux["found"] and r.aux["impersonation_accepted"])
        # The attacker holds Bob's key, and Bob's verdict is the acceptance.
        assert r.aux["attacker_key"] == r.aux["bob_key"]
        assert r.aux["impersonation_accepted"] == (r.bob_verdict == ACCEPT)
        if r.attack_success:
            assert r.bob_verdict == ACCEPT
    # One candidate finds nothing: Bob rejects, and neither side holds a key.
    budget_one = AttackSpec("collision-impersonation", {"search_budget": 1})
    for r in run_scenario(small("collision-impersonation", 4, attack=budget_one))[0]:
        assert not r.aux["found"] and not r.attack_success
        assert r.bob_verdict == "reject" and not r.aux["impersonation_accepted"]
        assert r.aux["attacker_key"] is None and r.aux["bob_key"] is None


def test_otp_success_recomputable():
    reports, _ = run_scenario(small("otp-malleability", 10))
    for r in reports:
        plaintext = read_hex(r.aux["plaintext"])
        indicator = BitVector.from_positions(len(plaintext), r.aux["bit_positions"])
        assert r.attack_success == (read_hex(r.aux["recovered"]) == plaintext ^ indicator)
        assert r.attack_success


def test_otp_dump_holds_the_session_whether_or_not_a_pad_is_released():
    # Tiny sessions abort in some trials, so the no-pad path runs too.
    params = SessionParams(n_raw=64, key_len=16, tail_len=8)
    cfg = small("otp-malleability", 12, params=params)
    reports, _ = run_scenario(cfg, dump_states=True)
    plain, _ = run_scenario(cfg)
    assert {r.bob_verdict for r in reports} == {"abort", ACCEPT}
    for r, p in zip(reports, plain):
        result = run_session(params, r.seed)
        assert r.aux.pop("dump") == scenarios_mod._dump_session(result), r.trial_index
        assert r == p  # dumping leaves the rest of the record as it is


# The aux keys of each builtin's trial records, in order, and the keys of the
# session that dump_states adds under "dump" (None: the trial dumps nothing).
_FRAME = ("tampered_frames", "pa_matrix_frames")
_SESSION = ("alice", "bob", "transcript")
BUILTIN_AUX_KEYS = {
    "baseline": (_FRAME, _SESSION),
    "randomize-rows": ((*_FRAME, "rows_randomized"), _SESSION),
    "flip-entry": ((*_FRAME, "bit_flipped", "reconciled_bit"), (*_SESSION, "honest_bob")),
    "zero-rows": ((*_FRAME, "bob_key_all_zero"), _SESSION),
    "extract-bits": ((*_FRAME, "prediction", "actual", "known"), _SESSION),
    "collision-impersonation": (
        ("found", "candidates_examined", "impersonation_accepted", "attacker_key", "bob_key"),
        None,
    ),
    "otp-malleability": (("bit_positions", "plaintext", "recovered"), _SESSION),
    "harden-matrix-in-log-randomize-rows": ((*_FRAME, "rows_randomized"), _SESSION),
    "harden-matrix-in-log-flip-entry": (
        (*_FRAME, "bit_flipped", "reconciled_bit"),
        (*_SESSION, "honest_bob"),
    ),
    "harden-matrix-in-log-zero-rows": ((*_FRAME, "bob_key_all_zero"), _SESSION),
    "harden-matrix-in-log-extract-bits": ((*_FRAME, "prediction", "actual", "known"), _SESSION),
    "harden-derived-matrix": ((*_FRAME, "bob_key_all_zero", "matrices_equal"), _SESSION),
}


def test_aux_key_table_covers_every_builtin():
    assert BUILTIN_AUX_KEYS.keys() == BUILTIN_SCENARIOS.keys()


@pytest.mark.parametrize("dump", [False, True], ids=["plain", "dump"])
@pytest.mark.parametrize("name", BUILTIN_AUX_KEYS)
def test_builtin_records_carry_exactly_their_aux_keys(name, dump):
    keys, dump_keys = BUILTIN_AUX_KEYS[name]
    reports, _ = run_scenario(small(name, 2), dump_states=dump)
    for r in reports:
        if dump and dump_keys is not None:
            assert tuple(r.aux.pop("dump")) == dump_keys
        assert tuple(r.aux) == keys


def test_dump_states_off_by_default():
    reports, _ = run_scenario(small("baseline", 2))
    assert all("dump" not in r.aux for r in reports)


# ------------------------------------------------------------- configs


def test_config_roundtrip():
    for name in BUILTIN_SCENARIOS:
        cfg = builtin_scenario(name)
        assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_file_loading(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps(
            {
                "name": "tiny",
                "trials": 3,
                "params": {"n_raw": 512, "key_len": 32, "tail_len": 16},
                "attack": {"name": "zero-rows"},
                "checks": [{"metric": "attack_success_rate", "lo": 1.0, "hi": 1.0}],
            }
        )
    )
    cfg = load_config_file(path)
    assert cfg.trials == 3
    assert cfg.params.key_len == 32
    _, summary = run_scenario(cfg)
    assert summary.attack_success_rate == 1.0


def test_config_file_rejects_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config_file(path)


@pytest.mark.parametrize(
    "overrides,match",
    [
        ({"trials": 0}, "trials must be at least 1"),
        ({"master_seed": -1}, "master_seed"),
        ({"bogus": 1}, "unknown config field 'bogus'"),
        ({"params": {"nraw": 1}}, "unknown params field 'nraw'"),
        ({"params": {"qber": 2.0}}, "qber"),
        ({"params": 5}, "must be an object"),
        ({"attack": "zero-rows"}, '"attack" must be an object'),
        ({"attack": {"name": "warp"}}, "unknown attack 'warp'"),
        ({"attack": {"name": "zero-rows", "r": 1}}, "unknown option 'r'"),
        (
            {"attack": {"name": "randomize-rows", "r": 300}},
            "randomize-rows r must be at most key_len - tail_len = 128, got 300",
        ),
        ({"attack": {"name": "flip-entry", "row": 128}}, "flip-entry row"),
        ({"attack": {"name": "flip-entry", "col": -1}}, "col must be nonnegative"),
        ({"attack": {"name": "extract-bits", "target_row": 200}}, "target_row"),
        (
            {"attack": {"name": "extract-bits", "num_known": 2, "known_positions": [1]}},
            "only one of",
        ),
        ({"attack": {"name": "extract-bits", "known_positions": []}}, "nonempty"),
        ({"attack": {"name": "collision-impersonation"}}, "matrix_in_log"),
        ({"attack": {"name": "otp-malleability", "bit_positions": [500]}}, "bit_positions"),
        ({"attack": {"name": "otp-malleability", "num_flips": 0}}, "num_flips"),
        ({"hardening": "fortified"}, "unknown hardening mode"),
        ({"checks": [{"metric": "bogus", "lo": 0, "hi": 1}]}, "unknown check metric"),
        ({"checks": [{"metric": "attack_success_rate", "lo": 0}]}, "exactly the fields"),
        ({"checks": "all"}, '"checks" must be a list'),
        ({"attack": {"name": "flip-entry", "row": "3"}}, "row must be an integer"),
        ({"attack": {"name": "flip-entry", "col": True}}, "col must be an integer"),
        ({"attack": {"name": "randomize-rows", "r": None}}, "randomize-rows r must be an integer, got None"),
        ({"attack": {"name": "randomize-rows", "r": 1.5}}, "r must be an integer"),
        (
            {"attack": {"name": "collision-impersonation", "search_budget": 1e6}},
            "search_budget must be an integer",
        ),
        (
            {"attack": {"name": "extract-bits", "known_positions": [1, "2"]}},
            "known_positions must be a list of integers",
        ),
        ({"attack": {"name": "otp-malleability", "bit_positions": 3}}, "list of integers"),
        ({"attack": {"name": "flip-entry", "col": 100000}}, "col must lie below n_raw"),
        ({"attack": {"name": "flip-entry", "col": 8192}}, "col must lie below n_raw"),
        (
            {"attack": {"name": "extract-bits", "known_positions": [100000]}},
            r"known_positions must lie in \[0, n_raw",
        ),
        (
            {"attack": {"name": "extract-bits", "known_positions": [-1]}},
            r"known_positions must lie in \[0, n_raw",
        ),
        ({"attack": {"name": "extract-bits", "num_known": 100000}}, "num_known must be at most n_raw"),
        (
            {"attack": {"name": "extract-bits", "known_positions": [5, 3, 3]}},
            "known_positions must be distinct, 3 repeats",
        ),
        (
            {
                "params": {"tail_len": 0},
                "hardening": "matrix_in_log",
                "attack": {"name": "collision-impersonation"},
            },
            "collision-impersonation needs tail_len >= 1",
        ),
        ({"params": {"n_raw": 64}, "trials": 20}, "key_len must be below n_raw = 64, got 256"),
        ({"trials": "x"}, "trials must be an integer, got 'x'"),
        ({"params": {"n_raw": "100"}}, "params n_raw must be an integer, got '100'"),
        (
            {"checks": [{"metric": "accept_rate_bob", "lo": "a", "hi": 1}]},
            "check lo must be a number, got 'a'",
        ),
        ({"trials": 2.7}, "trials must be an integer, got 2.7"),
        ({"master_seed": True}, "master_seed must be an integer, got True"),
        ({"master_seed": 1.0}, "master_seed must be an integer, got 1.0"),
        ({"params": {"key_len": True}}, "params key_len must be an integer, got True"),
        ({"params": {"qber": "0.1"}}, "params qber must be a number, got '0.1'"),
        ({"params": {"sample_fraction": False}}, "params sample_fraction must be a number"),
        (
            {"checks": [{"metric": "accept_rate_bob", "lo": 0, "hi": True}]},
            "check hi must be a number, got True",
        ),
        ({"attack": {"name": ["x"]}}, r"attack name must be a string, got \['x'\]"),
        ({"attack": {"name": 3}}, "attack name must be a string, got 3"),
        ({"name": ["x"]}, r"name must be a string, got \['x'\]"),
        ({"name": 7}, "name must be a string, got 7"),
        ({"claim": {"a": 1}}, "claim must be a string, got {'a': 1}"),
        ({"claim": 0.5}, "claim must be a string, got 0.5"),
        (
            {"checks": [{"metric": "accept_rate_bob", "lo": 1, "hi": 0}]},
            "check accept_rate_bob lo 1 exceeds hi 0",
        ),
        # The log writes lengths and positions as u32.
        ({"params": {"n_raw": 10**30}, "trials": 1}, r"n_raw must lie in \[1, 2\*\*32\)"),
        ({"params": {"n_raw": 2**32}, "trials": 1}, r"n_raw must lie in \[1, 2\*\*32\)"),
        (
            {"attack": {"name": "otp-malleability", "bit_positions": [3, 5], "num_flips": 7}},
            "only one of bit_positions and num_flips",
        ),
        (
            {"attack": {"name": "otp-malleability", "bit_positions": [3, 3, 5]}},
            "bit_positions must be distinct, 3 repeats",
        ),
        # Each bound, one past its last valid value.
        (
            {"attack": {"name": "randomize-rows", "r": 129}},
            "randomize-rows r must be at most key_len - tail_len = 128, got 129",
        ),
        (
            {"attack": {"name": "extract-bits", "num_known": 8193}},
            "extract-bits num_known must be at most n_raw = 8192, got 8193",
        ),
        (
            {"attack": {"name": "otp-malleability", "num_flips": 129}},
            "otp-malleability num_flips must be at most key_len - tail_len = 128, got 129",
        ),
        (
            {"attack": {"name": "otp-malleability", "bit_positions": [0, 128]}},
            r"bit_positions must lie in \[0, key_len - tail_len = 128\), got 128",
        ),
        ({"params": {"n_raw": 256}}, "key_len must be below n_raw = 256, got 256"),
        # Only an option whose default is none may be given null.
        ({"attack": {"name": "extract-bits", "num_known": None}}, "num_known must be an integer, got None"),
        # No rate meets a NaN bound.
        (
            {"checks": [{"metric": "accept_rate_bob", "lo": math.nan, "hi": 1}]},
            "check lo must be a finite number, got nan",
        ),
        (
            {"checks": [{"metric": "accept_rate_bob", "lo": 0, "hi": math.inf}]},
            "check hi must be a finite number, got inf",
        ),
        (
            {"checks": [{"metric": "accept_rate_bob", "lo": -(10**400), "hi": 1}]},
            "check lo must be a finite number, got -1000",
        ),
    ],
)
def test_config_validation_errors(overrides, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(overrides)


_MODES = "baseline, matrix_in_log, derived_matrix"
_METRICS = "accept_rate_alice, accept_rate_bob, key_mismatch_rate, attack_success_rate"


@pytest.mark.parametrize(
    "refuse, message",
    [
        pytest.param(
            lambda: config_from_dict({"attack": {"name": "warp"}}),
            "unknown attack 'warp', expected one of: passive, randomize-rows, flip-entry, "
            "zero-rows, extract-bits, collision-impersonation, otp-malleability",
            id="attack",
        ),
        pytest.param(
            lambda: sweep(builtin_scenario("baseline"), "turbo", [3]),
            "unknown sweep axis 'turbo', expected one of: qber, r, K, w, known",
            id="sweep-axis",
        ),
        pytest.param(
            lambda: builtin_scenario("warp-field"),
            "unknown scenario 'warp-field', expected one of: baseline, randomize-rows, "
            "flip-entry, zero-rows, extract-bits, collision-impersonation, otp-malleability, "
            "harden-matrix-in-log-randomize-rows, harden-matrix-in-log-flip-entry, "
            "harden-matrix-in-log-zero-rows, harden-matrix-in-log-extract-bits, "
            "harden-derived-matrix",
            id="scenario",
        ),
        # Config and params fields are listed sorted, not in declaration order.
        pytest.param(
            lambda: config_from_dict({"bogus": 1}),
            "unknown config field 'bogus', expected one of: attack, checks, claim, hardening, "
            "master_seed, name, params, trials",
            id="config-field",
        ),
        pytest.param(
            lambda: config_from_dict({"params": {"nraw": 1}}),
            "unknown params field 'nraw', expected one of: abort_threshold, hash_width, "
            "key_len, n_raw, qber, sample_fraction, tail_len",
            id="params-field",
        ),
        pytest.param(
            lambda: config_from_dict({"hardening": "fortified"}),
            f"unknown hardening mode 'fortified', expected one of: {_MODES}",
            id="hardening",
        ),
        pytest.param(
            lambda: config_from_dict({"hardening": ["matrix_in_log"]}),
            f"unknown hardening mode ['matrix_in_log'], expected one of: {_MODES}",
            id="hardening-list",
        ),
        pytest.param(
            lambda: config_from_dict({"checks": [{"metric": "bogus", "lo": 0, "hi": 1}]}),
            f"unknown check metric 'bogus', expected one of: {_METRICS}",
            id="check-metric",
        ),
        pytest.param(
            lambda: config_from_dict(
                {"checks": [{"metric": ["accept_rate_bob"], "lo": 0, "hi": 1}]}
            ),
            f"unknown check metric ['accept_rate_bob'], expected one of: {_METRICS}",
            id="check-metric-list",
        ),
    ],
)
def test_unknown_name_refusal_lists_every_valid_name(refuse, message):
    with pytest.raises(ConfigError) as info:
        refuse()
    assert str(info.value) == message


def test_config_file_defaults_are_the_dataclass_defaults():
    assert config_from_dict({}) == ScenarioConfig()
    assert ScenarioConfig().trials == 100


def test_option_given_in_place_of_its_pair_leaves_the_others_default_unchecked():
    # num_known's default of 8 exceeds n_raw = 6 and is refused, unless
    # known_positions is given in its place.
    tiny = {"params": {"n_raw": 6, "key_len": 4, "tail_len": 2}, "trials": 1}
    with pytest.raises(ConfigError, match="extract-bits num_known must be at most n_raw = 6, got 8"):
        config_from_dict({**tiny, "attack": {"name": "extract-bits"}})
    config_from_dict({**tiny, "attack": {"name": "extract-bits", "known_positions": [0, 1]}})
    # An explicit null of an option whose default is none means that default,
    # so the other option of its pair may be given with it.
    config_from_dict(
        {**tiny, "attack": {"name": "otp-malleability", "bit_positions": None, "num_flips": 2}}
    )
    config_from_dict(
        {**tiny, "attack": {"name": "extract-bits", "known_positions": None, "num_known": 2}}
    )
    config_from_dict({**tiny, "attack": {"name": "otp-malleability", "num_flips": None}})


def test_key_len_just_below_n_raw_is_valid():
    config = config_from_dict({"params": {"n_raw": 257}, "trials": 1})
    assert (config.params.n_raw, config.params.key_len) == (257, 256)


@pytest.mark.parametrize(
    "attack,field",
    [
        ({"name": "flip-entry", "col": 3600}, "reconciled_bit"),
        ({"name": "extract-bits", "known_positions": [3, 3600]}, "prediction"),
        ({"name": "extract-bits", "num_known": 3600}, "prediction"),
    ],
)
def test_options_past_a_trials_reconciled_key_leave_the_attack_unmounted(attack, field):
    # Reconciled keys at the default n_raw are ~3,584 bits, so position 3600
    # lies past the key in some trials (3,542 bits in trial 0). Those trials
    # run to the end with the matrix frame untouched and no success.
    reports, _ = run_scenario(config_from_dict({"name": "past-key", "attack": attack, "trials": 20}))
    unmounted = [r for r in reports if r.aux[field] is None]
    assert 0 in [r.trial_index for r in unmounted]
    for r in unmounted:
        assert r.aux["tampered_frames"] == 0
        assert not r.attack_success
        assert r.bob_verdict == "accept"


def test_run_scenario_validates():
    cfg = dataclasses.replace(builtin_scenario("baseline"), trials=0)
    with pytest.raises(ConfigError, match="trials"):
        run_scenario(cfg)


# ------------------------------------------------------------- reports


def test_report_dir_roundtrip(tmp_path):
    cfg = small("zero-rows", 8)
    reports, summary = run_scenario(cfg)
    write_report([(cfg, reports, summary)], tmp_path)
    rows = load_report_dir(tmp_path)
    assert len(rows) == 1
    config2, reports2, summary2 = rows[0]
    assert reports2 == reports
    assert summary2.attack_success_rate == summary.attack_success_rate
    assert summary2.trials == summary.trials
    assert config2.checks == cfg.checks


def test_report_dir_records_the_environment_apart_from_the_trials(tmp_path):
    cfg = small("zero-rows", 4)
    reports, summary = run_scenario(cfg)
    write_report([(cfg, reports, summary)], tmp_path, workers=3)
    manifest = json.loads((tmp_path / "run.json").read_text())
    env = manifest["environment"]
    assert env == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "workers": 3,
        "search_lanes": 1,
    }
    assert "environment" not in (tmp_path / "trials.jsonl").read_text()
    assert "environment" not in manifest["entries"][0]["summary"]
    write_report([(cfg, reports, summary)], tmp_path, workers=1)
    env = json.loads((tmp_path / "run.json").read_text())["environment"]
    assert env["workers"] == 1 and env["search_lanes"] == min(env["cpus"], 4)


def test_report_dir_written_without_an_environment_still_loads(tmp_path):
    # run.json as written before it held an environment block.
    cfg = small("zero-rows", 8)
    reports, summary = run_scenario(cfg)
    write_report([(cfg, reports, summary)], tmp_path)
    path = tmp_path / "run.json"
    manifest = json.loads(path.read_text())
    del manifest["environment"]
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    [(config2, reports2, summary2)] = load_report_dir(tmp_path)
    assert config2 == dataclasses.replace(cfg, name=summary.scenario)
    assert reports2 == reports and summary2 == summary


def test_report_dir_requires_manifest(tmp_path):
    with pytest.raises(ConfigError, match="run.json"):
        load_report_dir(tmp_path)


def test_write_report_multiple_scenarios(tmp_path):
    rows = []
    for name in ("baseline", "zero-rows"):
        cfg = small(name, 4)
        reports, summary = run_scenario(cfg)
        rows.append((cfg, reports, summary))
    written = write_report(rows, tmp_path)
    assert (tmp_path / "baseline.trials.jsonl").exists()
    assert (tmp_path / "zero-rows.trials.jsonl").exists()
    assert (tmp_path / "summary.csv").read_text().count("\n") == 3
    assert "claims.txt" in written and "run.json" in written
    assert len(load_report_dir(tmp_path)) == 2


# ------------------------------------------------------- tiny-config fuzz

# Option values for each attack, reaching past the key on both sides. The
# collision search always gets a small budget: its default of 2^20
# candidates would take seconds per trial.
FUZZ_ATTACK_OPTIONS = {
    "passive": st.just({}),
    "randomize-rows": st.fixed_dictionaries({}, optional={"r": st.integers(-1, 42)}),
    "flip-entry": st.fixed_dictionaries(
        {}, optional={"row": st.integers(-1, 42), "col": st.integers(-1, 82)}
    ),
    "zero-rows": st.just({}),
    "extract-bits": st.fixed_dictionaries(
        {},
        optional={
            "target_row": st.integers(-1, 42),
            "num_known": st.integers(-1, 82),
            "known_positions": st.none() | st.lists(st.integers(-1, 82), max_size=4),
        },
    ),
    "collision-impersonation": st.fixed_dictionaries({"search_budget": st.integers(0, 64)}),
    "otp-malleability": st.fixed_dictionaries(
        {},
        optional={
            "bit_positions": st.none() | st.lists(st.integers(-1, 42), max_size=4),
            "num_flips": st.integers(-1, 42),
        },
    ),
}

# Sizes are drawn uniformly (st.integers favours its bounds), so most
# configs are valid; key_len >= n_raw and tail_len == key_len still come up.
tiny_params = st.fixed_dictionaries(
    {
        "n_raw": st.sampled_from(range(1, 81)),
        "key_len": st.sampled_from(range(1, 41)),
        "qber": st.sampled_from([0.0, 1e-9, 0.03, 0.5, 1 - 1e-9, 1.0]),
        "sample_fraction": st.sampled_from([1e-9, 0.125, 0.5, 1 - 1e-9]),
        "abort_threshold": st.sampled_from([0.0, 1e-9, 0.11, 0.5, 1.0]),
        "hash_width": st.sampled_from([1, 2, 8, 128]),
    }
).flatmap(lambda p: st.sampled_from(range(p["key_len"] + 1)).map(lambda t: {**p, "tail_len": t}))


def test_fuzz_covers_every_attack():
    assert set(FUZZ_ATTACK_OPTIONS) == set(_ATTACKS)


@pytest.mark.parametrize("hardening", [k.value for k in HardeningKind])
@pytest.mark.parametrize("attack", sorted(FUZZ_ATTACK_OPTIONS))
@settings(deadline=None, database=None, max_examples=40)
@given(params=tiny_params, seed=st.integers(0, 2**16), dump=st.booleans(), data=st.data())
def test_tiny_configs_fail_validation_or_run_to_completion(attack, hardening, params, seed, dump, data):
    options = data.draw(FUZZ_ATTACK_OPTIONS[attack])
    d = {
        "params": params,
        "attack": {"name": attack, **options},
        "hardening": hardening,
        "trials": 3,
        "master_seed": seed,
    }
    try:
        config = config_from_dict(d)
    except ConfigError:
        return
    reports, _ = run_scenario(config, dump_states=dump)
    assert [r.trial_index for r in reports] == [0, 1, 2]
    verdicts = {v.value for v in Verdict}
    for r in reports:
        assert r.alice_verdict in verdicts and r.bob_verdict in verdicts
        assert TrialReport.from_json(r.to_json()) == r
        if attack == "extract-bits":
            # A record lists known bits exactly when the attack was mounted.
            assert (r.aux["known"] == []) is (r.aux["prediction"] is None), r.aux


def test_extract_bits_under_derived_matrix_knows_no_bits():
    # derived_matrix sends no matrix frame, so the attack is never mounted,
    # although every session reaches reconciliation.
    config = config_from_dict(
        {"attack": {"name": "extract-bits"}, "hardening": "derived_matrix", "trials": 3}
    )
    reports, _ = run_scenario(config)
    for r in reports:
        assert r.bob_verdict == "accept"
        assert r.aux["tampered_frames"] == 0
        assert r.aux["known"] == [] and r.aux["prediction"] is None
        assert r.attack_success is False


def _refuses(validate, config) -> bool:
    try:
        validate(config)
    except ConfigError:
        return True
    return False


@pytest.mark.parametrize("attack", sorted(ORACLE_ATTACKS))
@settings(deadline=None, database=None, max_examples=40)
@given(params=tiny_params, hardening=st.sampled_from(list(HardeningKind)))
def test_declared_option_ranges_refuse_what_the_hand_written_checks_refuse(
    attack, params, hardening
):
    try:
        session = SessionParams(**params)
    except ValueError:
        return  # tail_len == key_len is refused before any option is read
    non_tail = session.key_len - session.tail_len
    # Every combination of: no value, each side of every bound, an explicit
    # null, a value of the wrong kind, and lists empty, of one entry or of
    # one entry repeated.
    bounds = (non_tail, session.n_raw, MAX_SEARCH_BUDGET)
    edges = sorted({-1, 0, 1, *(b + d for b in bounds for d in (-1, 0, 1))})
    absent = object()
    values = {
        int: [absent, None, True, *edges],
        list: [absent, None, True, 1, [], *([q] for q in edges), *([q, q] for q in edges)],
    }
    options = ORACLE_ATTACKS[attack].options
    for combination in itertools.product(*(values[kind] for kind, _ in options.values())):
        given = {k: v for k, v in zip(options, combination) if v is not absent}
        config = ScenarioConfig(params=session, hardening=hardening, attack=AttackSpec(attack, given))
        # The oracle reads an explicit null of an option whose default is none
        # as that option left out.
        kept = {k: v for k, v in given.items() if not (v is None and options[k][1] is None)}
        oracle = dataclasses.replace(config, attack=AttackSpec(attack, kept))
        assert _refuses(validate_config, config) == _refuses(oracle_validate_config, oracle), given


# ------------------------------------------------------------ edge table

# Every edge runs on these params. No session aborts at master seed 0, and
# at hash_width 8 a collision search hits within its first chunk, whatever
# its budget, with its lanes sharing the claim counter.
_EDGE_PARAMS = SessionParams(n_raw=256, qber=0.0, key_len=32, tail_len=8, hash_width=8)
# SessionParams field -> (lo, hi, closed) at _EDGE_PARAMS's other fields:
# __post_init__'s ranges, and key_len below n_raw from validate_config.
_PARAM_RANGES = {
    "n_raw": (_EDGE_PARAMS.key_len + 1, 2**32, False),
    "key_len": (_EDGE_PARAMS.tail_len + 1, _EDGE_PARAMS.n_raw, False),
    "tail_len": (0, _EDGE_PARAMS.key_len, False),
    "hash_width": (1, 256, True),
}
_NON_TAIL = _EDGE_PARAMS.key_len - _EDGE_PARAMS.tail_len
_N_RAW = _EDGE_PARAMS.n_raw
# (attack, option) -> (lo, hi, closed), stated apart from the declarations
# in scenarios._ATTACKS, which must list no other option; for a list option,
# the range of each entry.
_OPTION_RANGES = {
    ("randomize-rows", "r"): (0, _NON_TAIL, True),
    ("flip-entry", "row"): (0, _NON_TAIL, False),
    ("flip-entry", "col"): (0, _N_RAW, False),
    ("extract-bits", "target_row"): (0, _NON_TAIL, False),
    ("extract-bits", "num_known"): (1, _N_RAW, True),
    ("extract-bits", "known_positions"): (0, _N_RAW, False),
    ("collision-impersonation", "search_budget"): (1, MAX_SEARCH_BUDGET, True),
    ("otp-malleability", "bit_positions"): (0, _NON_TAIL, False),
    ("otp-malleability", "num_flips"): (1, _NON_TAIL, True),
}
_HARDENING = {"collision-impersonation": HardeningKind.MATRIX_IN_LOG}


def _edges(lo: int, hi: int | None, closed: bool) -> list[tuple[int, bool]]:
    """(value, whether the range holds it) at lo - 1, lo, hi, hi + 1, 2^63 and 2^64."""
    values = {lo - 1, lo, 2**63, 2**64} | ({hi, hi + 1} if hi is not None else set())
    return [(v, lo <= v and (hi is None or v < hi + closed)) for v in sorted(values)]


def _edge_cases():
    """(id, config, whether it is in range) for every edge of every declared integer."""
    base = ScenarioConfig(params=_EDGE_PARAMS, trials=1)
    for field, bounds in _PARAM_RANGES.items():
        for value, ok in _edges(*bounds):
            try:
                params = dataclasses.replace(_EDGE_PARAMS, **{field: value})
            except ValueError:
                yield f"{field}={value}", None, ok
                continue
            yield f"{field}={value}", dataclasses.replace(base, params=params), ok
    for value, ok in _edges(0, None, False):
        yield f"master_seed={value}", dataclasses.replace(base, master_seed=value), ok
    for name, attack in _ATTACKS.items():
        hardening = _HARDENING.get(name, HardeningKind.BASELINE)
        for key, option in attack.options.items():
            for value, ok in _edges(*_OPTION_RANGES[name, key]):
                given = {key: value if option.kind is int else [value]}  # a list of one
                spec = AttackSpec(name, given)
                config = dataclasses.replace(base, attack=spec, hardening=hardening)
                yield f"{name}.{key}={value}", config, ok


_EDGE_CASES = list(_edge_cases())


@pytest.mark.parametrize(
    "config, in_range", [c[1:] for c in _EDGE_CASES], ids=[c[0] for c in _EDGE_CASES]
)
def test_every_integer_edge_is_refused_or_runs_alike_at_one_and_two_lanes(
    monkeypatch, config, in_range
):
    # A value out of its range is a ConfigError (or, for SessionParams, a
    # ValueError) before any trial runs; one in range gives one record,
    # whatever the number of search lanes.
    if config is None:
        assert not in_range
        return
    try:
        validate_config(config)
    except ConfigError:
        assert not in_range
        return
    assert in_range
    records = set()
    for lanes in (1, 2):
        monkeypatch.setattr(adversary_mod, "max_search_lanes", lambda: lanes)
        records.add(run_trial(config, 0).to_json())
    assert len(records) == 1
    adversary_mod.shutdown_search_lanes()


def test_a_session_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        run_session(_EDGE_PARAMS, -1)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        run_collision_impersonation(_EDGE_PARAMS, -1, 64)
    assert run_session(_EDGE_PARAMS, 0).bob.verdict is Verdict.ACCEPT
    assert run_collision_impersonation(_EDGE_PARAMS, 0, 4096).found
