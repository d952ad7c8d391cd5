"""Monte Carlo scenario runner.

A scenario bundles session parameters, a hardening mode, an attack and a
trial count. Each trial gets its own seed derived from the scenario master
seed and its index, so results do not depend on execution order or worker
count and any run can be reproduced bit for bit from (scenario, seed).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .adversary import (
    ExtractBitsStrategy,
    FlipEntryStrategy,
    RandomizeRowsStrategy,
    ZeroRowsStrategy,
    demo_otp_malleability,
    otp_decrypt,
    otp_encrypt,
    run_collision_impersonation,
)
from .channel import AttackStrategy, Channel, FrameType
from .gf2 import BitVector
from .hardening import HardeningKind, HardeningMode
from .pipeline import SessionParams, SessionResult, Verdict, run_session
from .seeding import make_rng, trial_seed


class ConfigError(ValueError):
    """A scenario configuration violates a constraint."""


@dataclass(frozen=True)
class Check:
    """Declared acceptance band for one summary metric."""

    metric: str
    lo: float
    hi: float


@dataclass(frozen=True)
class AttackSpec:
    name: str
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    params: SessionParams = SessionParams()
    hardening: HardeningMode = HardeningMode()
    attack: AttackSpec = AttackSpec("passive")
    trials: int = 1000
    master_seed: int = 0
    claim: str = ""
    checks: tuple[Check, ...] = ()


@dataclass(frozen=True, slots=True)
class TrialReport:
    trial_index: int
    seed: int
    alice_verdict: str
    bob_verdict: str
    keys_equal: bool | None
    attack_success: bool
    aux: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "trial_index": self.trial_index,
                "seed": self.seed,
                "alice_verdict": self.alice_verdict,
                "bob_verdict": self.bob_verdict,
                "keys_equal": self.keys_equal,
                "attack_success": self.attack_success,
                "aux": self.aux,
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "TrialReport":
        d = json.loads(line)
        return cls(
            trial_index=d["trial_index"],
            seed=d["seed"],
            alice_verdict=d["alice_verdict"],
            bob_verdict=d["bob_verdict"],
            keys_equal=d["keys_equal"],
            attack_success=d["attack_success"],
            aux=d["aux"],
        )


@dataclass(frozen=True)
class BatchSummary:
    scenario: str
    trials: int
    accept_rate_alice: float
    accept_rate_bob: float
    key_mismatch_rate: float
    attack_success_rate: float
    wall_time_s: float

    @classmethod
    def from_reports(
        cls, scenario: str, reports: Sequence[TrialReport], wall_time_s: float
    ) -> "BatchSummary":
        n = len(reports)
        accept = Verdict.ACCEPT.value
        return cls(
            scenario=scenario,
            trials=n,
            accept_rate_alice=sum(r.alice_verdict == accept for r in reports) / n,
            accept_rate_bob=sum(r.bob_verdict == accept for r in reports) / n,
            key_mismatch_rate=sum(r.keys_equal is False for r in reports) / n,
            attack_success_rate=sum(r.attack_success for r in reports) / n,
            wall_time_s=wall_time_s,
        )


SUMMARY_METRICS = (
    "accept_rate_alice",
    "accept_rate_bob",
    "key_mismatch_rate",
    "attack_success_rate",
)


@dataclass(frozen=True)
class CheckResult:
    check: Check
    value: float
    passed: bool


def evaluate_checks(summary: BatchSummary, checks: Iterable[Check]) -> list[CheckResult]:
    results = []
    for check in checks:
        value = getattr(summary, check.metric)
        results.append(CheckResult(check, value, check.lo <= value <= check.hi))
    return results


# ------------------------------------------------------------- validation

ATTACK_NAMES = (
    "passive",
    "randomize-rows",
    "flip-entry",
    "zero-rows",
    "extract-bits",
    "collision-impersonation",
    "otp-malleability",
)

_ATTACK_OPTION_KEYS = {
    "passive": set(),
    "randomize-rows": {"r"},
    "flip-entry": {"row", "col"},
    "zero-rows": set(),
    "extract-bits": {"target_row", "num_known", "known_positions"},
    "collision-impersonation": {"search_budget"},
    "otp-malleability": {"bit_positions", "num_flips"},
}


def validate_config(config: ScenarioConfig) -> None:
    """Reject invalid scenarios with a message naming the violated constraint."""
    if config.trials < 1:
        raise ConfigError(f"trials must be at least 1, got {config.trials}")
    if config.master_seed < 0:
        raise ConfigError("master_seed must be nonnegative")
    attack = config.attack
    if attack.name not in ATTACK_NAMES:
        raise ConfigError(
            f"unknown attack {attack.name!r}, expected one of: {', '.join(ATTACK_NAMES)}"
        )
    allowed = _ATTACK_OPTION_KEYS[attack.name]
    for key in attack.options:
        if key not in allowed:
            raise ConfigError(
                f"unknown option {key!r} for attack {attack.name!r}"
                + (f", allowed: {', '.join(sorted(allowed))}" if allowed else "")
            )
    p = config.params
    non_tail = p.key_len - p.tail_len
    opts = attack.options
    if attack.name == "randomize-rows":
        r = opts.get("r", non_tail)
        if not 0 <= r <= non_tail:
            raise ConfigError(
                f"randomize-rows needs 0 <= r <= key_len - tail_len = {non_tail}, got {r}"
            )
    elif attack.name == "flip-entry":
        row = opts.get("row", 0)
        if not 0 <= row < non_tail:
            raise ConfigError(
                f"flip-entry row must lie in [0, {non_tail}), got {row}: tail rows are "
                "covered by the authenticated log"
            )
        if opts.get("col", 0) < 0:
            raise ConfigError("flip-entry col must be nonnegative")
    elif attack.name == "extract-bits":
        row = opts.get("target_row", 0)
        if not 0 <= row < non_tail:
            raise ConfigError(f"extract-bits target_row must lie in [0, {non_tail}), got {row}")
        if "num_known" in opts and "known_positions" in opts:
            raise ConfigError("give only one of num_known and known_positions")
        if opts.get("num_known", 8) < 1:
            raise ConfigError("extract-bits num_known must be at least 1")
        if "known_positions" in opts and not opts["known_positions"]:
            raise ConfigError("extract-bits known_positions must be nonempty")
    elif attack.name == "collision-impersonation":
        if config.hardening.kind is not HardeningKind.MATRIX_IN_LOG:
            raise ConfigError(
                "collision-impersonation targets the matrix_in_log variant; set "
                'hardening to "matrix_in_log"'
            )
        if opts.get("search_budget", 1 << 20) < 1:
            raise ConfigError("collision-impersonation search_budget must be at least 1")
    elif attack.name == "otp-malleability":
        positions = opts.get("bit_positions")
        if positions is not None:
            if not positions:
                raise ConfigError("otp-malleability bit_positions must be nonempty")
            bad = [q for q in positions if not 0 <= q < non_tail]
            if bad:
                raise ConfigError(
                    f"otp-malleability bit_positions must lie in [0, {non_tail}), got {bad[0]}"
                )
        if not 1 <= opts.get("num_flips", 1) <= non_tail:
            raise ConfigError(f"otp-malleability num_flips must lie in [1, {non_tail}]")


# ------------------------------------------------------------------ trials


def _build_strategy(config: ScenarioConfig, adv_rng) -> AttackStrategy:
    opts = config.attack.options
    tail = config.params.tail_len
    name = config.attack.name
    if name == "passive":
        return AttackStrategy()
    if name == "randomize-rows":
        return RandomizeRowsStrategy(
            r=opts.get("r", config.params.key_len - tail), tail_len=tail, rng=adv_rng
        )
    if name == "flip-entry":
        return FlipEntryStrategy(i=opts.get("row", 0), j=opts.get("col", 0), tail_len=tail)
    if name == "zero-rows":
        return ZeroRowsStrategy(tail_len=tail)
    if name == "extract-bits":
        return ExtractBitsStrategy(
            target_row=opts.get("target_row", 0),
            tail_len=tail,
            rng=adv_rng,
            known_positions=opts.get("known_positions"),
            num_known=None if "known_positions" in opts else opts.get("num_known", 8),
        )
    raise ConfigError(f"attack {name!r} does not run as a frame strategy")


def _verdicts(result: SessionResult) -> tuple[str, str]:
    return result.alice.verdict.value, result.bob.verdict.value


def _keys_equal(result: SessionResult) -> bool | None:
    if result.alice.verdict is Verdict.ABORT:
        return None
    return result.alice.state.final_key == result.bob.state.final_key


def _dump_session(result: SessionResult) -> dict:
    return {
        "alice": result.alice.state.to_json_dict(),
        "bob": result.bob.state.to_json_dict(),
        "transcript": json.loads(result.channel.transcript_json()),
    }


def _frame_trial(
    config: ScenarioConfig, params: SessionParams, seed: int, dump_states: bool
) -> TrialReport:
    name = config.attack.name
    adv_rng = make_rng(seed, "adversary")
    strategy = _build_strategy(config, adv_rng)
    result = run_session(params, channel=Channel(strategy), hardening=config.hardening)
    alice_v, bob_v = _verdicts(result)
    keys_equal = _keys_equal(result)
    both_accept = alice_v == bob_v == Verdict.ACCEPT.value
    aux: dict = {
        "tampered_frames": sum(e.tampered for e in result.channel.transcript),
        "pa_matrix_frames": result.channel.count(FrameType.PA_MATRIX),
    }
    # Success predicates, per attack. An attack only counts as successful
    # when it goes undetected, i.e. Bob still accepts:
    # passive: never counts as a success.
    # randomize-rows: keys diverged and neither party noticed.
    # flip-entry: Bob's key bit differs from the same-seed untampered run.
    #   Reconciliation is exact, so untampered Bob's key equals Alice's.
    # zero-rows: Bob accepted an all-zero final key.
    # extract-bits: the parity prediction matches Bob's actual key bit.
    bob_accepts = bob_v == Verdict.ACCEPT.value
    if name == "randomize-rows":
        success = keys_equal is False and both_accept
        aux["rows_randomized"] = config.attack.options.get(
            "r", params.key_len - params.tail_len
        )
    elif name == "flip-entry":
        i = config.attack.options.get("row", 0)
        j = config.attack.options.get("col", 0)
        flipped = (
            result.bob.verdict is not Verdict.ABORT
            and result.bob.state.full_key[i] != result.alice.state.full_key[i]
        )
        success = flipped and bob_accepts
        aux["bit_flipped"] = flipped
        aux["reconciled_bit"] = (
            None if result.bob.state.reconciled is None else result.bob.state.reconciled[j]
        )
    elif name == "zero-rows":
        all_zero = (
            result.bob.state.final_key is not None
            and result.bob.state.final_key.popcount() == 0
        )
        success = all_zero and bob_accepts
        aux["bob_key_all_zero"] = all_zero
    elif name == "extract-bits":
        prediction = strategy.prediction
        actual = (
            None
            if result.bob.state.full_key is None
            else result.bob.state.full_key[config.attack.options.get("target_row", 0)]
        )
        success = prediction is not None and prediction == actual and bob_accepts
        aux["prediction"] = prediction
        aux["actual"] = actual
        aux["known"] = [list(pair) for pair in (strategy.known or [])]
    else:  # passive
        success = False

    if config.hardening.kind is HardeningKind.DERIVED_MATRIX:
        aux["matrices_equal"] = result.alice.state.pa_matrix == result.bob.state.pa_matrix
    if dump_states:
        aux["dump"] = _dump_session(result)
        if name == "flip-entry":
            honest = run_session(params, hardening=config.hardening)
            aux["dump"]["honest_bob"] = honest.bob.state.to_json_dict()
    return TrialReport(
        trial_index=-1,  # filled by the caller
        seed=seed,
        alice_verdict=alice_v,
        bob_verdict=bob_v,
        keys_equal=keys_equal,
        attack_success=success,
        aux=aux,
    )


def _collision_trial(
    config: ScenarioConfig, params: SessionParams, seed: int, dump_states: bool
) -> TrialReport:
    budget = config.attack.options.get("search_budget", 1 << 20)
    out = run_collision_impersonation(params, config.hardening, budget)
    # The exchange with the real Alice is dropped before the attacker would
    # return a tag, so she never accepts.
    alice_v = Verdict.ABORT.value if out.aborted else Verdict.REJECT.value
    aux = {
        "found": out.found,
        "candidates_examined": out.candidates_examined,
        "impersonation_accepted": out.impersonation_accepted,
        "attacker_key": None if out.attacker_key is None else out.attacker_key.to_hex(),
        "bob_key": None if out.bob_key is None else out.bob_key.to_hex(),
    }
    return TrialReport(
        trial_index=-1,
        seed=seed,
        alice_verdict=alice_v,
        bob_verdict=out.bob_verdict.value,
        keys_equal=None,
        attack_success=out.found and out.impersonation_accepted,
        aux=aux,
    )


def _otp_trial(
    config: ScenarioConfig, params: SessionParams, seed: int, dump_states: bool
) -> TrialReport:
    result = run_session(params, hardening=config.hardening)
    alice_v, bob_v = _verdicts(result)
    if result.bob.released_key is None:
        return TrialReport(-1, seed, alice_v, bob_v, _keys_equal(result), False, {})
    pad = result.bob.released_key
    n = len(pad)
    opts = config.attack.options
    adv_rng = make_rng(seed, "adversary")
    if opts.get("bit_positions") is not None:
        positions = sorted(opts["bit_positions"])
    else:
        count = opts.get("num_flips")
        if count is None:
            count = int(adv_rng.integers(1, n + 1))
        positions = sorted(int(q) for q in adv_rng.choice(n, count, replace=False))
    plaintext = BitVector.random(n, make_rng(seed, "application-message"))
    tampered = demo_otp_malleability(otp_encrypt(plaintext, pad), positions)
    recovered = otp_decrypt(tampered, pad)
    expected = plaintext ^ BitVector.from_positions(n, positions)
    aux = {
        "bit_positions": positions,
        "plaintext": plaintext.to_hex(),
        "recovered": recovered.to_hex(),
    }
    return TrialReport(
        trial_index=-1,
        seed=seed,
        alice_verdict=alice_v,
        bob_verdict=bob_v,
        keys_equal=_keys_equal(result),
        attack_success=recovered == expected,
        aux=aux,
    )


def run_trial(config: ScenarioConfig, index: int, dump_states: bool = False) -> TrialReport:
    """Run one trial; fully determined by (config, index)."""
    seed = trial_seed(config.master_seed, index)
    params = dataclasses.replace(config.params, master_seed=seed)
    name = config.attack.name
    if name == "collision-impersonation":
        report = _collision_trial(config, params, seed, dump_states)
    elif name == "otp-malleability":
        report = _otp_trial(config, params, seed, dump_states)
    else:
        report = _frame_trial(config, params, seed, dump_states)
    return dataclasses.replace(report, trial_index=index)


def _run_trial_star(args) -> TrialReport:
    return run_trial(*args)


def run_scenario(
    config: ScenarioConfig, workers: int = 1, dump_states: bool = False
) -> tuple[list[TrialReport], BatchSummary]:
    """Run all trials and summarize. Output is identical for any worker count."""
    validate_config(config)
    start = time.perf_counter()
    if workers <= 1:
        reports = [run_trial(config, i, dump_states) for i in range(config.trials)]
    else:
        jobs = [(config, i, dump_states) for i in range(config.trials)]
        chunk = max(1, config.trials // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_trial_star, jobs, chunksize=chunk))
    reports.sort(key=lambda r: r.trial_index)
    wall = time.perf_counter() - start
    return reports, BatchSummary.from_reports(config.name, reports, wall)


# ------------------------------------------------------------------ sweeps

SWEEP_AXES = ("qber", "r", "K", "w", "known")


def apply_axis(config: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    """Return a copy of config with one swept parameter changed."""
    if axis == "qber":
        return dataclasses.replace(
            config, params=dataclasses.replace(config.params, qber=float(value))
        )
    if axis == "w":
        return dataclasses.replace(
            config, params=dataclasses.replace(config.params, hash_width=int(value))
        )
    if axis == "r":
        if config.attack.name != "randomize-rows":
            raise ConfigError(f"axis 'r' applies to randomize-rows, not {config.attack.name!r}")
        return _with_option(config, "r", int(value))
    if axis == "K":
        if config.attack.name != "collision-impersonation":
            raise ConfigError(
                f"axis 'K' applies to collision-impersonation, not {config.attack.name!r}"
            )
        return _with_option(config, "search_budget", int(value))
    if axis == "known":
        if config.attack.name != "extract-bits":
            raise ConfigError(f"axis 'known' applies to extract-bits, not {config.attack.name!r}")
        return _with_option(config, "num_known", int(value))
    raise ConfigError(f"unknown sweep axis {axis!r}, expected one of: {', '.join(SWEEP_AXES)}")


def _with_option(config: ScenarioConfig, key: str, value) -> ScenarioConfig:
    options = dict(config.attack.options)
    options[key] = value
    return dataclasses.replace(config, attack=AttackSpec(config.attack.name, options))


@dataclass(frozen=True)
class SweepEntry:
    value: object
    config: ScenarioConfig
    reports: list[TrialReport]
    summary: BatchSummary


def sweep(
    config: ScenarioConfig,
    axis: str,
    values: Sequence,
    workers: int = 1,
) -> list[SweepEntry]:
    """Re-run the scenario once per value of one parameter axis."""
    entries = []
    for value in values:
        stepped = apply_axis(config, axis, value)
        stepped = dataclasses.replace(stepped, name=f"{config.name}[{axis}={value}]")
        reports, summary = run_scenario(stepped, workers=workers)
        entries.append(SweepEntry(value, stepped, reports, summary))
    return entries


# --------------------------------------------------------------- builtins


def _scenario(
    name: str,
    attack: AttackSpec,
    trials: int,
    claim: str,
    checks: Sequence[tuple[str, float, float]],
    hardening: HardeningMode = HardeningMode(),
    params: SessionParams = SessionParams(),
) -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        params=params,
        hardening=hardening,
        attack=attack,
        trials=trials,
        claim=claim,
        checks=tuple(Check(*c) for c in checks),
    )


_MATRIX_IN_LOG = HardeningMode(HardeningKind.MATRIX_IN_LOG)
_DERIVED = HardeningMode(HardeningKind.DERIVED_MATRIX)

# Attacks reused by the hardened variants of the same scenario.
_SECT3_ATTACKS = {
    "randomize-rows": AttackSpec("randomize-rows", {"r": 128}),
    "flip-entry": AttackSpec("flip-entry", {"row": 0, "col": 0}),
    "zero-rows": AttackSpec("zero-rows"),
    "extract-bits": AttackSpec("extract-bits", {"num_known": 8, "target_row": 0}),
}

BUILTIN_SCENARIOS: dict[str, ScenarioConfig] = {}
for _cfg in (
    _scenario(
        "baseline",
        AttackSpec("passive"),
        trials=1000,
        claim="Honest sessions always finish with both parties accepting the same key.",
        checks=[
            ("accept_rate_alice", 1.0, 1.0),
            ("accept_rate_bob", 1.0, 1.0),
            ("key_mismatch_rate", 0.0, 0.0),
            ("attack_success_rate", 0.0, 0.0),
        ],
    ),
    _scenario(
        "randomize-rows",
        _SECT3_ATTACKS["randomize-rows"],
        trials=1000,
        claim="Randomizing the non-tail matrix rows diverges the keys while both parties accept.",
        checks=[
            ("accept_rate_alice", 1.0, 1.0),
            ("accept_rate_bob", 1.0, 1.0),
            ("key_mismatch_rate", 0.999, 1.0),
            ("attack_success_rate", 0.999, 1.0),
        ],
    ),
    _scenario(
        "flip-entry",
        _SECT3_ATTACKS["flip-entry"],
        trials=10_000,
        claim="Flipping one non-tail matrix entry flips Bob's key bit about half the time, undetected.",
        checks=[
            ("accept_rate_alice", 1.0, 1.0),
            ("accept_rate_bob", 1.0, 1.0),
            ("attack_success_rate", 0.45, 0.55),
        ],
    ),
    _scenario(
        "zero-rows",
        _SECT3_ATTACKS["zero-rows"],
        trials=1000,
        claim="Zeroing the non-tail matrix rows forces Bob's final key to all zeros, undetected.",
        checks=[
            ("accept_rate_alice", 1.0, 1.0),
            ("accept_rate_bob", 1.0, 1.0),
            ("attack_success_rate", 1.0, 1.0),
        ],
    ),
    _scenario(
        "extract-bits",
        _SECT3_ATTACKS["extract-bits"],
        trials=1000,
        claim="A crafted matrix row makes one of Bob's key bits a parity the attacker predicts exactly.",
        checks=[
            ("accept_rate_alice", 1.0, 1.0),
            ("accept_rate_bob", 1.0, 1.0),
            ("attack_success_rate", 1.0, 1.0),
        ],
    ),
    _scenario(
        "collision-impersonation",
        AttackSpec("collision-impersonation", {"search_budget": 1 << 20}),
        trials=50,
        claim="Against a 16-bit log digest, a 2^20 matrix search lets a replayed tag impersonate Alice.",
        checks=[
            ("attack_success_rate", 0.99, 1.0),
            ("accept_rate_bob", 0.99, 1.0),
        ],
        hardening=_MATRIX_IN_LOG,
        params=dataclasses.replace(SessionParams(), hash_width=16),
    ),
    _scenario(
        "otp-malleability",
        AttackSpec("otp-malleability"),
        trials=100,
        claim="Flipping one-time-pad ciphertext bits flips exactly those plaintext bits.",
        checks=[
            ("accept_rate_alice", 1.0, 1.0),
            ("accept_rate_bob", 1.0, 1.0),
            ("attack_success_rate", 1.0, 1.0),
        ],
    ),
    *(
        _scenario(
            f"harden-matrix-in-log-{attack_name}",
            _SECT3_ATTACKS[attack_name],
            trials=1000,
            claim=f"With the matrix in the authenticated log, {attack_name} tampering is always rejected.",
            checks=[
                ("accept_rate_alice", 0.0, 0.0),
                ("accept_rate_bob", 0.0, 0.0),
                ("attack_success_rate", 0.0, 0.0),
            ],
            hardening=_MATRIX_IN_LOG,
        )
        for attack_name in _SECT3_ATTACKS
    ),
    _scenario(
        "harden-derived-matrix",
        _SECT3_ATTACKS["zero-rows"],
        trials=1000,
        claim="With the matrix derived from shared secret material, there is no matrix message to tamper with.",
        checks=[
            ("accept_rate_alice", 1.0, 1.0),
            ("accept_rate_bob", 1.0, 1.0),
            ("key_mismatch_rate", 0.0, 0.0),
            ("attack_success_rate", 0.0, 0.0),
        ],
        hardening=_DERIVED,
    ),
):
    BUILTIN_SCENARIOS[_cfg.name] = _cfg
del _cfg


def builtin_scenario(
    name: str, trials: int | None = None, master_seed: int | None = None
) -> ScenarioConfig:
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}, expected one of: {', '.join(BUILTIN_SCENARIOS)}"
        )
    config = BUILTIN_SCENARIOS[name]
    if trials is not None:
        config = dataclasses.replace(config, trials=trials)
    if master_seed is not None:
        config = dataclasses.replace(config, master_seed=master_seed)
    return config


# ------------------------------------------------------------ config files

_PARAM_FIELDS = {f.name for f in dataclasses.fields(SessionParams)} - {"master_seed"}
_CONFIG_FIELDS = {
    "name",
    "trials",
    "master_seed",
    "params",
    "hardening",
    "attack",
    "claim",
    "checks",
}


def config_from_dict(d: dict) -> ScenarioConfig:
    """Build a scenario from parsed JSON, rejecting unknown fields."""
    if not isinstance(d, dict):
        raise ConfigError("scenario config must be a JSON object")
    for key in d:
        if key not in _CONFIG_FIELDS:
            raise ConfigError(
                f"unknown config field {key!r}, expected one of: "
                + ", ".join(sorted(_CONFIG_FIELDS))
            )
    params_d = d.get("params", {})
    if not isinstance(params_d, dict):
        raise ConfigError('"params" must be an object')
    for key in params_d:
        if key not in _PARAM_FIELDS:
            raise ConfigError(
                f"unknown params field {key!r}, expected one of: "
                + ", ".join(sorted(_PARAM_FIELDS))
            )
    try:
        params = SessionParams(**params_d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    attack_raw = d.get("attack", {"name": "passive"})
    if not isinstance(attack_raw, dict) or "name" not in attack_raw:
        raise ConfigError('"attack" must be an object with a "name" field')
    attack_d = dict(attack_raw)
    attack = AttackSpec(attack_d.pop("name"), attack_d)
    try:
        hardening = HardeningMode.parse(d.get("hardening", "baseline"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    checks_raw = d.get("checks", [])
    if not isinstance(checks_raw, list):
        raise ConfigError('"checks" must be a list')
    checks = []
    for item in checks_raw:
        if not isinstance(item, dict) or set(item) != {"metric", "lo", "hi"}:
            raise ConfigError('each check needs exactly the fields "metric", "lo", "hi"')
        if item["metric"] not in SUMMARY_METRICS:
            raise ConfigError(
                f"unknown check metric {item['metric']!r}, expected one of: "
                + ", ".join(SUMMARY_METRICS)
            )
        checks.append(Check(item["metric"], float(item["lo"]), float(item["hi"])))
    config = ScenarioConfig(
        name=str(d.get("name", "custom")),
        params=params,
        hardening=hardening,
        attack=attack,
        trials=int(d.get("trials", 100)),
        master_seed=int(d.get("master_seed", 0)),
        claim=str(d.get("claim", "")),
        checks=tuple(checks),
    )
    validate_config(config)
    return config


def config_to_dict(config: ScenarioConfig) -> dict:
    """Inverse of config_from_dict, suitable for re-running a scenario."""
    params = {f: getattr(config.params, f) for f in sorted(_PARAM_FIELDS)}
    return {
        "name": config.name,
        "trials": config.trials,
        "master_seed": config.master_seed,
        "params": params,
        "hardening": config.hardening.kind.value,
        "attack": {"name": config.attack.name, **config.attack.options},
        "claim": config.claim,
        "checks": [
            {"metric": c.metric, "lo": c.lo, "hi": c.hi} for c in config.checks
        ],
    }


def load_config_file(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    return config_from_dict(d)


# --------------------------------------------------------------- reporting


def write_trials_jsonl(reports: Sequence[TrialReport], path) -> None:
    """One JSON object per line; bytes depend only on the reports."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for report in reports:
            fh.write(report.to_json())
            fh.write("\n")


def read_trials_jsonl(path) -> list[TrialReport]:
    with open(path, "r", encoding="utf-8") as fh:
        return [TrialReport.from_json(line) for line in fh if line.strip()]


_CSV_COLUMNS = (
    "scenario",
    "trials",
    "accept_rate_alice",
    "accept_rate_bob",
    "key_mismatch_rate",
    "attack_success_rate",
    "wall_time_s",
)


def write_summary_csv(summaries: Sequence[BatchSummary], path) -> None:
    """CSV summary table; the header row is written even for no summaries."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for s in summaries:
            writer.writerow(
                [
                    s.scenario,
                    s.trials,
                    f"{s.accept_rate_alice:.6g}",
                    f"{s.accept_rate_bob:.6g}",
                    f"{s.key_mismatch_rate:.6g}",
                    f"{s.attack_success_rate:.6g}",
                    f"{s.wall_time_s:.3f}",
                ]
            )


def format_claims_table(rows: Sequence[tuple[ScenarioConfig, BatchSummary]]) -> str:
    """Plain-text table mapping each scenario to the claim it checks."""
    lines = []
    for config, summary in rows:
        results = evaluate_checks(summary, config.checks)
        status = "PASS" if all(r.passed for r in results) else "FAIL"
        if not results:
            status = "----"
        lines.append(f"{status}  {summary.scenario}  (trials={summary.trials})")
        lines.append(f"      claim: {config.claim or '(none)'}")
        for r in results:
            mark = "ok" if r.passed else "OUT OF BAND"
            lines.append(
                f"      {r.check.metric} = {r.value:.6g}"
                f"  expected [{r.check.lo:g}, {r.check.hi:g}]  {mark}"
            )
    return "\n".join(lines) + "\n"


def _summary_dict(summary: BatchSummary) -> dict:
    return dataclasses.asdict(summary)


def write_report(
    rows: Sequence[tuple[ScenarioConfig, list[TrialReport], BatchSummary]],
    out_dir,
    formats: Sequence[str] = ("jsonl", "csv"),
) -> dict[str, str]:
    """Emit trial JSONL, the summary CSV, the claims table and a manifest.

    Returns the written paths keyed by artifact name. The manifest makes the
    directory self-describing, so `report` can rebuild the derived outputs
    from the per-trial records alone.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: dict[str, str] = {}
    manifest_entries = []
    for config, reports, summary in rows:
        entry = {
            "scenario": summary.scenario,
            "config": config_to_dict(config),
            "summary": _summary_dict(summary),
        }
        if "jsonl" in formats:
            stem = _filename_stem(summary.scenario)
            trials_name = f"{stem}.trials.jsonl" if len(rows) > 1 else "trials.jsonl"
            path = os.path.join(out_dir, trials_name)
            write_trials_jsonl(reports, path)
            entry["trials_file"] = trials_name
            written[trials_name] = path
        manifest_entries.append(entry)
    if "csv" in formats:
        path = os.path.join(out_dir, "summary.csv")
        write_summary_csv([s for _, _, s in rows], path)
        written["summary.csv"] = path
    claims_path = os.path.join(out_dir, "claims.txt")
    with open(claims_path, "w", encoding="utf-8") as fh:
        fh.write(format_claims_table([(c, s) for c, _, s in rows]))
    written["claims.txt"] = claims_path
    manifest_path = os.path.join(out_dir, "run.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump({"entries": manifest_entries}, fh, indent=2)
        fh.write("\n")
    written["run.json"] = manifest_path
    return written


def _filename_stem(scenario: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in scenario)


def load_report_dir(out_dir) -> list[tuple[ScenarioConfig, list[TrialReport], BatchSummary]]:
    """Rebuild (config, reports, summary) rows from a written report directory.

    Rates are recomputed from the per-trial records; the recorded wall time
    is kept since it cannot be reconstructed.
    """
    manifest_path = os.path.join(out_dir, "run.json")
    if not os.path.exists(manifest_path):
        raise ConfigError(f"{out_dir}: no run.json manifest; not a report directory")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    rows = []
    for entry in manifest["entries"]:
        config = config_from_dict(entry["config"])
        config = dataclasses.replace(config, name=entry["scenario"])
        if "trials_file" in entry:
            reports = read_trials_jsonl(os.path.join(out_dir, entry["trials_file"]))
            summary = BatchSummary.from_reports(
                entry["scenario"], reports, entry["summary"]["wall_time_s"]
            )
        else:
            reports = []
            summary = BatchSummary(**entry["summary"])
        rows.append((config, reports, summary))
    return rows
