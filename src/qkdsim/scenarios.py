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
import numbers
import os
import platform
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Sequence, get_type_hints

import numpy as np

from .adversary import (
    ExtractBitsStrategy,
    FlipEntryStrategy,
    RandomizeRowsStrategy,
    ZeroRowsStrategy,
    demo_otp_malleability,
    max_search_lanes,
    otp_decrypt,
    otp_encrypt,
    run_collision_impersonation,
    usable_cpus,
)
from .channel import AttackStrategy, Channel, FrameType
from .gf2 import BitMatrix, BitVector
from .hardening import HardeningKind
from .pipeline import Positions, SessionParams, SessionResult, Verdict, privacy_amplify, run_session
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
    name: str = "custom"
    params: SessionParams = SessionParams()
    hardening: HardeningKind = HardeningKind.BASELINE
    attack: AttackSpec = AttackSpec("passive")
    trials: int = 100
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
        return json.dumps({k: getattr(self, k) for k in self.__slots__}, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TrialReport":
        d = json.loads(line)
        if not (isinstance(d, dict) and d.keys() >= _TRIAL_KINDS.keys()):
            raise ValueError(f"expected an object with the fields {', '.join(_TRIAL_KINDS)}")
        for name, kind in _TRIAL_KINDS.items():
            _check_value(name, d[name], kind)
        return cls(*(d[k] for k in _TRIAL_KINDS))


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
        rates = {name: sum(map(counts, reports)) / n for name, counts in _RATES.items()}
        return cls(scenario=scenario, trials=n, wall_time_s=wall_time_s, **rates)


# Summary rate -> the per-trial test it counts; the rate is its share of the trials.
_RATES: dict[str, Callable[[TrialReport], bool]] = {
    "accept_rate_alice": lambda r: r.alice_verdict == Verdict.ACCEPT.value,
    "accept_rate_bob": lambda r: r.bob_verdict == Verdict.ACCEPT.value,
    "key_mismatch_rate": lambda r: r.keys_equal is False,
    "attack_success_rate": lambda r: r.attack_success,
}
SUMMARY_METRICS = tuple(_RATES)
# Field -> value kind (a key of _KINDS) of each record, as a report directory's reader checks it.
_TRIAL_KINDS = get_type_hints(TrialReport)
_SUMMARY_KINDS = get_type_hints(BatchSummary)


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


# ----------------------------------------------------------------- attacks


def _verdicts(result: SessionResult) -> tuple[str, str]:
    return result.alice.verdict.value, result.bob.verdict.value


def _keys_equal(result: SessionResult) -> bool | None:
    if result.alice.verdict is Verdict.ABORT:
        return None
    return result.alice.state.final_key == result.bob.state.final_key


def render_payload(payload: object) -> object:
    """JSON form of a trial record's value; a dataclass becomes a dict of its rendered fields."""
    if isinstance(payload, BitVector):
        return payload.to_hex()
    if isinstance(payload, BitMatrix):
        return payload.to_hex_lines()
    if isinstance(payload, Fraction):
        return f"{payload.numerator}/{payload.denominator}"
    if isinstance(payload, Positions):
        return payload.tolist()
    if isinstance(payload, bytes):
        return payload.hex()
    if dataclasses.is_dataclass(payload):
        return {f.name: render_payload(getattr(payload, f.name)) for f in dataclasses.fields(payload)}
    return payload


def _dump_session(result: SessionResult) -> dict:
    return {
        "alice": render_payload(result.alice.state),
        "bob": render_payload(result.bob.state),
        "transcript": [
            {
                "direction": e.direction,
                "kind": e.frame.kind.value,
                "tampered": e.tampered,
                "payload": render_payload(e.frame.payload),
            }
            for e in result.channel.transcript
        ],
    }


def _frame_trial(make_strategy, outcome, dump=None) -> Callable[..., tuple]:
    """Trial function of an attack that tampers with frames on the channel.

    make_strategy(opts, tail_len, adv_rng) builds the channel strategy.
    outcome(result, strategy, opts) gives whether the attack had its effect
    and the attack's own aux entries. The attack only counts as a success
    when it also goes undetected, i.e. Bob still accepts. dump(result,
    params), when given, adds the attack's own entries to a dumped session.
    """

    def trial(config: ScenarioConfig, params: SessionParams, opts: dict, dump_states: bool):
        strategy = make_strategy(opts, params.tail_len, make_rng(params.master_seed, "adversary"))
        result = run_session(params, channel=Channel(strategy), hardening=config.hardening)
        effect, extra = outcome(result, strategy, opts)
        aux: dict = {
            "tampered_frames": sum(e.tampered for e in result.channel.transcript),
            "pa_matrix_frames": len(result.channel.frames(FrameType.PA_MATRIX)),
            **extra,
        }
        if config.hardening is HardeningKind.DERIVED_MATRIX:
            aux["matrices_equal"] = result.alice.state.pa_matrix == result.bob.state.pa_matrix
        if dump_states:
            aux["dump"] = _dump_session(result)
            if dump is not None:
                aux["dump"].update(dump(result, params))
        success = effect and result.bob.verdict is Verdict.ACCEPT
        return (*_verdicts(result), _keys_equal(result), success, aux)

    return trial


def _randomize_rows_outcome(result: SessionResult, strategy, opts: dict):
    # The keys diverged and Alice did not notice either.
    diverged = _keys_equal(result) is False and result.alice.verdict is Verdict.ACCEPT
    return diverged, {"rows_randomized": opts["r"]}


def _flip_entry_outcome(result: SessionResult, strategy, opts: dict):
    # Bob's key bit differs from the same-seed untampered run's. Reconciliation
    # is exact, so untampered Bob's key equals Alice's.
    bob, row = result.bob.state, opts["row"]
    flipped = (
        result.bob.verdict is not Verdict.ABORT
        and bob.full_key[row] != result.alice.state.full_key[row]
    )
    reconciled, col = bob.reconciled, opts["col"]
    reconciled_bit = None if reconciled is None or col >= len(reconciled) else reconciled[col]
    return flipped, {"bit_flipped": flipped, "reconciled_bit": reconciled_bit}


def _flip_entry_dump(result: SessionResult, params: SessionParams) -> dict:
    # Only the matrix frame is tampered with, so the untampered session's Bob
    # is this Bob amplified with Alice's matrix.
    honest = dataclasses.replace(result.bob.state)
    if result.alice.state.pa_matrix is not None:
        privacy_amplify(honest, result.alice.state.pa_matrix, params)
    return {"honest_bob": render_payload(honest)}


def _zero_rows_outcome(result: SessionResult, strategy, opts: dict):
    key = result.bob.state.final_key
    all_zero = key is not None and key.popcount() == 0
    return all_zero, {"bob_key_all_zero": all_zero}


def _extract_bits_outcome(result: SessionResult, strategy, opts: dict):
    # The attacker knows Alice's reconciled bits at the positions it wrote into
    # the matrix; their parity, its prediction, matches Bob's actual key bit.
    positions = strategy.positions
    bits = [result.alice.state.reconciled[p] for p in positions]
    prediction = sum(bits) % 2 if bits else None
    full_key = result.bob.state.full_key
    actual = None if full_key is None else full_key[opts["target_row"]]
    return prediction is not None and prediction == actual, {
        "prediction": prediction,
        "actual": actual,
        "known": [[p, bit] for p, bit in zip(positions, bits)],
    }


def _collision_trial(config: ScenarioConfig, params: SessionParams, opts: dict, dump_states: bool):
    out = run_collision_impersonation(params, opts["search_budget"])
    # The exchange with the real Alice is dropped before the attacker would
    # return a tag, so she never accepts.
    alice_v = Verdict.ABORT.value if out.bob_verdict is Verdict.ABORT else Verdict.REJECT.value
    accepted = out.bob_verdict is Verdict.ACCEPT  # only a found matrix is ever accepted
    aux = {
        "found": out.found,
        "candidates_examined": out.candidates_examined,
        "impersonation_accepted": accepted,
        "attacker_key": render_payload(out.bob_key),  # the attacker holds Bob's key
        "bob_key": render_payload(out.bob_key),
    }
    return alice_v, out.bob_verdict.value, None, accepted, aux


def _otp_trial(config: ScenarioConfig, params: SessionParams, opts: dict, dump_states: bool):
    result = run_session(params, hardening=config.hardening)
    dump = {"dump": _dump_session(result)} if dump_states else {}
    pad = result.bob.released_key
    if pad is None:
        return (*_verdicts(result), _keys_equal(result), False, dump)
    n = len(pad)
    adv_rng = make_rng(params.master_seed, "adversary")
    positions = opts["bit_positions"]
    if positions is None:
        count = opts["num_flips"]
        if count is None:
            count = int(adv_rng.integers(1, n + 1))
        positions = adv_rng.choice(n, count, replace=False)
    positions = sorted(int(q) for q in positions)
    plaintext = BitVector.random(n, make_rng(params.master_seed, "application-message"))
    tampered = demo_otp_malleability(otp_encrypt(plaintext, pad), positions)
    recovered = otp_decrypt(tampered, pad)
    expected = plaintext ^ BitVector.from_positions(n, positions)
    aux = {
        "bit_positions": positions,
        "plaintext": plaintext.to_hex(),
        "recovered": recovered.to_hex(),
        **dump,
    }
    return (*_verdicts(result), _keys_equal(result), recovered == expected, aux)


# An option's upper bound, by the name its messages give it -> its value.
_BOUNDS = {"n_raw": lambda p: p.n_raw, "key_len - tail_len": lambda p: p.key_len - p.tail_len}


@dataclass(frozen=True)
class _Option:
    """One attack option: its kind (a key of _KINDS), its default and its range.

    A callable default is a function of the params. An integer must be at
    least lo and, when hi names a bound in _BOUNDS, lie below it, or be at
    most it when closed. A list must be nonempty and distinct, each entry in
    [lo, hi). Null means none: an option whose default is none may be given
    null for that default, and no other option may.
    """

    kind: type
    default: object
    lo: int = 0
    hi: str | None = None
    closed: bool = False


@dataclass(frozen=True)
class _Attack:
    """One attack: its options, its trial and its own config rules.

    trial(config, params, opts, dump_states) returns (alice verdict, bob
    verdict, keys_equal, attack_success, aux), with the options as resolve()
    gives them. A config may give only one of the two one_of options; the
    one given replaces the other. check(config) raises ConfigError for a
    rule that no option's range states.
    """

    options: dict[str, _Option]
    trial: Callable[..., tuple]
    one_of: tuple[str, ...] = ()
    check: Callable[[ScenarioConfig], None] = lambda config: None

    def resolve(self, params: SessionParams, given: dict) -> dict:
        """The given options over every option's default."""
        return {k: d(params) if callable(d := o.default) else d for k, o in self.options.items()} | given


def _check_collision(config: ScenarioConfig) -> None:
    if config.hardening is not HardeningKind.MATRIX_IN_LOG:
        raise ConfigError(
            "collision-impersonation targets the matrix_in_log variant; set "
            'hardening to "matrix_in_log"'
        )
    if config.params.tail_len < 1:
        # The search steers the digest through the logged key tail.
        raise ConfigError("collision-impersonation needs tail_len >= 1")


_ATTACKS: dict[str, _Attack] = {
    # Passive eavesdropping never counts as a success.
    "passive": _Attack(
        {}, _frame_trial(lambda opts, tail, rng: AttackStrategy(), lambda *_: (False, {}))
    ),
    "randomize-rows": _Attack(
        {"r": _Option(int, _BOUNDS["key_len - tail_len"], hi="key_len - tail_len", closed=True)},
        _frame_trial(
            lambda opts, tail, rng: RandomizeRowsStrategy(opts["r"], tail, rng),
            _randomize_rows_outcome,
        ),
    ),
    # Tail rows are covered by the authenticated log, and the reconciled key
    # is shorter than the raw key.
    "flip-entry": _Attack(
        {"row": _Option(int, 0, hi="key_len - tail_len"), "col": _Option(int, 0, hi="n_raw")},
        _frame_trial(
            lambda opts, tail, rng: FlipEntryStrategy(opts["row"], opts["col"], tail),
            _flip_entry_outcome,
            _flip_entry_dump,
        ),
    ),
    "zero-rows": _Attack(
        {}, _frame_trial(lambda opts, tail, rng: ZeroRowsStrategy(tail), _zero_rows_outcome)
    ),
    "extract-bits": _Attack(
        {
            "target_row": _Option(int, 0, hi="key_len - tail_len"),
            "num_known": _Option(int, 8, 1, "n_raw", closed=True),
            "known_positions": _Option(list, None, hi="n_raw"),
        },
        _frame_trial(
            lambda opts, tail, rng: ExtractBitsStrategy(
                opts["target_row"],
                tail,
                rng,
                known_positions=opts["known_positions"],
                num_known=opts["num_known"] if opts["known_positions"] is None else None,
            ),
            _extract_bits_outcome,
        ),
        one_of=("num_known", "known_positions"),
    ),
    "collision-impersonation": _Attack(
        {"search_budget": _Option(int, 1 << 20, 1)}, _collision_trial, check=_check_collision
    ),
    # num_flips None draws the number of flipped bits per trial.
    "otp-malleability": _Attack(
        {
            "bit_positions": _Option(list, None, hi="key_len - tail_len"),
            "num_flips": _Option(int, None, 1, "key_len - tail_len", closed=True),
        },
        _otp_trial,
        one_of=("bit_positions", "num_flips"),
    ),
}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# Value kind -> (what a value of that kind must be, its test). A list kind
# is a list of integer key positions.
_KINDS = {
    int: ("an integer", _is_int),
    float: ("a number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    bool | None: ("true, false or null", lambda v: v is None or isinstance(v, bool)),
    dict: ("an object", lambda v: isinstance(v, dict)),
    list: ("a list of integers", lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
}


def _check_value(what: str, value, kind: type) -> None:
    """Reject a value that is not of the given kind (a key of _KINDS)."""
    noun, ok = _KINDS[kind]
    if not ok(value):
        raise ConfigError(f"{what} must be {noun}, got {value!r}")


def _check_known(what: str, name, known: Iterable[str]) -> None:
    """Reject a name that is not one of known, listing them in the order given."""
    known = list(known)
    if name not in known:
        raise ConfigError(f"unknown {what} {name!r}, expected one of: {', '.join(known)}")


def _check_options(config: ScenarioConfig, attack: _Attack) -> None:
    """Reject an attack option that is unknown, of the wrong kind or out of range."""
    name, given, params = config.attack.name, config.attack.options, config.params
    for key, value in given.items():
        if key not in attack.options:
            raise ConfigError(
                f"unknown option {key!r} for attack {name!r}"
                + (f", allowed: {', '.join(sorted(attack.options))}" if attack.options else "")
            )
        option = attack.options[key]
        if value is not None or option.default is not None:
            _check_value(f"{name} {key}", value, option.kind)
    used = [k for k in attack.one_of if given.get(k) is not None]
    if len(used) > 1:
        raise ConfigError(f"give only one of {' and '.join(used)}")
    for key, value in attack.resolve(params, given).items():
        option, what = attack.options[key], f"{name} {key}"
        if value is None:
            continue  # null means none
        if key not in given and key in attack.one_of and used:
            continue  # the other option of the pair is given in its place
        hi = option.hi and _BOUNDS[option.hi](params)
        bound = f"{option.hi} = {hi}"
        if option.kind is list:
            if not value:
                raise ConfigError(f"{what} must be nonempty")
            bad = [q for q in value if not option.lo <= q < hi]
            if bad:
                raise ConfigError(f"{what} must lie in [{option.lo}, {bound}), got {bad[0]}")
            repeated = [q for q, c in Counter(value).items() if c > 1]
            if repeated:
                # A repeated position would enter the extract-bits prediction
                # twice but its row once, and flip an otp plaintext bit once.
                raise ConfigError(f"{what} must be distinct, {repeated[0]} repeats")
        elif value < option.lo:
            least = "nonnegative" if option.lo == 0 else f"at least {option.lo}"
            raise ConfigError(f"{what} must be {least}, got {value}")
        elif option.hi and value >= hi + option.closed:
            most = "be at most" if option.closed else "lie below"
            raise ConfigError(f"{what} must {most} {bound}, got {value}")


def validate_config(config: ScenarioConfig) -> None:
    """Reject invalid scenarios with a message naming the violated constraint."""
    if config.trials < 1:
        raise ConfigError(f"trials must be at least 1, got {config.trials}")
    if config.master_seed < 0:
        raise ConfigError("master_seed must be nonnegative")
    params = config.params
    if params.key_len >= params.n_raw:
        # A non-empty sift discloses at least one sample bit.
        raise ConfigError(
            f"key_len must be below n_raw = {params.n_raw}, got {params.key_len}: "
            "the reconciled key has at most n_raw - 1 bits"
        )
    _check_known("attack", config.attack.name, _ATTACKS)
    attack = _ATTACKS[config.attack.name]
    _check_options(config, attack)
    attack.check(config)


# ------------------------------------------------------------------ trials


def run_trial(config: ScenarioConfig, index: int, dump_states: bool = False) -> TrialReport:
    """Run one trial; fully determined by (config, index)."""
    seed = trial_seed(config.master_seed, index)
    params = dataclasses.replace(config.params, master_seed=seed)
    attack = _ATTACKS[config.attack.name]
    opts = attack.resolve(params, config.attack.options)
    return TrialReport(index, seed, *attack.trial(config, params, opts, dump_states))


def run_scenario(
    config: ScenarioConfig, workers: int = 1, dump_states: bool = False
) -> tuple[list[TrialReport], BatchSummary]:
    """Run all trials and summarize. Output is identical for any worker count;
    a pool starts at most one process per trial, and none for one trial."""
    validate_config(config)
    start = time.perf_counter()
    workers = min(workers, config.trials)
    if workers <= 1:
        reports = [run_trial(config, i, dump_states) for i in range(config.trials)]
    else:
        chunk = max(1, config.trials // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            jobs = (repeat(config), range(config.trials), repeat(dump_states))
            reports = list(pool.map(run_trial, *jobs, chunksize=chunk))
    wall = time.perf_counter() - start
    return reports, BatchSummary.from_reports(config.name, reports, wall)


# ------------------------------------------------------------------ sweeps

# Sweep axis -> the SessionParams field, or the (attack, option), it steps.
_AXES: dict[str, str | tuple[str, str]] = {
    "qber": "qber",
    "r": ("randomize-rows", "r"),
    "K": ("collision-impersonation", "search_budget"),
    "w": "hash_width",
    "known": ("extract-bits", "num_known"),
}
SWEEP_AXES = tuple(_AXES)


def _step(config: ScenarioConfig, axis: str, value) -> tuple[object, ScenarioConfig]:
    """Return value as applied to axis, a plain int or float, and config with it applied."""
    _check_known("sweep axis", axis, _AXES)
    target, what = _AXES[axis], f"axis {axis!r} value"
    if isinstance(target, str):
        kind = _PARAM_TYPES[target]
        _check_value(what, value, kind)
        try:
            value = kind(value)
            params = dataclasses.replace(config.params, **{target: value})
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{what} {value!r}: {exc}") from exc
        return value, dataclasses.replace(config, params=params)
    name, option = target
    if config.attack.name != name:
        raise ConfigError(f"axis {axis!r} applies to {name}, not {config.attack.name!r}")
    kind = _ATTACKS[name].options[option].kind
    _check_value(what, value, kind)
    value = kind(value)
    options = {**config.attack.options, option: value}
    return value, dataclasses.replace(config, attack=AttackSpec(name, options))


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
    """Re-run the scenario once per value of one parameter axis.

    Every value is stepped and validated before any of them runs, so a bad
    value fails the sweep up front.
    """
    steps = []
    for value in values:
        value, stepped = _step(config, axis, value)
        stepped = dataclasses.replace(stepped, name=f"{config.name}[{axis}={value}]")
        validate_config(stepped)
        steps.append((value, stepped))
    return [SweepEntry(v, c, *run_scenario(c, workers=workers)) for v, c in steps]


# --------------------------------------------------------------- builtins


def _scenario(
    name: str, attack: AttackSpec, checks: Sequence[tuple[str, float, float]], **fields
) -> ScenarioConfig:
    """A builtin scenario; the fields it does not give keep ScenarioConfig's defaults."""
    return ScenarioConfig(name, attack=attack, checks=tuple(Check(*c) for c in checks), **fields)


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
        hardening=HardeningKind.MATRIX_IN_LOG,
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
            hardening=HardeningKind.MATRIX_IN_LOG,
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
        hardening=HardeningKind.DERIVED_MATRIX,
    ),
):
    BUILTIN_SCENARIOS[_cfg.name] = _cfg
del _cfg


def builtin_scenario(
    name: str, trials: int | None = None, master_seed: int | None = None
) -> ScenarioConfig:
    _check_known("scenario", name, BUILTIN_SCENARIOS)
    config = BUILTIN_SCENARIOS[name]
    if trials is not None:
        config = dataclasses.replace(config, trials=trials)
    if master_seed is not None:
        config = dataclasses.replace(config, master_seed=master_seed)
    return config


# ------------------------------------------------------------ config files

# Session parameter -> its type (int or float), read off the field default.
_PARAM_TYPES = {
    f.name: type(f.default) for f in dataclasses.fields(SessionParams) if f.name != "master_seed"
}
# Config field -> the type of its default; int and str fields are scalars.
_CONFIG_TYPES = {f.name: type(f.default) for f in dataclasses.fields(ScenarioConfig)}


def config_from_dict(d: dict) -> ScenarioConfig:
    """Build a scenario from parsed JSON, rejecting unknown fields."""
    if not isinstance(d, dict):
        raise ConfigError("scenario config must be a JSON object")
    for key in d:
        _check_known("config field", key, sorted(_CONFIG_TYPES))
    params_d = d.get("params", {})
    if not isinstance(params_d, dict):
        raise ConfigError('"params" must be an object')
    for key, value in params_d.items():
        _check_known("params field", key, sorted(_PARAM_TYPES))
        _check_value(f"params {key}", value, _PARAM_TYPES[key])
    scalars = {k: v for k, v in d.items() if _CONFIG_TYPES[k] in (int, str)}
    for key, value in scalars.items():
        _check_value(key, value, _CONFIG_TYPES[key])
    try:
        params = SessionParams(**params_d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    attack_raw = d.get("attack", {"name": "passive"})
    if not isinstance(attack_raw, dict) or "name" not in attack_raw:
        raise ConfigError('"attack" must be an object with a "name" field')
    attack_d = dict(attack_raw)
    attack = AttackSpec(attack_d.pop("name"), attack_d)
    _check_value("attack name", attack.name, str)
    mode = d.get("hardening", "baseline")
    _check_known("hardening mode", mode, (k.value for k in HardeningKind))
    hardening = HardeningKind(mode)
    checks_raw = d.get("checks", [])
    if not isinstance(checks_raw, list):
        raise ConfigError('"checks" must be a list')
    checks = []
    for item in checks_raw:
        if not isinstance(item, dict) or set(item) != {"metric", "lo", "hi"}:
            raise ConfigError('each check needs exactly the fields "metric", "lo", "hi"')
        _check_known("check metric", item["metric"], SUMMARY_METRICS)
        for bound in ("lo", "hi"):
            _check_value(f"check {bound}", item[bound], float)
            # No rate meets a NaN bound; an integer past the float range is no float.
            if not abs(item[bound]) <= sys.float_info.max:
                raise ConfigError(f"check {bound} must be a finite number, got {item[bound]!r}")
        if item["lo"] > item["hi"]:
            raise ConfigError(f"check {item['metric']} lo {item['lo']} exceeds hi {item['hi']}")
        checks.append(Check(item["metric"], float(item["lo"]), float(item["hi"])))
    config = ScenarioConfig(
        params=params, hardening=hardening, attack=attack, checks=tuple(checks), **scalars
    )
    validate_config(config)
    return config


def config_to_dict(config: ScenarioConfig) -> dict:
    """Inverse of config_from_dict, suitable for re-running a scenario."""
    params = {f: getattr(config.params, f) for f in sorted(_PARAM_TYPES)}
    return {
        "name": config.name,
        "trials": config.trials,
        "master_seed": config.master_seed,
        "params": params,
        "hardening": config.hardening.value,
        "attack": {"name": config.attack.name, **config.attack.options},
        "claim": config.claim,
        "checks": [dataclasses.asdict(c) for c in config.checks],
    }


def _load_json(path):
    """The file's JSON value; a file that is not UTF-8 JSON, or nests too
    deep to parse, is a ConfigError."""
    with open(path, "rb") as fh:
        try:
            return json.loads(fh.read().decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or too deep
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def load_config_file(path) -> ScenarioConfig:
    return config_from_dict(_load_json(path))


# --------------------------------------------------------------- reporting


def write_trials_jsonl(reports: Sequence[TrialReport], path) -> None:
    """One JSON object per line; bytes depend only on the reports."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for report in reports:
            fh.write(report.to_json())
            fh.write("\n")


def _numbered_trials(path) -> list[tuple[int, TrialReport]]:
    """Each trial record in a JSONL file, with its line number."""
    records = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append((number, TrialReport.from_json(line.decode("utf-8"))))
            except (ValueError, RecursionError) as exc:
                raise ConfigError(f"{path}, line {number}: not a trial record: {exc}") from exc
    return records


def read_trials_jsonl(path) -> list[TrialReport]:
    return [report for _, report in _numbered_trials(path)]


def _check_trials_of(config: ScenarioConfig, path, records: list[tuple[int, TrialReport]]) -> None:
    """Refuse records that are not exactly the run of config: trial i at
    record i, with trial i's seed, and config.trials of them."""
    for i, (number, report) in enumerate(records):
        if report.trial_index != i:
            raise ConfigError(
                f"{path}, line {number}: trial {report.trial_index} where trial {i} belongs"
            )
        seed = trial_seed(config.master_seed, i)
        if report.seed != seed:
            raise ConfigError(
                f"{path}, line {number}: trial {i} has seed {report.seed}, "
                f"but master_seed {config.master_seed} gives it {seed}"
            )
    if len(records) != config.trials:
        raise ConfigError(
            f"{path}: {len(records)} trial records, but the run's config has {config.trials} trials"
        )


def write_summary_csv(summaries: Sequence[BatchSummary], path) -> None:
    """CSV summary table; the header row is written even for no summaries."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_KINDS)
        for s in summaries:
            rates = (f"{getattr(s, m):.6g}" for m in SUMMARY_METRICS)
            writer.writerow([s.scenario, s.trials, *rates, f"{s.wall_time_s:.3f}"])


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


def write_tables(
    rows: Sequence[tuple[ScenarioConfig, list[TrialReport], BatchSummary]], out_dir
) -> dict[str, str]:
    """Write summary.csv and claims.txt for rows into out_dir; return their
    paths keyed by file name."""
    paths = {name: os.path.join(out_dir, name) for name in ("summary.csv", "claims.txt")}
    write_summary_csv([s for _, _, s in rows], paths["summary.csv"])
    with open(paths["claims.txt"], "w", encoding="utf-8") as fh:
        fh.write(format_claims_table([(c, s) for c, _, s in rows]))
    return paths


def write_report(
    rows: Sequence[tuple[ScenarioConfig, list[TrialReport], BatchSummary]],
    out_dir,
    workers: int = 1,
) -> dict[str, str]:
    """Emit trial JSONL, the summary CSV, the claims table and a manifest.

    Returns the written paths keyed by file name. The manifest makes the
    directory self-describing, so `report` can rebuild the derived outputs
    from the per-trial records alone. Its `environment` block records what
    a run's speed depends on: Python and numpy versions, usable CPUs, worker
    processes, and the most lanes one collision search ran in (one when
    every entry ran its trials in a pool, each search then running in a
    worker). `report` does not read it, and it stays out of the trial
    records and the summary.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: dict[str, str] = {}
    manifest_entries = []
    for config, reports, summary in rows:
        stem = _filename_stem(summary.scenario)
        trials_name = f"{stem}.trials.jsonl" if len(rows) > 1 else "trials.jsonl"
        written[trials_name] = os.path.join(out_dir, trials_name)
        write_trials_jsonl(reports, written[trials_name])
        manifest_entries.append(
            {
                "scenario": summary.scenario,
                "config": config_to_dict(config),
                "summary": dataclasses.asdict(summary),
                "trials_file": trials_name,
            }
        )
    written.update(write_tables(rows, out_dir))
    pooled = all(min(workers, config.trials) > 1 for config, _, _ in rows)
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": usable_cpus(),
        "workers": workers,
        "search_lanes": 1 if pooled else max_search_lanes(),
    }
    written["run.json"] = os.path.join(out_dir, "run.json")
    with open(written["run.json"], "w", encoding="utf-8") as fh:
        json.dump({"environment": environment, "entries": manifest_entries}, fh, indent=2)
        fh.write("\n")
    return written


def _filename_stem(scenario: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in scenario)


def load_report_dir(out_dir) -> list[tuple[ScenarioConfig, list[TrialReport], BatchSummary]]:
    """Rebuild (config, reports, summary) rows from a written report directory.

    Rates are recomputed from each entry's per-trial records; the recorded
    wall time is kept since it cannot be reconstructed, and every other
    stored summary field must equal what the records give. An entry's
    trials_file must be a plain file name, so a report is judged only by
    records in out_dir, and the file must hold exactly the trials its config
    runs, in order, each with its own seed, so it is judged only by its own
    run.
    """
    manifest_path = os.path.join(out_dir, "run.json")
    if not os.path.exists(manifest_path):
        raise ConfigError(f"{out_dir}: no run.json manifest; not a report directory")
    manifest = _load_json(manifest_path)
    entries = manifest.get("entries") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not all(
        isinstance(e, dict)
        and {"scenario", "config", "summary", "trials_file"} <= e.keys()
        and isinstance(e["summary"], dict)
        and e["summary"].keys() == _SUMMARY_KINDS.keys()
        for e in entries
    ):
        raise ConfigError(
            f'{manifest_path}: not a report manifest: expected an "entries" list of objects '
            'with "scenario", "config", "trials_file" and a "summary" holding every '
            "BatchSummary field"
        )
    if not entries:
        raise ConfigError(f"{manifest_path}: no entries; the run checked nothing")
    rows = []
    for entry in entries:
        for name, value in entry["summary"].items():
            _check_value(f"{manifest_path}: summary {name}", value, _SUMMARY_KINDS[name])
        _check_value(f"{manifest_path}: scenario", entry["scenario"], str)
        name = entry["trials_file"]
        _check_value(f"{manifest_path}: trials_file", name, str)
        if name in ("", ".", "..") or os.path.basename(name) != name or "\0" in name:
            raise ConfigError(
                f"{manifest_path}: trials_file must be a file name in the report "
                f"directory, got {name!r}"
            )
        config = config_from_dict(entry["config"])
        config = dataclasses.replace(config, name=entry["scenario"])
        trials_path = os.path.join(out_dir, name)
        records = _numbered_trials(trials_path)
        _check_trials_of(config, trials_path, records)
        reports = [report for _, report in records]
        stored = entry["summary"]
        summary = BatchSummary.from_reports(entry["scenario"], reports, stored["wall_time_s"])
        for field in _SUMMARY_KINDS:
            if field != "wall_time_s" and stored[field] != getattr(summary, field):
                raise ConfigError(
                    f"{manifest_path}: summary {field} is {stored[field]!r}, but the entry "
                    f"and its records in {name} give {getattr(summary, field)!r}"
                )
        rows.append((config, reports, summary))
    return rows
