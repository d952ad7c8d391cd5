"""Workloads of the qkdsim benchmark, the closed loop that runs them and the output gate.

Every workload is a sequence of blocks of (scenario config, trial index)
jobs. The loop runs whole blocks, one trial at a time in one process
(one client, workers=1), and starts a trial only after the previous one
has returned: the same closed loop that `run_scenario` runs at workers=1.

This module imports nothing from qkdsim at load time, so that the import
of the package can be timed as part of set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

WORKLOADS = ("sessions", "large-key", "collision-search")

# The session-based builtins: every builtin except collision-impersonation.
SESSION_BUILTINS = (
    "baseline",
    "randomize-rows",
    "flip-entry",
    "zero-rows",
    "extract-bits",
    "otp-malleability",
    "harden-matrix-in-log-randomize-rows",
    "harden-matrix-in-log-flip-entry",
    "harden-matrix-in-log-zero-rows",
    "harden-matrix-in-log-extract-bits",
    "harden-derived-matrix",
)
LARGE_KEY_N_RAW = 131072  # 16x the default n_raw
# Trial cost in collision-search is geometric by design (coefficient of
# variation about 1), so a seed-drawn sample of ~150 trials would move the
# mean trial time by ~8% from seed to seed. The workload therefore repeats
# the builtin's own first COLLISION_POOL trials (master seed 0, the trials
# `qkdsim run` executes); at seed 0 they examine exactly 1,884,511 candidates.
COLLISION_POOL = 30
COLLISION_MASTER_SEED = 0

# Blocks whose outputs form the gate's trials.jsonl; every run completes them.
GATE_BLOCKS = {"sessions": 20, "large-key": 20, "collision-search": 1}
# Leaves at least 10 timed samples beyond the 90th percentile.
MIN_TRIALS = 100
WARMUP_INDEX = -1  # outside the timed range, which starts at 0

# Half-width multiplier of the Wilson interval used for statistical bands.
BAND_Z = 5.0

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    master_seed: int
    configs: tuple  # of ScenarioConfig

    def block(self, k: int) -> list[tuple[object, int]]:
        """Jobs of block k: one round over the configs at trial index k.

        collision-search repeats the same pool of trials in every block.
        """
        if self.name == "collision-search":
            return [(self.configs[0], i) for i in range(COLLISION_POOL)]
        return [(config, k) for config in self.configs]


def build_workload(name: str, seed: int) -> Workload:
    """Scenario configs of a workload; sessions and large-key run at master seed `seed`."""
    from qkdsim import scenarios

    if name == "sessions":
        configs = tuple(scenarios.builtin_scenario(b, master_seed=seed) for b in SESSION_BUILTINS)
        return Workload(name, seed, configs)
    if name == "large-key":
        base = scenarios.builtin_scenario("baseline", master_seed=seed)
        params = dataclasses.replace(base.params, n_raw=LARGE_KEY_N_RAW)
        return Workload(name, seed, (dataclasses.replace(base, name="large-key", params=params),))
    if name == "collision-search":
        config = scenarios.builtin_scenario(
            "collision-impersonation", master_seed=COLLISION_MASTER_SEED
        )
        return Workload(name, COLLISION_MASTER_SEED, (config,))
    raise ValueError(f"unknown workload {name!r}, expected one of: {', '.join(WORKLOADS)}")


def setup(name: str, seed: int) -> tuple[Workload, float, float]:
    """Import qkdsim, build the configs and run the warm-up trials.

    Returns the workload, the raw set-up seconds and the calibrated ones.
    """
    start = time.perf_counter()
    from qkdsim import scenarios

    workload = build_workload(name, seed)
    for config in workload.configs:
        scenarios.validate_config(config)
    for config in workload.configs:
        scenarios.run_trial(config, WARMUP_INDEX)
    elapsed = time.perf_counter() - start
    return workload, elapsed, elapsed * speed_scale()


# ------------------------------------------------------------ calibration

# The benchmark runs on shared machines whose cores slow down by 1.3-1.7x
# for seconds to minutes when a neighbour loads them. A fixed reference kernel,
# timed between windows of trials, measures that slowdown; each window's
# times are scaled by REFERENCE_KERNEL_MS / (kernel ms around the window).
# Timings are therefore ms at the speed the kernel has when it takes
# REFERENCE_KERNEL_MS, about the defining machine's uncontended speed.
REFERENCE_KERNEL_MS = 4.0
# Trials between two kernel runs: one round of sessions, ~60 ms of large-key,
# one collision-search trial.
WINDOW_TRIALS = {"sessions": 11, "large-key": 2, "collision-search": 1}

_KERNEL_INT = (1 << 8192) - 12345
_KERNEL_BUF = bytes(range(256)) * 64
_KERNEL_REV = bytes(int(format(i, "08b")[::-1], 2) for i in range(256))


@dataclass(frozen=True)
class _KernelRecord:
    a: int
    b: int


def reference_kernel() -> int:
    """Fixed work in the idioms of qkdsim's trials, independent of qkdsim's code.

    Roughly in the proportions of a session trial: interpreter work on
    small frozen dataclasses and dicts, numpy boolean indexing on 8k-element
    arrays (sift, estimation), big-int AND and popcount (matvec), int-to-bytes
    packing (serialisation), and SHA-256 both over 16 KB buffers and
    incrementally from a copied state (log digests, collision search).
    The parts slow down by different factors under contention (1.1x to 1.9x
    measured), so the mix, not any one part, tracks a trial.
    """
    import numpy as np

    acc = 0
    table = {}
    for i in range(1500):
        record = _KernelRecord(i, i + 1)
        table[i & 255] = record
        acc += record.a * 3 + len(table) + (i << 3) % 7
    arr = np.arange(8192, dtype=np.int64) & 0xFF
    for _ in range(100):
        acc ^= int((arr[arr > 100] ^ 1).sum())
    v = _KERNEL_INT
    for i in range(300):
        acc ^= ((v >> (i & 63)) & v).bit_count()
    for _ in range(100):
        acc ^= len(v.to_bytes(1024, "little").translate(_KERNEL_REV))
    for _ in range(20):
        acc ^= hashlib.sha256(_KERNEL_BUF).digest()[0]
    state = hashlib.sha256(_KERNEL_BUF)
    for i in range(1000):
        h = state.copy()
        h.update(i.to_bytes(16, "big"))
        acc ^= h.digest()[0]
    return acc


def kernel_ms() -> float:
    start = time.perf_counter_ns()
    reference_kernel()
    return (time.perf_counter_ns() - start) / 1e6


def speed_scale() -> float:
    """Scale factor for times measured just before this call (first kernel run warms up)."""
    reference_kernel()
    return REFERENCE_KERNEL_MS / statistics.mean((kernel_ms(), kernel_ms()))


# ------------------------------------------------------------------ loop


@dataclass
class Phase:
    """What one pass of the closed loop did: outputs, per-trial times, failures.

    durations_ns and wall_ns are raw wall-clock times; scales holds each
    trial's calibration factor and scaled_wall_ns the calibrated timed wall.
    """

    jobs: list = field(default_factory=list)  # (config name, trial index), in run order
    reports: list = field(default_factory=list)  # TrialReport, or None if the trial raised
    durations_ns: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    windows: list = field(default_factory=list)  # (first job, end job, wall ns)
    kernel_ms: list = field(default_factory=list)  # kernel_ms[w] runs just before window w
    blocks: int = 0
    failed: int = 0
    first_error: str | None = None
    wall_ns: int = 0
    scaled_wall_ns: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    def scaled_durations_ns(self) -> list:
        return [d * s for d, s in zip(self.durations_ns, self.scales)]

    def calibrate(self) -> None:
        """Set each trial's factor from the kernel runs just before and after its window."""
        self.scales, self.wall_ns, self.scaled_wall_ns = [], 0, 0.0
        for w, (first, end, elapsed) in enumerate(self.windows):
            scale = REFERENCE_KERNEL_MS / statistics.mean(self.kernel_ms[w : w + 2])
            self.scales.extend([scale] * (end - first))
            self.wall_ns += elapsed
            self.scaled_wall_ns += elapsed * scale


def run_phase(
    workload: Workload,
    seconds: float,
    min_blocks: int | None = None,
    min_trials: int = MIN_TRIALS,
    tracer=None,
) -> Phase:
    """Run whole blocks until `seconds` have passed and the minimum counts are met.

    The reference kernel runs between windows of WINDOW_TRIALS trials,
    outside the timed windows, and calibrates them. A trial that raises is
    counted as failed and the loop goes on. With a tracer, each trial's
    spans carry the trial's position in the run.
    """
    from qkdsim import scenarios

    if min_blocks is None:
        min_blocks = GATE_BLOCKS[workload.name]
    window_trials = WINDOW_TRIALS[workload.name]
    phase = Phase()
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    phase.kernel_ms.append(kernel_ms())
    window_start, window_t0 = 0, clock()

    def close_window():
        phase.windows.append((window_start, len(phase.jobs), clock() - window_t0))
        phase.kernel_ms.append(kernel_ms())

    k = 0
    while k < min_blocks or len(phase.jobs) < min_trials or clock() < deadline:
        for config, index in workload.block(k):
            if tracer is not None:
                tracer.trial = len(phase.jobs)
            t0 = clock()
            try:
                report = scenarios.run_trial(config, index)
            except Exception:  # a raising trial is counted, not fatal
                report = None
                phase.failed += 1
                if phase.first_error is None:
                    phase.first_error = traceback.format_exc()
            t1 = clock()
            phase.jobs.append((config.name, index))
            phase.reports.append(report)
            phase.durations_ns.append(t1 - t0)
            if len(phase.jobs) - window_start == window_trials:
                close_window()
                window_start, window_t0 = len(phase.jobs), clock()
        k += 1
    if len(phase.jobs) > window_start:
        close_window()
    phase.blocks = k
    phase.calibrate()
    return phase


# ------------------------------------------------------------- statistics


def latency_stats(durations_ns: list) -> dict:
    """Median and nearest-rank 90th percentile in ms, with the sample count behind them."""
    ordered = sorted(durations_ns)
    n = len(ordered)
    return {
        "p50_ms": statistics.median(ordered) / 1e6,
        "p90_ms": ordered[math.ceil(0.9 * n) - 1] / 1e6,
        "samples": n,
        "samples_beyond_p90": n - math.ceil(0.9 * n),
    }


def per_config_durations(phase: Phase) -> dict[str, list]:
    """Calibrated trial durations (ns) per config name."""
    out: dict[str, list] = {}
    for (name, _), d in zip(phase.jobs, phase.scaled_durations_ns()):
        out.setdefault(name, []).append(d)
    return out


# ------------------------------------------------------------ output gate


class GateError(Exception):
    """The program's outputs failed the benchmark's output gate."""


def distinct_reports(workload: Workload, phase: Phase, blocks: int | None = None) -> dict:
    """Reports per config name, each (config, index) once, sorted by trial index.

    Only the first `blocks` blocks count when given. A repeated trial must
    give the same bytes as its first run; a mismatch raises.
    """
    jobs_per_block = len(workload.block(0))
    limit = len(phase.jobs) if blocks is None else blocks * jobs_per_block
    seen: dict[tuple, str] = {}
    out: dict[str, list] = {}
    for (name, index), report in zip(phase.jobs[:limit], phase.reports[:limit]):
        if report is None:
            continue
        line = report.to_json()
        if (name, index) in seen:
            if seen[(name, index)] != line:
                raise GateError(f"{name} trial {index} gave different output when repeated")
            continue
        seen[(name, index)] = line
        out.setdefault(name, []).append(report)
    for reports in out.values():
        reports.sort(key=lambda r: r.trial_index)
    return out


def gate_digests(workload: Workload, phase: Phase, out_dir: str) -> dict[str, dict]:
    """SHA-256 of each config's trials.jsonl over the gate blocks.

    The file is written by `scenarios.write_trials_jsonl` itself, so the
    digest covers exactly the bytes `qkdsim run` would write.
    """
    from qkdsim import scenarios

    os.makedirs(out_dir, exist_ok=True)
    digests = {}
    for name, reports in distinct_reports(workload, phase, GATE_BLOCKS[workload.name]).items():
        path = os.path.join(out_dir, f"{name}.trials.jsonl")
        scenarios.write_trials_jsonl(reports, path)
        with open(path, "rb") as fh:
            data = fh.read()
        digests[name] = {"trials": len(reports), "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return digests


def wilson_interval(successes: int, n: int, z: float = BAND_Z) -> tuple[float, float]:
    """Wilson score interval; exactly 0 or 1 at the ends of the range."""
    p = successes / n
    denom = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else centre - half
    hi = 1.0 if successes == n else centre + half
    return lo, hi


def check_bands(workload: Workload, phase: Phase) -> list[dict]:
    """Evaluate each config's declared bands over every distinct trial of the run.

    `scenarios.evaluate_checks` gives each rate. A run is far smaller than
    a builtin's declared trial count (10,000 for flip-entry), so a check
    fails when the rate's Wilson interval at z=5 misses the band. For a
    band of one point at 0 or 1 (every band but three), that is the same as
    evaluate_checks' own test: a single deviating trial fails it.
    """
    from qkdsim import scenarios

    by_name = {config.name: config for config in workload.configs}
    rows = []
    for name, reports in distinct_reports(workload, phase).items():
        config = by_name[name]
        summary = scenarios.BatchSummary.from_reports(name, reports, 0.0)
        for result in scenarios.evaluate_checks(summary, config.checks):
            n = summary.trials
            lo, hi = wilson_interval(round(result.value * n), n)
            rows.append(
                {
                    "scenario": name,
                    "metric": result.check.metric,
                    "value": result.value,
                    "trials": n,
                    "band": [result.check.lo, result.check.hi],
                    "interval": [lo, hi],
                    "in_band": result.passed,
                    "passed": lo <= result.check.hi and hi >= result.check.lo,
                }
            )
    return rows


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def compare_reference(workload: Workload, digests: dict, reference: dict) -> list[str]:
    """Mismatches against the recorded digests; none unless the master seed is the reference's."""
    if workload.master_seed != reference["master_seed"]:
        return []
    expected = reference["workloads"][workload.name]
    problems = []
    for name in sorted(set(expected) | set(digests)):
        want, got = expected.get(name), digests.get(name)
        if want is None or got is None or (want["trials"], want["sha256"]) != (got["trials"], got["sha256"]):
            problems.append(f"{workload.name}/{name}: trials.jsonl digest {got} != reference {want}")
    return problems
