"""qkdsim benchmark: closed-loop trial throughput on three workloads.

Run from the root of a checkout:

    python3 qkdbench/run.py --workload sessions --seed 0 --seconds 20 --trace 0

With --trace 0 it times the workload untraced and prints the end-to-end
metrics; with --trace 1 it runs the workload untraced and then traced, for
half of --seconds each, and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller record (environment, gate digests, bands, span table) goes to
qkdbench/out/. See qkdbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import workloads as wl  # noqa: E402  (after the path set-up)
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_PROBES = 4  # extra set-up measurements, each in a fresh process
STAGES = (
    "source_correlated",
    "sift",
    "estimate_error",
    "reconcile",
    "privacy_amplify",
    "build_log_extract",
    "authenticate",
    "verify",
)

# (name, unit) of the metrics this command prints.
END_TO_END = (
    ("trials_per_s", "trials/s"),
    ("trial_ms_p50", "ms"),
    ("trial_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    *((f"pipeline.{s}.self_ms", "ms/trial") for s in STAGES),
    ("pipeline.run_session.self_ms", "ms/trial"),
    ("pipeline.log_digest.self_ms", "ms/trial"),
    ("pipeline.serialize_log.self_ms", "ms/trial"),
    ("pipeline.run_session.calls_per_trial", "calls/trial"),
    ("pipeline.log_digest.calls_per_trial", "calls/trial"),
    ("pipeline.serialize_log.bytes_per_trial", "B/trial"),
    ("gf2.random_matrix.self_ms", "ms/trial"),
    ("gf2.matvec.self_ms", "ms/trial"),
    ("gf2.matvec.calls_per_trial", "calls/trial"),
    ("gf2.BitMatrix.to_bytes_msb.self_ms", "ms/trial"),
    ("hardening.derive_matrix.self_ms", "ms/trial"),
    ("hardening.derive_matrix.calls_per_trial", "calls/trial"),
    ("channel.deliver.self_ms", "ms/trial"),
    ("channel.frames_per_trial", "frames/trial"),
    ("channel.tampered_frames_per_trial", "frames/trial"),
    ("adversary.tamper.self_ms", "ms/trial"),
    ("adversary.collision_search.self_ms", "ms/trial"),
    ("adversary.run_collision_impersonation.self_ms", "ms/trial"),
    ("adversary.candidates_per_trial", "candidates/trial"),
    ("adversary.candidates_per_s", "candidates/s"),
    ("adversary.search_hit_ratio", "ratio"),
    ("seeding.make_rng.self_ms", "ms/trial"),
    ("seeding.make_rng.calls_per_trial", "calls/trial"),
    ("scenarios.run_trial.self_ms", "ms/trial"),
    ("scenarios.trials_failed_ratio", "ratio"),
    *((f"scenarios.{b}.trial_ms_p50", "ms") for b in wl.SESSION_BUILTINS),
    *((f"{layer}.self_ms", "ms/trial") for layer in LAYERS),
    ("trace.loop_ms", "ms/trial"),
    ("trace.overhead_ratio", "ratio"),
)


def end_to_end_metrics(phase: wl.Phase, setup_s: float) -> dict[str, float]:
    """Calibrated throughput, latency and set-up time, and peak memory."""
    stats = wl.latency_stats(phase.scaled_durations_ns())
    return {
        "trials_per_s": phase.attempted / (phase.scaled_wall_ns / 1e9),
        "trial_ms_p50": stats["p50_ms"],
        "trial_ms_p90": stats["p90_ms"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(untraced: wl.Phase, traced: wl.Phase, tracer: Tracer) -> dict[str, float]:
    """Layer metrics, normalised per traced trial; latencies and rates come from the untraced phase.

    Times are calibrated like the end-to-end ones.
    """
    trials = traced.attempted
    table = tracer.span_table(traced.scales)
    counters = tracer.counters

    def self_ms(name):
        return table.get(name, {}).get("self_ns", 0) / 1e6 / trials

    def calls(name):
        return table.get(name, {}).get("calls", 0) / trials

    m = {f"pipeline.{s}.self_ms": self_ms(f"pipeline.{s}") for s in STAGES}
    for name in ("pipeline.run_session", "pipeline.log_digest", "pipeline.serialize_log",
                 "gf2.random_matrix", "gf2.matvec", "gf2.BitMatrix.to_bytes_msb",
                 "hardening.derive_matrix", "channel.deliver", "adversary.tamper",
                 "adversary.collision_search", "adversary.run_collision_impersonation",
                 "seeding.make_rng", "scenarios.run_trial"):
        m[f"{name}.self_ms"] = self_ms(name)
    for name in ("pipeline.run_session", "pipeline.log_digest", "gf2.matvec",
                 "hardening.derive_matrix", "seeding.make_rng"):
        m[f"{name}.calls_per_trial"] = calls(name)
    m["pipeline.serialize_log.bytes_per_trial"] = counters.get("pipeline.serialize_log.bytes", 0) / trials
    m["channel.frames_per_trial"] = calls("channel.deliver")
    m["channel.tampered_frames_per_trial"] = counters.get("channel.tampered_frames", 0) / trials
    searches = table.get("adversary.collision_search", {}).get("calls", 0)
    m["adversary.candidates_per_trial"] = counters.get("adversary.candidates", 0) / trials
    m["adversary.search_hit_ratio"] = counters.get("adversary.search_hits", 0) / searches if searches else 0.0
    candidates = sum(r.aux.get("candidates_examined", 0) for r in untraced.reports if r is not None)
    m["adversary.candidates_per_s"] = candidates / (untraced.scaled_wall_ns / 1e9)
    m["scenarios.trials_failed_ratio"] = untraced.failed / untraced.attempted
    durations = wl.per_config_durations(untraced)
    for b in wl.SESSION_BUILTINS:
        samples = durations.get(b)
        m[f"scenarios.{b}.trial_ms_p50"] = statistics.median(samples) / 1e6 if samples else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(
            row["self_ns"] for name, row in table.items() if name.split(".")[0] == layer
        ) / 1e6 / trials
    m["trace.loop_ms"] = (traced.scaled_wall_ns - tracer.root_ns(traced.scales)) / 1e6 / trials
    m["trace.overhead_ratio"] = (traced.attempted / traced.scaled_wall_ns) / (
        untraced.attempted / untraced.scaled_wall_ns
    )
    return {name: m[name] for name, _ in PER_LAYER}


def environment(args) -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_revision": revision,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def phase_record(phase: wl.Phase) -> dict:
    per_config = {
        name: {"trials": len(d), **wl.latency_stats(d)} for name, d in wl.per_config_durations(phase).items()
    }
    return {
        "attempted": phase.attempted,
        "failed": phase.failed,
        "first_error": phase.first_error,
        "blocks": phase.blocks,
        "wall_s": phase.wall_ns / 1e9,
        "scaled_wall_s": phase.scaled_wall_ns / 1e9,
        "latency": wl.latency_stats(phase.scaled_durations_ns()),
        "raw_latency": wl.latency_stats(phase.durations_ns),
        "raw_trials_per_s": phase.attempted / (phase.wall_ns / 1e9),
        "kernel_ms": wl.latency_stats([k * 1e6 for k in phase.kernel_ms]),
        "per_config": per_config,
    }


def setup_probe_seconds(args) -> list[float]:
    """Calibrated set-up time measured in fresh processes, one after another."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def gate(workload, phase, out_dir, reference) -> tuple[dict, list[str]]:
    """Digests and bands of one phase, and the problems found."""
    problems = []
    try:
        digests = wl.gate_digests(workload, phase, out_dir)
        bands = wl.check_bands(workload, phase)
    except wl.GateError as exc:
        return {}, [str(exc)]
    problems += wl.compare_reference(workload, digests, reference)
    problems += [
        f"{b['scenario']}: {b['metric']} = {b['value']:.6g} over {b['trials']} trials, "
        f"interval {b['interval']} misses band {b['band']}"
        for b in bands if not b["passed"]
    ]
    return {"digests": digests, "bands": bands}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(SRC, "qkdsim", "__init__.py")):
        print(f"qkdsim sources not found under {SRC}", file=sys.stderr)
        return 2
    workload, raw_setup_s, setup_s = wl.setup(args.workload, args.seed)
    if args.setup_probe:
        print(f"{setup_s!r}")
        return 0

    reference = wl.load_reference()
    stem = f"{args.workload}-seed{args.seed}"
    os.makedirs(OUT, exist_ok=True)
    record = {"environment": environment(args)}
    if args.trace == 0:
        phase = wl.run_phase(workload, args.seconds)
        gate_record, problems = gate(workload, phase, os.path.join(OUT, stem), reference)
        setup_samples = [setup_s, *setup_probe_seconds(args)]
        metrics = end_to_end_metrics(phase, statistics.median(setup_samples))
        units = dict(END_TO_END)
        record.update(untraced=phase_record(phase), setup_samples_s=setup_samples, raw_setup_s=raw_setup_s)
        attempted, failed = phase.attempted, phase.failed
    else:
        untraced = wl.run_phase(workload, args.seconds / 2)
        with Tracer() as tracer:
            traced = wl.run_phase(workload, args.seconds / 2, tracer=tracer)
        gate_record, problems = gate(workload, untraced, os.path.join(OUT, stem), reference)
        traced_gate, traced_problems = gate(workload, traced, os.path.join(OUT, f"{stem}-traced"), reference)
        problems += traced_problems
        if traced_gate.get("digests") != gate_record.get("digests"):
            problems.append("traced trials.jsonl digests differ from the untraced ones")
        metrics = per_layer_metrics(untraced, traced, tracer)
        units = dict(PER_LAYER)
        tracer.write_spans(os.path.join(OUT, f"{stem}.spans.csv"))
        table = tracer.span_table(traced.scales)
        record.update(
            untraced=phase_record(untraced),
            traced=phase_record(traced),
            spans=len(tracer.spans),
            span_table={name: {"calls": row["calls"], "total_ms": row["total_ns"] / 1e6,
                               "self_ms": row["self_ns"] / 1e6} for name, row in sorted(table.items())},
            counters=dict(tracer.counters),
        )
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    record.update(gate=gate_record, problems=problems, metrics=metrics)
    with open(os.path.join(OUT, f"{stem}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    for problem in problems:
        print(f"GATE: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
