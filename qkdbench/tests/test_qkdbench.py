"""Self-tests of the qkdsim benchmark: tracing changes no output and leaves no wrapper behind,
exact counters repeat, self times add up, and the output gate catches a change.

Run from the root of a checkout:

    python3 -m pytest -q qkdbench/tests
"""

import dataclasses
import math
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

EXACT_COUNTERS = (
    "adversary.candidates_per_trial",
    "pipeline.run_session.calls_per_trial",
    "pipeline.log_digest.calls_per_trial",
    "channel.frames_per_trial",
    "gf2.matvec.calls_per_trial",
)


def small_collision_workload() -> wl.Workload:
    """collision-search with a 2^12 budget: fast, and some searches miss."""
    workload = wl.build_workload("collision-search", 0)
    config = workload.configs[0]
    attack = dataclasses.replace(config.attack, options={"search_budget": 1 << 12})
    return dataclasses.replace(workload, configs=(dataclasses.replace(config, attack=attack),))


def traced_phase(workload, blocks):
    with Tracer() as tracer:
        phase = wl.run_phase(workload, 0, min_blocks=blocks, min_trials=0, tracer=tracer)
    return phase, tracer


def qkdsim_wrappers() -> list[str]:
    """Every attribute of a qkdsim module or class that is still a tracer wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "qkdsim" and not name.startswith("qkdsim."):
            continue
        for key, value in vars(module).items():
            if hasattr(value, "span_name"):
                found.append(f"{name}.{key}")
            if isinstance(value, type):
                found += [f"{name}.{key}.{k}" for k, v in vars(value).items() if hasattr(v, "span_name")]
    return found


@pytest.mark.parametrize("name", ["sessions", "large-key"])
def test_traced_trials_jsonl_equals_untraced(name, tmp_path):
    workload = wl.build_workload(name, 3)
    blocks = wl.GATE_BLOCKS[name]
    untraced = wl.run_phase(workload, 0, min_blocks=blocks, min_trials=0)
    traced, _ = traced_phase(workload, blocks)
    assert wl.gate_digests(workload, traced, str(tmp_path / "traced")) == wl.gate_digests(
        workload, untraced, str(tmp_path / "untraced")
    )


def test_tracing_wraps_every_binding_and_restores_the_originals():
    import qkdsim
    from qkdsim import adversary, channel, pipeline, scenarios

    originals = {
        (pipeline, "run_session"): pipeline.run_session,
        (adversary, "run_session"): adversary.run_session,
        (scenarios, "run_session"): scenarios.run_session,
        (pipeline, "matvec"): pipeline.matvec,
        (adversary, "matvec"): adversary.matvec,
        (adversary, "gf2_flip_entry"): adversary.gf2_flip_entry,
        (adversary, "otp_decrypt"): adversary.otp_decrypt,
        (qkdsim, "run_session"): qkdsim.run_session,
    }
    deliver = channel.Channel.__dict__["deliver"]
    with Tracer() as tracer:
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__wrapped__ is original
        assert channel.Channel.__dict__["deliver"].__wrapped__ is deliver
        patched = list(tracer._patched)
        scenarios.run_trial(wl.build_workload("sessions", 0).configs[2], 0)
    assert qkdsim_wrappers() == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original
    assert channel.Channel.__dict__["deliver"] is deliver


def test_exact_counters_repeat_across_runs():
    for workload, blocks in ((wl.build_workload("sessions", 5), 2), (small_collision_workload(), 1)):
        runs = []
        for _ in range(2):
            phase, tracer = traced_phase(workload, blocks)
            metrics = run.per_layer_metrics(phase, phase, tracer)
            runs.append({name: metrics[name] for name in EXACT_COUNTERS})
        assert runs[0] == runs[1]
    _, tracer = traced_phase(wl.build_workload("sessions", 5), 1)
    calls = tracer.span_table()["pipeline.run_session"]["calls"]
    # Both flip-entry builtins run a second, honest session per trial.
    assert calls == len(wl.SESSION_BUILTINS) + 2


def test_self_times_and_loop_residual_add_up_to_traced_wall_time():
    for workload in (wl.build_workload("sessions", 7), small_collision_workload()):
        phase, tracer = traced_phase(workload, 1)
        raw = tracer.span_table()
        assert all(row["self_ns"] >= 0 for row in raw.values())
        assert sum(row["self_ns"] for row in raw.values()) == tracer.root_ns() <= phase.wall_ns
        metrics = run.per_layer_metrics(phase, phase, tracer)
        layers = sum(metrics[f"{layer}.self_ms"] for layer in run.LAYERS)
        wall_ms = phase.scaled_wall_ns / 1e6 / phase.attempted
        assert math.isclose(layers + metrics["trace.loop_ms"], wall_ms, rel_tol=1e-9)
        assert metrics["trace.loop_ms"] >= 0


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_default_seed_gate_matches_reference(name, tmp_path):
    workload = wl.build_workload(name, 0)
    phase = wl.run_phase(workload, 0, min_trials=0)
    digests = wl.gate_digests(workload, phase, str(tmp_path))
    reference = wl.load_reference()
    assert wl.compare_reference(workload, digests, reference) == []
    assert all(row["passed"] for row in wl.check_bands(workload, phase))
    changed = dict(digests)
    first = next(iter(changed))
    changed[first] = {**changed[first], "sha256": "0" * 64}
    assert len(wl.compare_reference(workload, changed, reference)) == 1


def test_band_interval_is_exact_at_the_ends():
    assert wl.wilson_interval(500, 500)[1] == 1.0
    assert wl.wilson_interval(0, 500)[0] == 0.0
    # One deviating trial moves the interval off a one-point band at 1 or 0.
    assert wl.wilson_interval(499, 500)[1] < 1.0
    assert wl.wilson_interval(1, 500)[0] > 0.0
    lo, hi = wl.wilson_interval(250, 500)
    assert lo < 0.45 and hi > 0.55
