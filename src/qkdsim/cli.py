"""Command-line front end for running scenarios and emitting reports.

The process exit code doubles as a verdict: it is nonzero when any executed
scenario's measured rates fall outside the acceptance bands declared in its
config, so a plain `qkdsim run <scenario>` works as a self-checking harness.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .scenarios import (
    BUILTIN_SCENARIOS,
    SWEEP_AXES,
    ConfigError,
    ScenarioConfig,
    evaluate_checks,
    format_claims_table,
    load_config_file,
    load_report_dir,
    run_scenario,
    sweep,
    write_report,
    write_tables,
)


def _resolve_config(ref: str, trials: int | None, seed: int | None) -> ScenarioConfig:
    """Builtin scenario name, or a JSON config file path. Builtins win ties."""
    if ref in BUILTIN_SCENARIOS:
        config = BUILTIN_SCENARIOS[ref]
    elif os.path.exists(ref):
        config = load_config_file(ref)
    else:
        raise ConfigError(
            f"{ref!r} is neither a builtin scenario nor an existing config file; "
            "see `qkdsim list-scenarios`"
        )
    if trials is not None:
        config = dataclasses.replace(config, trials=trials)
    if seed is not None:
        config = dataclasses.replace(config, master_seed=seed)
    return config


def _workers(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    return args.workers


def _checks_pass(rows) -> bool:
    return all(
        r.passed for config, _, summary in rows for r in evaluate_checks(summary, config.checks)
    )


def _emit(rows, args) -> int:
    print(format_claims_table([(c, s) for c, _, s in rows]), end="")
    if args.out is not None:
        try:
            written = write_report(rows, args.out, args.workers)
        except OSError as exc:
            print(f"error: cannot write to {args.out}: {exc}", file=sys.stderr)
            return 2
        for name in sorted(written):
            print(f"wrote {written[name]}")
    return 0 if _checks_pass(rows) else 1


def _cmd_run(args) -> int:
    config = _resolve_config(args.scenario, args.trials, args.seed)
    reports, summary = run_scenario(config, workers=_workers(args), dump_states=args.dump_states)
    return _emit([(config, reports, summary)], args)


def _number(token: str) -> int | float:
    """An integer literal as an int, else a float; the sweep checks it against the axis."""
    try:
        return int(token)
    except ValueError:
        return float(token)


def _cmd_sweep(args) -> int:
    config = _resolve_config(args.scenario, args.trials, args.seed)
    # Declared bands belong to the original operating point, not to swept ones.
    config = dataclasses.replace(config, checks=())
    try:
        values = [_number(v) for v in args.values.split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"bad value list for axis {args.axis!r}: {exc}") from exc
    if not values:
        raise ConfigError("need at least one value to sweep over")
    entries = sweep(config, args.axis, values, workers=_workers(args))
    rows = [(e.config, e.reports, e.summary) for e in entries]
    return _emit(rows, args)


def _cmd_list(args) -> int:
    for name, config in BUILTIN_SCENARIOS.items():
        attack = config.attack.name
        print(f"{name:40s} trials={config.trials:<6d} hardening={config.hardening.value}")
        print(f"    attack: {attack} {config.attack.options or ''}".rstrip())
        print(f"    claim:  {config.claim}")
    return 0


def _cmd_report(args) -> int:
    """Recompute summaries from stored trial records; never rewrites them."""
    rows = load_report_dir(args.dir)
    print(format_claims_table([(c, s) for c, _, s in rows]), end="")
    write_tables(rows, args.dir)
    return 0 if _checks_pass(rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdsim",
        description="Simulate QKD post-processing sessions and attacks on the "
        "privacy-amplification matrix exchange.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_dump=True):
        p.add_argument("--trials", type=int, default=None, help="override trial count")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
        p.add_argument("--out", default=None, help="directory for report files")
        if with_dump:
            p.add_argument(
                "--dump-states",
                action="store_true",
                help="include full party states and transcripts in trial records",
            )

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario", help="builtin scenario name or JSON config file")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="re-run a scenario stepping one parameter")
    p_sweep.add_argument("scenario", help="builtin scenario name or JSON config file")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES, help="parameter to step")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    common(p_sweep, with_dump=False)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_list = sub.add_parser("list-scenarios", help="list builtin scenarios")
    p_list.set_defaults(func=_cmd_list)

    p_report = sub.add_parser("report", help="rebuild summaries from a report directory")
    p_report.add_argument("dir", help="directory written by a previous run")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
