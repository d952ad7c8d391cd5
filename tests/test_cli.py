"""Command-line interface: subcommands, exit codes, output files."""

import json

import pytest

from qkdsim.adversary import max_search_lanes
from qkdsim.cli import main
from qkdsim.scenarios import BUILTIN_SCENARIOS, SUMMARY_METRICS, read_trials_jsonl


def run_cli(*argv):
    return main([str(a) for a in argv])


# A JSON value nested deeper than the parser can follow.
TOO_DEEP = "[" * 200000 + "]" * 200000


def test_run_writes_report_files(tmp_path, capsys):
    out = tmp_path / "report"
    code = run_cli("run", "baseline", "--trials", 10, "--out", out)
    assert code == 0
    assert (out / "trials.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "claims.txt").exists()
    assert (out / "run.json").exists()
    assert len(read_trials_jsonl(out / "trials.jsonl")) == 10
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "baseline" in stdout


def test_run_records_its_workers_in_the_environment(tmp_path):
    out = tmp_path / "report"
    assert run_cli("run", "baseline", "--trials", 4, "--workers", 2, "--out", out) == 0
    env = json.loads((out / "run.json").read_text())["environment"]
    assert env["workers"] == 2 and env["search_lanes"] == 1


@pytest.mark.parametrize(
    "command",
    [["run", "zero-rows"], ["sweep", "zero-rows", "--axis", "qber", "--values", "0.01"]],
    ids=["run", "sweep"],
)
@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_refused(tmp_path, capsys, command, workers):
    out = tmp_path / "report"
    assert run_cli(*command, "--trials", 2, "--workers", workers, "--out", out) == 2
    assert capsys.readouterr().err == f"error: --workers must be at least 1, got {workers}\n"
    assert not out.exists()


def test_one_trial_run_records_the_lanes_its_search_ran_in(tmp_path):
    # One trial starts no pool, so a collision search there runs on every lane.
    out = tmp_path / "report"
    assert run_cli("run", "zero-rows", "--trials", 1, "--workers", 2, "--out", out) == 0
    env = json.loads((out / "run.json").read_text())["environment"]
    assert env["workers"] == 2 and env["search_lanes"] == max_search_lanes()


def test_run_without_out_prints_only(tmp_path, capsys):
    code = run_cli("run", "zero-rows", "--trials", 5)
    assert code == 0
    stdout = capsys.readouterr().out
    assert "attack_success_rate = 1" in stdout
    assert "wrote" not in stdout


def test_run_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("run", "extract-bits", "--trials", 12, "--out", out1)
    run_cli("run", "extract-bits", "--trials", 12, "--out", out2)
    assert (out1 / "trials.jsonl").read_bytes() == (out2 / "trials.jsonl").read_bytes()


def test_run_seed_override_changes_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("run", "baseline", "--trials", 6, "--out", out1)
    run_cli("run", "baseline", "--trials", 6, "--seed", 99, "--out", out2)
    assert (out1 / "trials.jsonl").read_bytes() != (out2 / "trials.jsonl").read_bytes()


def test_run_config_file(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(
        json.dumps(
            {
                "name": "tiny-zero",
                "trials": 4,
                "params": {"n_raw": 512, "key_len": 32, "tail_len": 16},
                "attack": {"name": "zero-rows"},
                "checks": [{"metric": "attack_success_rate", "lo": 1.0, "hi": 1.0}],
            }
        )
    )
    assert run_cli("run", cfg) == 0
    assert "tiny-zero" in capsys.readouterr().out


@pytest.mark.parametrize("source", ["builtin", "file"])
def test_trials_and_seed_override_builtins_and_config_files(tmp_path, source):
    ref = "zero-rows"
    if source == "file":
        ref = tmp_path / "cfg.json"
        ref.write_text(json.dumps({"trials": 50, "attack": {"name": "zero-rows"}}))
    out = tmp_path / "out"
    run_cli("run", ref, "--trials", 3, "--seed", 7, "--out", out)
    config = json.loads((out / "run.json").read_text())["entries"][0]["config"]
    assert (config["trials"], config["master_seed"]) == (3, 7)


def test_run_unknown_scenario(capsys):
    assert run_cli("run", "warp-field") == 2
    assert "neither a builtin scenario nor an existing config file" in capsys.readouterr().err


def test_run_invalid_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"attack": {"name": "flip-entry", "row": 9999}}))
    assert run_cli("run", cfg) == 2
    assert "flip-entry row" in capsys.readouterr().err
    cfg.write_bytes(b"\xff{}")  # not UTF-8
    assert run_cli("run", cfg) == 2
    assert "not valid JSON: 'utf-8' codec can't decode" in capsys.readouterr().err
    cfg.write_text(TOO_DEEP)
    assert run_cli("run", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: not valid JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "config,match",
    [
        ({"trials": "x"}, "trials must be an integer"),
        ({"params": {"n_raw": "100"}}, "n_raw must be an integer"),
        ({"checks": [{"metric": "accept_rate_bob", "lo": "a", "hi": 1}]}, "lo must be a number"),
        ({"trials": 2.7}, "trials must be an integer"),
    ],
)
def test_run_mistyped_config_file(tmp_path, capsys, config, match):
    cfg = tmp_path / "mistyped.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("run", cfg) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and match in captured.err
    assert captured.out == ""


def test_exit_code_reflects_out_of_band_rate(tmp_path, capsys):
    cfg = tmp_path / "wrong.json"
    cfg.write_text(
        json.dumps(
            {
                "name": "impossible",
                "trials": 5,
                "checks": [{"metric": "attack_success_rate", "lo": 0.9, "hi": 1.0}],
            }
        )
    )
    assert run_cli("run", cfg) == 1
    assert "OUT OF BAND" in capsys.readouterr().out


def test_unwritable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert run_cli("run", "baseline", "--trials", 2, "--out", blocker) == 2
    assert "error" in capsys.readouterr().err


def test_dump_states_flag(tmp_path):
    out = tmp_path / "d"
    run_cli("run", "baseline", "--trials", 2, "--out", out, "--dump-states")
    reports = read_trials_jsonl(out / "trials.jsonl")
    assert all("dump" in r.aux for r in reports)
    assert "full_key" in reports[0].aux["dump"]["bob"]


def test_workers_flag_same_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("run", "flip-entry", "--trials", 8, "--out", out1)
    run_cli("run", "flip-entry", "--trials", 8, "--out", out2, "--workers", 2)
    assert (out1 / "trials.jsonl").read_bytes() == (out2 / "trials.jsonl").read_bytes()


def test_sweep_end_to_end(tmp_path, capsys):
    out = tmp_path / "sw"
    code = run_cli(
        "sweep", "baseline", "--axis", "qber", "--values", "0.0,0.15",
        "--trials", 5, "--out", out,
    )
    assert code == 0
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert len(summary) == 3
    assert "baseline[qber=0.0]" in summary[1]
    assert "baseline[qber=0.15]" in summary[2]
    jsonl_files = sorted(p.name for p in out.glob("*.trials.jsonl"))
    assert len(jsonl_files) == 2


def test_sweep_bad_axis_for_attack(capsys):
    assert run_cli("sweep", "baseline", "--axis", "r", "--values", "1,2", "--trials", 2) == 2
    assert "applies to randomize-rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario,axis,values,match",
    [
        ("baseline", "qber", "0.01,2", "qber must lie in [0, 1]"),
        ("baseline", "w", "8,0", "hash_width must lie in [1, 256]"),
        ("randomize-rows", "r", "1,500", "randomize-rows r must be at most key_len - tail_len"),
        ("collision-impersonation", "K", "16,0", "search_budget must be at least 1"),
        ("extract-bits", "known", "1,0", "num_known must be at least 1"),
        ("randomize-rows", "r", "1.5", "axis 'r' value must be an integer, got 1.5"),
        ("collision-impersonation", "K", "16,1e3", "axis 'K' value must be an integer, got 1000.0"),
        ("baseline", "qber", "0,x", "bad value list for axis 'qber'"),
    ],
)
def test_sweep_bad_value_fails_before_any_run(capsys, scenario, axis, values, match):
    assert run_cli("sweep", scenario, "--axis", axis, "--values", values, "--trials", 2) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and match in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "axis,values,labels",
    [
        ("qber", "0,.05", ["qber=0.0", "qber=0.05"]),
        ("qber", "1", ["qber=1.0"]),
        ("w", " 8,016", ["w=8", "w=16"]),
    ],
)
def test_sweep_value_labels(tmp_path, axis, values, labels):
    # Values are parsed as numbers and labelled as the axis holds them.
    out = tmp_path / "sw"
    run_cli("sweep", "baseline", "--axis", axis, "--values", values, "--trials", 2, "--out", out)
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[0] for row in rows] == [f"baseline[{label}]" for label in labels]


def test_sweep_empty_values(capsys):
    assert run_cli("sweep", "baseline", "--axis", "qber", "--values", "", "--trials", 2) == 2
    assert "at least one value" in capsys.readouterr().err


def test_sweep_unknown_axis_rejected_by_parser():
    with pytest.raises(SystemExit):
        run_cli("sweep", "baseline", "--axis", "turbo", "--values", "1")


def test_list_scenarios(capsys):
    assert run_cli("list-scenarios") == 0
    stdout = capsys.readouterr().out
    for name in BUILTIN_SCENARIOS:
        assert name in stdout
    assert "claim:" in stdout


def test_report_recomputes_and_checks(tmp_path, capsys):
    out = tmp_path / "r"
    run_cli("run", "zero-rows", "--trials", 6, "--out", out)
    capsys.readouterr()
    assert run_cli("report", out) == 0
    assert "PASS" in capsys.readouterr().out
    # report leaves the stored per-trial records untouched
    before = (out / "trials.jsonl").read_bytes()
    run_cli("report", out)
    assert (out / "trials.jsonl").read_bytes() == before


@pytest.mark.parametrize(
    "command",
    [["run", "zero-rows"], ["sweep", "baseline", "--axis", "qber", "--values", "0.0,0.15"]],
    ids=["run", "sweep"],
)
def test_report_rewrites_the_tables_its_run_wrote(tmp_path, command):
    # Rates recomputed from the records, with the recorded wall time, give
    # back the run's own summary.csv and claims.txt byte for byte.
    out = tmp_path / "r"
    assert run_cli(*command, "--trials", 5, "--out", out) == 0
    tables = {name: (out / name).read_bytes() for name in ("summary.csv", "claims.txt")}
    for name in tables:
        (out / name).unlink()
    assert run_cli("report", out) == 0
    assert {name: (out / name).read_bytes() for name in tables} == tables


def test_report_missing_manifest(tmp_path, capsys):
    assert run_cli("report", tmp_path) == 2
    assert "run.json" in capsys.readouterr().err


def _manifest(summary=(), **entry):
    """A one-entry run.json whose summary has every field, with the given changes."""
    fields = dict.fromkeys(("trials", *SUMMARY_METRICS, "wall_time_s"), 1)
    summary = {"scenario": "x", **fields, **dict(summary)}
    return json.dumps({"entries": [{"scenario": "x", "config": {}, "summary": summary, **entry}]})


@pytest.mark.parametrize(
    "manifest, message",
    [
        ("{not json", "not valid JSON"),
        ('{"foo": 1}', "not a report manifest"),
        ('{"entries": [{"scenario": "x", "config": {}, "summary": {}}]}', "not a report manifest"),
        (b"\xff{}", "not valid JSON: 'utf-8' codec can't decode"),
        (
            _manifest({"accept_rate_bob": "x"}, trials_file="t.jsonl"),
            "summary accept_rate_bob must be a number",
        ),
        (_manifest({"wall_time_s": "x"}, trials_file="t.jsonl"), "wall_time_s must be a number"),
        (_manifest(trials_file=7), "trials_file must be a string, got 7"),
        (_manifest(scenario=7, trials_file="t.jsonl"), "scenario must be a string, got 7"),
        ('{"entries": []}', "no entries; the run checked nothing"),
        *(
            (_manifest(trials_file=name), f"must be a file name in the report directory, got {name!r}")
            for name in (
                "/tmp/trials.jsonl", "../r/trials.jsonl", "sub/trials.jsonl", ".", "..", "", "a\x00b"
            )
        ),
        pytest.param(_manifest(), "not a report manifest", id="no-trials-file"),
        pytest.param(TOO_DEEP, "not valid JSON: maximum recursion depth exceeded", id="too-deep"),
    ],
)
def test_report_bad_manifest(tmp_path, capsys, manifest, message):
    raw = manifest if isinstance(manifest, bytes) else manifest.encode()
    (tmp_path / "run.json").write_bytes(raw)
    assert run_cli("report", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "run.json" in err and message in err


@pytest.mark.parametrize(
    "bad_line, problem",
    [
        ("{not json", "Expecting property name"),
        ("[1, 2]", "expected an object with the fields trial_index"),
        ('{"x": 1}', "expected an object with the fields trial_index"),
        ("\udcff{}", "'utf-8' codec can't decode byte 0xff"),  # written as the byte 0xff
        ({"attack_success": "yes"}, "attack_success must be true or false, got 'yes'"),
        ({"aux": []}, "aux must be an object, got []"),
        ({"trial_index": 1.5}, "trial_index must be an integer, got 1.5"),
        ({"keys_equal": "no"}, "keys_equal must be true, false or null, got 'no'"),
        pytest.param(TOO_DEEP, "maximum recursion depth exceeded", id="too-deep"),
    ],
)
@pytest.mark.parametrize("first", [True, False])
def test_report_bad_trial_line(tmp_path, capsys, bad_line, problem, first):
    run_cli("run", "zero-rows", "--trials", 3, "--out", tmp_path)
    path = tmp_path / "trials.jsonl"
    good = path.read_text().splitlines()
    if isinstance(bad_line, dict):  # a good record with a mistyped field
        bad_line = json.dumps({**json.loads(good[0]), **bad_line})
    lines = [bad_line, *good] if first else [*good[:2], "", bad_line]
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    assert run_cli("report", tmp_path) == 2
    captured = capsys.readouterr()
    line = 1 if first else 4
    assert captured.err.startswith(f"error: {path}, line {line}: not a trial record: ")
    assert problem in captured.err


@pytest.mark.parametrize("content", ["", "\n \n\n"])
def test_report_refuses_a_trials_file_without_records(tmp_path, capsys, content):
    run_cli("run", "zero-rows", "--trials", 3, "--out", tmp_path)
    path = tmp_path / "trials.jsonl"
    path.write_text(content)
    capsys.readouterr()
    assert run_cli("report", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 0 trial records, but the run's config has 3 trials")


def _reseeded(line: str, seed: int) -> str:
    return json.dumps({**json.loads(line), "seed": seed})


@pytest.mark.parametrize(
    "edit, where, problem",
    [
        (lambda g: g[:2], None, "2 trial records, but the run's config has 4 trials"),
        (lambda g: g + g, 5, "trial 0 where trial 4 belongs"),
        (lambda g: [g[1], g[0], *g[2:]], 1, "trial 1 where trial 0 belongs"),
        (lambda g: [*g[:2], _reseeded(g[2], 7), g[3]], 3, "trial 2 has seed 7, but master_seed"),
    ],
    ids=["truncated", "duplicated", "reordered", "wrong-seed"],
)
def test_report_judges_only_its_own_run(tmp_path, capsys, edit, where, problem):
    run_cli("run", "zero-rows", "--trials", 4, "--out", tmp_path)
    path = tmp_path / "trials.jsonl"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert run_cli("report", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: " if where is None else f"error: {path}, line {where}: ")
    assert problem in err


def test_no_subcommand_exits_with_usage():
    with pytest.raises(SystemExit):
        run_cli()
