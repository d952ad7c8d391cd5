"""Golden bytes: trials.jsonl of every builtin at master seed 0 is pinned.

A refactor or speed-up must never change a trial's outcome. Each case runs a
builtin for a few trials and compares the SHA-256 of what
write_trials_jsonl writes against the digest recorded when the case was
added. The dump cases cover the --dump-states records: baseline's passive
transcript, flip-entry's honest_bob entry, extract-bits, a matrix-in-log
session whose log carries the matrix, derived-matrix sessions with no
matrix frame and two derived matrices, the collision attack, whose record
dumping leaves as it is, and otp-malleability, whose record holds its
session's dump. Two separate cases pin baseline at the large n_raw = 131072
that the benchmark's large-key workload runs: its trials.jsonl, which
records only verdicts and key equality, and the amplification matrix and
final keys themselves.
"""

import dataclasses
import hashlib

import pytest

from qkdsim.pipeline import run_session
from qkdsim.scenarios import BUILTIN_SCENARIOS, builtin_scenario, run_scenario, write_trials_jsonl
from qkdsim.seeding import trial_seed

GOLDEN = [
    # (builtin, trials, dump_states, sha256 of trials.jsonl)
    ("baseline", 16, False, "8303e0055433fe6651bbfbdd9dd5a97935c3cc47655ea52b4fdb766c52b44124"),
    ("randomize-rows", 16, False, "41e93433590a23037bcf0fac51a1090859304ff10e6e20319706137977945c62"),
    ("flip-entry", 16, False, "e77ebb3f4ea64fbad3938e71567823e995c151952ede1db5c079900798167a19"),
    ("zero-rows", 16, False, "ee6941e2e5e981456d24007181e997ffeaa5ef5baf663b22bc0720616e9c6a4c"),
    ("extract-bits", 16, False, "6478e32a515fde68ccd29ee4eda0a518a731b1ff49c0380a02b82fe6fe539275"),
    ("collision-impersonation", 2, False, "562ed43dd3f3a110a99c051ae9eb04a7d37544f6631c70872f153722512c7848"),
    ("otp-malleability", 16, False, "3a0cc8a702c919dd12acd9609c3194bf6516947a4481c5687db8992f499d80d7"),
    ("harden-matrix-in-log-randomize-rows", 16, False, "e2a24ef9e68e590d5c124071869df1fc156f6a385ce36084a648dcc17b63373f"),
    ("harden-matrix-in-log-flip-entry", 16, False, "402bf878498354834ea6c705237540ee4a16f84cea89d77c00a3d7fd1ca4a277"),
    ("harden-matrix-in-log-zero-rows", 16, False, "51f499d9fda6fe60e5acb5eceecb4c4c52a30949e0931c1e60cf7a5e9e9180fe"),
    ("harden-matrix-in-log-extract-bits", 16, False, "09823c8e09ec04d543bcab4b4c1929eb0c4cc178f6d0620322fdea768d4fd1c8"),
    ("harden-derived-matrix", 16, False, "7f8db92c42c4a8379470bba1c979adcb2c00994e0ce9fd1e889dba6dc32f9631"),
    ("flip-entry", 2, True, "04c45ff4e44091070e85352a50893714b1d20f6f5a6cccf33daec14c87805544"),
    ("extract-bits", 2, True, "0f6fd83efeeef87de8bc137ad0f598bbbc398e029b8d4adcb88b548942869a5f"),
    ("harden-matrix-in-log-randomize-rows", 2, True, "d14dc43751ffc83ed3294a65cc6199f54d6bc14517703f119a4b6aa093b4bd8c"),
    ("collision-impersonation", 2, True, "562ed43dd3f3a110a99c051ae9eb04a7d37544f6631c70872f153722512c7848"),
    ("otp-malleability", 2, True, "d53aacc7fa6a16eb4d1d3d13539bc42ae223298a666a8aa1653db646f9dea0de"),
    ("baseline", 2, True, "564d2d87db3f04c66ef67bae2c57339d1052905019f1ee2f7ae58b0bdc1f9555"),
    ("harden-derived-matrix", 2, True, "29a39e167f4eedd382643886a3dd09df61014f18fad9a05aabc02739ac8540fd"),
]


def test_golden_covers_every_builtin():
    assert {name for name, _, dump, _ in GOLDEN if not dump} == set(BUILTIN_SCENARIOS)


@pytest.mark.parametrize(
    "name,trials,dump_states,digest",
    GOLDEN,
    ids=[f"{name}{'-dump' if dump else ''}" for name, _, dump, _ in GOLDEN],
)
def test_trials_jsonl_matches_golden_digest(tmp_path, name, trials, dump_states, digest):
    config = builtin_scenario(name, trials=trials, master_seed=0)
    reports, _ = run_scenario(config, dump_states=dump_states)
    path = tmp_path / "trials.jsonl"
    write_trials_jsonl(reports, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


LARGE_N_RAW = 131072
LARGE_BASELINE_DIGEST = "ae13c5a9daaa9ae3ce2f930c7db1a9bfce1534f6d32e50036833bb87ee5e3322"


def _large_baseline(trials: int):
    config = builtin_scenario("baseline", trials=trials, master_seed=0)
    return dataclasses.replace(
        config, params=dataclasses.replace(config.params, n_raw=LARGE_N_RAW)
    )


def test_large_baseline_trials_jsonl_matches_golden_digest(tmp_path):
    config = _large_baseline(8)
    reports, _ = run_scenario(config)
    path = tmp_path / "trials.jsonl"
    write_trials_jsonl(reports, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LARGE_BASELINE_DIGEST


LARGE_BASELINE_MATRIX_DIGEST = "1a92291084038848c83db3f5583ea18e66f4bd37a21cdc3c94d485c452fad99b"


def test_large_baseline_matrix_and_keys_match_golden_digest():
    # The 256 x ~57000 matrix each trial draws, and both parties' final keys.
    config = _large_baseline(4)
    h = hashlib.sha256()
    for index in range(config.trials):
        result = run_session(config.params, trial_seed(0, index))
        h.update(result.alice.state.pa_matrix.to_bytes_msb())
        h.update(result.alice.state.final_key.to_bytes_msb())
        h.update(result.bob.state.final_key.to_bytes_msb())
    assert h.hexdigest() == LARGE_BASELINE_MATRIX_DIGEST
