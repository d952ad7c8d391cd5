"""Every mutant in tests/mutants.py still applies to src, and names real tests.

The mutation run itself (python tests/mutants.py) is too slow for this
suite; this check only keeps its list from rotting as the code moves.
"""

import os
import re
import signal
import time
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, _passing, known_modules, main, select


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_snippet_occurs_exactly_once(mutant):
    source = (ROOT / "src" / "qkdsim" / mutant.module).read_text()
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_names_existing_tests(mutant):
    for node in mutant.tests:
        path, name = re.fullmatch(r"([\w/]+\.py)::(\w+)(?:\[.*\])?", node).groups()
        assert f"\ndef {name}(" in Path(ROOT / path).read_text(), node


def test_select_keeps_the_named_modules_mutants_in_order():
    assert select([]) == MUTANTS
    chosen = select(["gf2", "pipeline"])
    assert chosen == tuple(m for m in MUTANTS if m.module in ("gf2.py", "pipeline.py"))
    assert {m.module for m in chosen} == {"gf2.py", "pipeline.py"}
    assert "gf2" in known_modules() and "pipeline" in known_modules()
    assert {m for name in known_modules() for m in select([name])} == set(MUTANTS)


def test_an_unknown_module_exits_2_and_lists_the_known_ones(capsys, monkeypatch):
    # Refused before any copy is made or any mutant runs.
    monkeypatch.setattr("mutants._passing", lambda *a: pytest.fail("a mutant ran"))
    monkeypatch.setattr("mutants.tempfile", None)
    assert main(["gf2", "nosuchmodule"]) == 2
    err = capsys.readouterr().err
    assert "nosuchmodule" in err
    assert f"known modules: {', '.join(known_modules())}" in err


# A test that forks a child, leaves its pid in child.pid, and, like the child,
# sleeps far past any limit.
_HANGING_TEST = """
import os
import time
from pathlib import Path


def test_hangs():
    pid = os.fork()
    if pid == 0:
        time.sleep(600)
        os._exit(0)
    Path("child.pid").write_text(str(pid))
    time.sleep(600)
"""


def _gone_or_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_a_hanging_run_is_killed_with_its_children(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_hang.py").write_text(_HANGING_TEST)
    start = time.monotonic()
    # 3 s leaves room for pytest's own start-up of about 1 s before the fork.
    assert _passing(tmp_path, ("tests/test_hang.py::test_hangs",), 3) == []
    assert time.monotonic() - start < 15
    pid = int((tmp_path / "child.pid").read_text())
    # A SIGKILL takes effect once the child is next scheduled.
    deadline = time.monotonic() + 2
    try:
        while not _gone_or_zombie(pid):
            assert time.monotonic() < deadline, "the run's forked child outlived the kill"
            time.sleep(0.01)
    finally:
        if not _gone_or_zombie(pid):
            os.kill(pid, signal.SIGKILL)
