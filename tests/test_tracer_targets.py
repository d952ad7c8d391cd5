"""Every name the benchmark tracer wraps still exists in qkdsim.

qkdbench/tracer.py lists its targets as (span name, module, attribute or
Class.method). Deleting or renaming one of them breaks a traced benchmark
run, so this test loads the tracer by path (it only reads the file) and
checks that each target resolves: a module attribute, or a method in the
class's own __dict__, which is where the tracer patches it. The benchmark's
own self-test also pins a few module bindings by name; those must resolve
too.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "qkdbench" / "tracer.py"
SELF_TEST_PATH = Path(__file__).resolve().parents[1] / "qkdbench" / "tests" / "test_qkdbench.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("qkdbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("name,module_name,attr", TARGETS, ids=[f"{m}.{a}" for _, m, a in TARGETS])
def test_tracer_target_resolves(name, module_name, attr):
    module = importlib.import_module(f"qkdsim.{module_name}")
    if "." in attr:
        class_name, method = attr.split(".")
        assert method in vars(getattr(module, class_name))
    else:
        assert callable(getattr(module, attr))


def test_bindings_pinned_by_the_benchmark_self_test_resolve():
    # The benchmark's wrap-and-restore self-test lists the bindings it checks
    # as `(module, "name"): module.name,` lines. Read them from the file
    # (without importing it) so deleting one fails here, not only there.
    text = SELF_TEST_PATH.read_text()
    pairs = re.findall(r'^\s*\((\w+), "(\w+)"\): \1\.\2,$', text, re.M)
    assert len(pairs) == 8, pairs
    for module_name, attr in pairs:
        name = "qkdsim" if module_name == "qkdsim" else f"qkdsim.{module_name}"
        assert callable(getattr(importlib.import_module(name), attr)), (module_name, attr)


def test_every_adversary_strategy_tamper_is_traced():
    # A strategy's tamper does its attack's per-trial work (extract-bits
    # draws its positions there), so each one must be timed as adversary.tamper.
    adversary = importlib.import_module("qkdsim.adversary")
    base = importlib.import_module("qkdsim.channel").AttackStrategy
    strategies = [
        obj
        for obj in vars(adversary).values()
        if isinstance(obj, type) and issubclass(obj, base) and obj.__module__ == adversary.__name__
    ]
    assert strategies
    traced = {a for span, m, a in TARGETS if (span, m) == ("adversary.tamper", "adversary")}
    for cls in strategies:
        assert "tamper" in vars(cls), cls.__name__
        assert f"{cls.__name__}.tamper" in traced, cls.__name__
