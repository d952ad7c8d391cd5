"""Every name the benchmark tracer wraps still exists in qkdsim.

qkdbench/tracer.py lists its targets as (span name, module, attribute or
Class.method). Deleting or renaming one of them breaks a traced benchmark
run, so this test loads the tracer by path (it only reads the file) and
checks that each target resolves: a module attribute, or a method in the
class's own __dict__, which is where the tracer patches it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "qkdbench" / "tracer.py"


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
