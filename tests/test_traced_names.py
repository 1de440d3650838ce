"""The benchmark's tracer wraps package functions by name: every name it
lists must exist, so a rename fails here as well as in the benchmark's
own self-tests."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    # Imported read-only: no bytecode is written next to the benchmark.
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def test_every_traced_name_exists(tracer):
    names = [(owner, attr) for owner, attr, *_ in tracer.SPANS + tracer.TALLIES]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in names if attr not in vars(owner)]
    assert not missing
