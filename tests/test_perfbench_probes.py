"""The benchmark tracer in ``perfbench/`` wraps package functions by name;
a renamed target would otherwise show up only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
_tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_tracer)
_PROBES = _tracer.SPAN_PROBES + _tracer.COUNT_PROBES


@pytest.mark.parametrize("name, module, attr", _PROBES, ids=[p[0] for p in _PROBES])
def test_probe_target_resolves(name, module, attr):
    owner = importlib.import_module(f"cyclebench.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer patches the method found in the class's own namespace
        assert callable(vars(getattr(owner, cls_name)).get(meth)), name
    else:
        assert callable(getattr(owner, attr, None)), name


def test_cycle_unitary_cache_is_inspectable():
    from cyclebench import circuits

    assert callable(circuits._cycle_unitary_cached.cache_info)
