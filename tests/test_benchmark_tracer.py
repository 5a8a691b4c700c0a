"""The benchmark's span tracer names kernels of the package by string.

``perfbench/tracer.py`` wraps each name in its ``TRACED`` table when a
traced benchmark run starts, so a renamed or removed kernel would only
break those runs.  This resolves every name against the package.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracer().TRACED


@pytest.mark.parametrize("layer", sorted(TRACED))
def test_traced_names_resolve(layer):
    module = importlib.import_module(f"relqft.{layer}")
    for qualname in TRACED[layer]:
        if "." in qualname:
            # the tracer rewraps a class attribute through its __func__
            cls_name, attr = qualname.split(".")
            assert isinstance(getattr(module, cls_name).__dict__.get(attr),
                              classmethod), qualname
        else:
            assert callable(getattr(module, qualname, None)), qualname
