"""The names the benchmark's tracer reads from the package must exist.

`bkbench/spans.py` wraps the layer boundaries listed in its SPANS table
and reads a few more attributes when it installs.  A rename in
`bkshapes` would only surface in a traced benchmark run; these tests fail
first.  The benchmark code is loaded from its file and not modified.
"""

import importlib
import pathlib
import types

import pytest

SPANS_FILE = pathlib.Path(__file__).resolve().parents[1] / "bkbench" / "spans.py"


def _load_spans():
    """The module from its source, so no bytecode is written next to it."""
    mod = types.ModuleType("bkbench_spans")
    exec(compile(SPANS_FILE.read_text(), str(SPANS_FILE), "exec"), vars(mod))
    return mod


spans = _load_spans()


@pytest.mark.parametrize("module,path,name,hook", spans.SPANS, ids=lambda v: str(v))
def test_span_resolves(module, path, name, hook):
    owner, attr = spans._resolve(importlib.import_module(f"bkshapes.{module}"), path)
    assert callable(getattr(owner, attr))
    assert hook is None or callable(getattr(spans.Tracer, hook))


def test_required_spans_are_listed():
    names = {name for _, _, name, _ in spans.SPANS}
    for workload, required in spans.REQUIRED.items():
        assert set(required) <= names, workload


def test_tracer_reads_exist():
    """The recipe cache's statistics and Mat2.det, which counts sampler candidates."""
    from bkshapes import series, tametypes

    assert callable(tametypes._profile_data_cached.cache_info)
    assert callable(getattr(series.Mat2, "det", None))
