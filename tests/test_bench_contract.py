"""The names the benchmark reads from the package must exist.

`bkbench/spans.py` wraps the layer boundaries listed in its SPANS table
and reads a few more attributes when it installs; `bkbench/round.py`
wraps the pieces it times in every plain round.  A rename in `bkshapes`
would only surface in a benchmark run; these tests fail first.  The
benchmark code is loaded from its files and not modified.
"""

import ast
import importlib
import pathlib
import random
import sys
import time
import types
from io import StringIO

import pytest

BKBENCH = pathlib.Path(__file__).resolve().parents[1] / "bkbench"
SPANS_FILE = BKBENCH / "spans.py"
ROUND_FILE = BKBENCH / "round.py"


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


def _load_function(path, name):
    """One top-level function of a file, compiled from its source alone."""
    tree = ast.parse(path.read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    namespace = {"time": time}
    exec(compile(ast.Module(body=[node], type_ignores=[]), str(path), "exec"), namespace)
    return namespace[name]


def test_round_pieces_exist(monkeypatch, tmp_path):
    """round.py's `time_pieces` wraps io.sweep_header, io.sweep_rows,
    cli.read_sweep and every verify.CHECKS function; a rename crashes every
    plain round.  Each wrapped piece records a span when called."""
    from bkshapes import cli, io, verify

    for mod, name in ((io, "sweep_header"), (io, "sweep_rows"), (cli, "read_sweep")):
        monkeypatch.setattr(mod, name, getattr(mod, name))  # restored after the test
    monkeypatch.setattr(verify, "CHECKS", list(verify.CHECKS))
    time_pieces = _load_function(ROUND_FILE, "time_pieces")
    spans = []
    time_pieces("verify-p3f2", spans)
    name, check = verify.CHECKS[0]
    assert check(3, 1, random.Random(name))[0]
    assert len(spans) == 1
    time_pieces("sweep-fields", spans)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep", "--p", "3", "--f", "1", "--out", "s.txt"], out=StringIO()) == 0
    assert len(spans) == 4  # the header, the rows and the read-back


def _count_required_calls(monkeypatch, workload):
    """Calls per boundary `REQUIRED[workload]` names, each resolved through SPANS and wrapped
    (names imported by value rebound too, as `Tracer.install` does), and the fields cleared:
    a round starts in a fresh interpreter, with no field built."""
    from bkshapes import gf

    required = spans.REQUIRED[workload]
    calls = dict.fromkeys(required, 0)
    wrapped = set()
    for module, path, name, _ in spans.SPANS:
        if name not in calls:
            continue
        wrapped.add(name)
        owner, attr = spans._resolve(importlib.import_module(f"bkshapes.{module}"), path)
        orig = getattr(owner, attr)

        def wrapper(*args, _fn=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)
        for key, mod in list(sys.modules.items()):
            if key.startswith("bkshapes") and mod is not None:
                for held, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, held, wrapper)
    assert wrapped == set(required)
    gf.field.cache_clear()
    return calls


def test_sweep_fields_required_spans_are_called(monkeypatch, tmp_path):
    """Every boundary `REQUIRED["sweep-fields"]` names records a call on `sweep --out`.
    A traced round in which one of them stays idle is refused."""
    from bkshapes import cli

    calls = _count_required_calls(monkeypatch, "sweep-fields")
    monkeypatch.chdir(tmp_path)
    out = StringIO()
    assert cli.main(["sweep", "--p", "3", "--f", "1", "--out", "s.txt"], out=out) == 0
    assert out.getvalue() == "rows=16 wrote=s.txt\n"
    assert all(calls.values()), calls


def test_verify_required_spans_are_called(monkeypatch):
    """Every boundary `REQUIRED["verify-p3f2"]` names records a call on `verify --p 3 --f 2`,
    the workload's round: among them the series product and the samplers."""
    from bkshapes import cli

    calls = _count_required_calls(monkeypatch, "verify-p3f2")
    out = StringIO()
    assert cli.main(["verify", "--p", "3", "--f", "2"], out=out) == 0
    assert out.getvalue().splitlines()[-1] == "verify p=3 f=2 seed=0 failures=0"
    assert all(calls.values()), calls
