import contextlib
import functools
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkshapes.cli import main
from bkshapes.gf import field
from bkshapes.io import (
    module_from_json,
    module_to_json,
    read_sweep,
    write_sweep,
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_sweep_roundtrip_lossless():
    text = write_sweep(3, 2)
    rows = read_sweep(text)
    assert len(rows) == 512
    keys = [(r["p"], r["f"], r["kind"], r["eta"], r["eta_prime"], r["profile"]) for r in rows]
    assert len(set(keys)) == len(keys)  # uniquely keyed
    again = write_sweep(3, 2)
    assert text == again
    # reserialize row-by-row
    from bkshapes.io import format_row, parse_row

    for row in rows:
        assert parse_row(format_row(row)) == row


def test_sweep_header_versioned():
    text = write_sweep(3, 1)
    head = text.splitlines()[0]
    assert head.startswith("# bkshapes-sweep v1 ")
    assert "p=3" in head and "f=1" in head and "precision=64" in head and "poly[2]=" in head
    with pytest.raises(ValueError):
        read_sweep("junk\n")
    # the header records DEFAULT_PRECISION; sweep takes no precision option
    code, out = run_cli("sweep", "--p", "3", "--f", "1", "--precision", "32")
    assert code == 2 and out == ""


@pytest.mark.parametrize("p,f", [(3, 4), (5, 3), (3, 3)])
def test_sweep_header_polynomials_define_each_level(p, f):
    """poly[f'] is monic, irreducible of degree f' (sympy), and the least one, past the table limit too."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    from bkshapes.io import sweep_header

    def irreducible(low):  # low: the coefficients below the leading 1, constant first
        return gf_irreducible_p([ZZ(1)] + [ZZ(c) for c in reversed(low)], p, ZZ)

    kv = dict(tok.split("=", 1) for tok in sweep_header(p, f).split() if "=" in tok)
    assert sorted(k for k in kv if k.startswith("poly[")) == [f"poly[{f}]", f"poly[{2 * f}]"]
    for fp in (f, 2 * f):
        poly = tuple(int(c) for c in kv[f"poly[{fp}]"].split(","))
        assert len(poly) == fp + 1 and poly[-1] == 1
        assert irreducible(poly[:-1])
        # least: no monic candidate of degree f' packed below it is irreducible
        packed = sum(c * p**j for j, c in enumerate(poly[:-1]))
        for n in range(packed):
            assert not irreducible([n // p**j % p for j in range(fp)])


def _f9_module():
    """A type, the u-scale eigenbasis matrices of a module over F_9 as its file holds them, F_9."""
    import random

    from bkshapes.phimod import eigenbasis_matrices
    from bkshapes.randgen import random_component_module
    from bkshapes.tametypes import make_type

    tau = make_type(3, 2, "principal-series", 5, 2)
    F = field(3, 2)
    return tau, eigenbasis_matrices(random_component_module(random.Random(0), tau, {0}, F, degree=3)), F


def test_module_file_roundtrip():
    tau, C, F = _f9_module()
    text = module_to_json(tau, C, F, scale="u")
    tau2, mats2, F2, scale = module_from_json(text)
    assert tau2 == tau and F2 == F and scale == "u"
    for a, b in zip(mats2, C):
        assert a == b


@pytest.mark.parametrize("digits", [[7, 0], [1, 0, 0], [1], [-1, 0], [1.5, 0], ["1", 0]])
def test_module_file_rejects_bad_digits(digits, tmp_path, capsys):
    # F_9 elements are two digits in [0, 3); [7, 0] would decode to code 7
    tau, C, F = _f9_module()
    doc = json.loads(module_to_json(tau, C, F, scale="u"))
    doc["matrices"][0][0]["coeffs"][0] = digits
    with pytest.raises(ValueError, match="digits"):
        module_from_json(json.dumps(doc))
    modfile = tmp_path / "bad.json"
    modfile.write_text(json.dumps(doc))
    code, out = run_cli("shape", "--module", str(modfile))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _shape_exit(doc, tmp_path, capsys):
    modfile = tmp_path / "bad.json"
    modfile.write_text(json.dumps(doc))
    code, out = run_cli("shape", "--module", str(modfile))
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "path",
    [("scale",), ("type",), ("matrices",), ("field", "degree"), ("type", "eta"),
     ("matrices", 0, 0, "coeffs")],
    ids=lambda path: ".".join(map(str, path)),
)
def test_module_file_missing_key_exits_2(path, tmp_path, capsys):
    tau, C, F = _f9_module()
    doc = json.loads(module_to_json(tau, C, F, scale="u"))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    del owner[path[-1]]
    with pytest.raises(ValueError, match=repr(path[-1])):
        module_from_json(json.dumps(doc))
    assert repr(path[-1]) in _shape_exit(doc, tmp_path, capsys)


@pytest.mark.parametrize(
    "where,value", [("matrices", 5), ("field", [3, 2]), ("type", None)], ids=["matrices", "field", "type"]
)
def test_module_file_wrong_type_exits_2(where, value, tmp_path, capsys):
    tau, C, F = _f9_module()
    doc = json.loads(module_to_json(tau, C, F, scale="u"))
    doc[where] = value
    with pytest.raises(ValueError, match="malformed"):
        module_from_json(json.dumps(doc))
    _shape_exit(doc, tmp_path, capsys)


def test_module_file_negative_precision_exits_2(tmp_path, capsys):
    tau, C, F = _f9_module()
    doc = json.loads(module_to_json(tau, C, F, scale="u"))
    doc["matrices"][0][0]["prec"] = -5
    assert "precision" in _shape_exit(doc, tmp_path, capsys)


@pytest.mark.parametrize(
    "where,key,value,message",
    [
        ("type", "f", 0, "f must be at least 1"),
        ("type", "p", 1, "p must be prime"),
        ("type", "p", 4, "p must be prime"),
        ("field", "degree", 0, "degree must be at least 1"),
        ("field", "p", 4, "not prime"),
        ("field", "p", 5, "characteristic 5 differs"),
        ("type", "eta", 2.5, "'eta' must be an integer"),
        ("field", "degree", True, "'degree' must be an integer"),
    ],
)
def test_module_file_out_of_range_type_or_field_exits_2(where, key, value, message, tmp_path, capsys):
    tau, C, F = _f9_module()
    doc = json.loads(module_to_json(tau, C, F, scale="u"))
    doc[where][key] = value
    with pytest.raises(ValueError, match=message):
        module_from_json(json.dumps(doc))
    assert message in _shape_exit(doc, tmp_path, capsys)


@pytest.mark.parametrize(
    "key,value", [("val", 1.5), ("val", True), ("val", "1"), ("prec", 2.5), ("prec", True), ("prec", "9")]
)
def test_module_file_non_integer_val_or_prec_exits_2(key, value, tmp_path, capsys):
    tau, C, F = _f9_module()
    doc = json.loads(module_to_json(tau, C, F, scale="u"))
    doc["matrices"][0][0][key] = value
    with pytest.raises(ValueError, match=f"{key!r} must be an integer"):
        module_from_json(json.dumps(doc))
    _shape_exit(doc, tmp_path, capsys)


def test_shape_rejects_a_misgraded_module_file(tmp_path, capsys):
    """The grading of a u-scale file is checked where it is read, entry by entry."""
    tau, C, F = _f9_module()  # estep 8
    doc = json.loads(module_to_json(tau, C, F, scale="u"))
    doc["matrices"][0][0] = {"val": 0, "coeffs": [[1, 0], [0, 0], [0, 0], [2, 0]], "prec": None}
    err = _shape_exit(doc, tmp_path, capsys)
    assert err == "error: entry (0,0) at 0 has exponent 3 outside its grading class\n"


def test_shape_rejects_an_unlinked_cuspidal_module_file(tmp_path, capsys):
    """A cuspidal file whose index-f matrix is not the companion of index 0 is refused on reading."""
    import random

    from bkshapes.phimod import eigenbasis_matrices
    from bkshapes.randgen import random_component_module
    from bkshapes.tametypes import CUSPIDAL, type_from_gamma

    tau, F = type_from_gamma(3, 1, CUSPIDAL, (1,)), field(3, 2)  # estep 8
    C = eigenbasis_matrices(random_component_module(random.Random(1), tau, {0}, F, degree=3))
    doc = json.loads(module_to_json(tau, [C[0], C[1].shifted(rows=(8, 8))], F, scale="u"))
    err = _shape_exit(doc, tmp_path, capsys)
    assert err == "error: cuspidal linkage fails at index 0\n"


def _entry(val, coeffs=()):
    return {"coeffs": list(coeffs), "prec": None, "val": val}


def test_shape_rejects_a_cuspidal_file_whose_lower_left_entry_is_not_divisible(tmp_path, capsys):
    """A module file is held to the lower-left gate of every in-memory cuspidal module: this
    one is graded and linked, but its descent-removed lower-left entry at index 0 is a unit."""
    F9 = {"degree": 2, "p": 3, "poly": [1, 0, 1]}
    one = [[1, 0]]
    doc = {"field": F9, "format": "bkshapes-module v1", "scale": "u",
           "type": {"eta": 1, "eta_prime": 3, "f": 1, "kind": "cuspidal", "p": 3},
           "matrices": [[_entry(0), _entry(2, one), _entry(-2, one), _entry(0, one)],
                        [_entry(0, one), _entry(-2, one), _entry(2, one), _entry(0)]]}
    err = _shape_exit(doc, tmp_path, capsys)
    assert err == "error: lower-left entry must be divisible in the v-scale\n"


@pytest.mark.parametrize(
    "entries,message",
    [
        # the determinant's two products lie 10**12 apart: numpy cannot allocate their sum
        ([_entry(10**12, [[1]]), _entry(1, [[1]]), _entry(1, [[1]]), _entry(0, [[2]])],
         "error: Unable to allocate "),
        # the determinant test is decided from the held coefficients, with no window down to
        # exponent -10**12; the module then has no shape
        ([_entry(-(10**12), [[1]]), _entry(0), _entry(1, [[1]]), _entry(0, [[2]])],
         "error: module has no shape: no diagonal divisibility at index 0"),
    ],
    ids=["far-above", "far-below"],
)
def test_shape_refuses_a_module_file_with_exponents_far_apart(entries, message, tmp_path, capsys):
    doc = {"field": {"degree": 1, "p": 3, "poly": [0, 1]}, "format": "bkshapes-module v1",
           "scale": "u", "matrices": [entries],
           "type": {"eta": 1, "eta_prime": 0, "f": 1, "kind": "principal-series", "p": 3}}
    assert _shape_exit(doc, tmp_path, capsys).startswith(message)


def test_module_file_null_prec_is_exact():
    tau, C, F = _f9_module()
    doc = json.loads(module_to_json(tau, C, F, scale="u"))
    doc["matrices"][0][0]["prec"] = None
    _, mats, _, _ = module_from_json(json.dumps(doc))
    assert mats[0][0, 0].prec is None and mats[0][0, 0] == C[0][0, 0]


@functools.lru_cache(maxsize=None)
def _ext_build_text():
    """A module file written by `ext --build`, the seed of the fuzzed files."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ext.json")
        code, _ = run_cli(
            "ext", "--p", "3", "--f", "2", "--kind", "cuspidal", "--gamma", "1,2",
            "--profile", "0,3", "--h", "1,2", "--build", path,
        )
        assert code == 0
        with open(path) as fh:
            return fh.read()


def _paths(node, path=()):
    """Every path to a node of a JSON document, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


_JUNK = st.one_of(
    st.integers(-50, 50),  # negatives and out-of-range digits
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.lists(st.integers(-5, 9), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-5, 9), max_size=2),
)


def _mutant(data):
    """The `ext --build` document with one to three nodes dropped or replaced by junk."""
    doc = json.loads(_ext_build_text())
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        drop = path and data.draw(st.booleans())
        value = None if drop else data.draw(_JUNK)
        if not path:
            doc = value
            continue
        owner = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        if drop:
            del owner[path[-1]]
        else:
            owner[path[-1]] = value
    return doc


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_module_file_exits_0_or_2(data):
    doc = _mutant(data)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        modfile = os.path.join(tmp, "mutant.json")
        with open(modfile, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stderr(err):
            code, out = run_cli("shape", "--module", modfile)
    assert code in (0, 2)
    if code == 2:
        assert out == "" and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _crashing_check(p, f, rng, fault=None):
    raise RuntimeError("boom")


def test_cli_verify_reports_a_crashed_check(monkeypatch):
    from bkshapes import verify

    name = verify.CHECKS[0][0]
    monkeypatch.setattr(verify, "CHECKS", [(name, _crashing_check)] + verify.CHECKS[1:])
    code, out = run_cli("verify", "--p", "3", "--f", "1")
    lines = out.splitlines()
    assert code == 3
    assert lines[0] == f"ERROR {name}: crashed: RuntimeError('boom')"
    assert all(line.startswith("PASS ") for line in lines[1:-1])
    assert lines[-1] == "verify p=3 f=1 seed=0 failures=0 errors=1"
    # a failed check outranks a crashed one
    code, out = run_cli("verify", "--p", "3", "--f", "1", "--inject-fault", "s-flip")
    assert code == 1 and out.splitlines()[0].startswith("ERROR ") and "\nFAIL " in out
    assert out.splitlines()[-1].endswith(" errors=1")


def test_cli_hodge_record():
    code, out = run_cli("hodge", "--p", "5", "--f", "2", "--gamma", "2,3", "--profile", "0")
    assert code == 0
    assert "hodge=1,-1;-3,-4" in out


def test_cli_find_type_forced_exit_2():
    code, _ = run_cli("find-type", "--p", "5", "--f", "1", "--r", "1,0", "--no-transition", "0")
    assert code == 2
    code, out = run_cli("find-type", "--p", "5", "--f", "2", "--r", "1,-1;-3,-4")
    assert code == 0 and "profile=" in out


def test_cli_deterministic_verify_and_sweep():
    code1, out1 = run_cli("verify", "--p", "3", "--f", "1", "--seed", "7")
    code2, out2 = run_cli("verify", "--p", "3", "--f", "1", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    _, sweep1 = run_cli("sweep", "--p", "3", "--f", "1")
    _, sweep2 = run_cli("sweep", "--p", "3", "--f", "1")
    assert sweep1 == sweep2


def test_cli_fault_injection_exit_1():
    code, out = run_cli("verify", "--p", "3", "--f", "1", "--inject-fault", "s-flip")
    assert code == 1
    assert "FAIL recipe-bounds" in out and "s out of" in out


def test_verify_leaves_environment_unchanged():
    from bkshapes.verify import run_suite

    before = dict(os.environ)
    assert all(res.passed for res in run_suite(3, 1))
    code, _ = run_cli("verify", "--p", "3", "--f", "1")
    assert code == 0
    code, _ = run_cli("verify", "--p", "3", "--f", "1", "--precision", "3")
    assert code == 2  # no precision option: inversions in the suite fix their own terms
    assert dict(os.environ) == before


def test_cli_verify_p2_runs_every_check():
    # p = 2, f = 1 has no principal-series type; the shape checks take a cuspidal one
    code, out = run_cli("verify", "--p", "2", "--f", "1")
    assert "crashed" not in out
    assert "PASS shape-invariance" in out and "PASS strongdet-vs-shape" in out


@pytest.mark.parametrize("p,f", [(4, 1), (3, 0), (3, -1)])
def test_cli_verify_rejects_bad_arguments(p, f, capsys):
    code, out = run_cli("verify", "--p", str(p), "--f", str(f))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_verify_refuses_p_past_the_primality_limit(capsys):
    """At and above the Miller-Rabin limit primality is not decided: exit 2 at once."""
    from bkshapes.gf import _MR_LIMIT

    start = time.perf_counter()
    code, out = run_cli("verify", "--p", str(_MR_LIMIT), "--f", "1")
    assert code == 2 and out == "" and time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == f"error: cannot decide whether {_MR_LIMIT} is prime: the limit is {_MR_LIMIT}\n"


@pytest.mark.parametrize("p,f", [(3, 0), (3, -1), (4, 1)])
def test_cli_sweep_rejects_bad_arguments(p, f, capsys):
    code, out = run_cli("sweep", "--p", str(p), "--f", str(f))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("--p must be prime" if p == 4 else "--f must be at least 1") in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["profiles", "--p", "4", "--f", "2", "--gamma", "1,0"], "--p must be prime"),
        (["profiles", "--p", "3", "--f", "0", "--gamma", "1"], "--f must be at least 1"),
        (["weights", "--p", "6", "--f", "1", "--gamma", "2"], "--p must be prime"),
        (["hodge", "--p", "3", "--f", "-1", "--gamma", "1", "--profile", "0"], "--f must be at least 1"),
        (["ext", "--p", "9", "--f", "1", "--gamma", "0", "--profile", "0", "--kext"], "--p must be prime"),
        (["find-type", "--p", "3", "--f", "2", "--r", "1,0"], "--r has 1 pairs but --f is 2"),
        (["find-type", "--p", "4", "--f", "1", "--r", "1,0"], "--p must be prime"),
        (["operators", "--p", "4", "--r", "3,3;4,2", "--kind", "nu", "--j", "0"], "--p must be prime"),
        (["inclusions", "--p", "1", "--r", "3,3;4,2"], "--p must be prime"),
        (["operators", "--p", "5", "--r", "3,3;4,2", "--kind", "nu", "--j", "2"],
         "--j must be an index in [0, 2), got 2"),
        (["operators", "--p", "5", "--r", "3,3;4,2", "--kind", "nu", "--j", "-2"],
         "--j must be an index in [0, 2), got -2"),
        (["find-type", "--p", "5", "--f", "2", "--r", "1,-1;-3,-4", "--transition", "7"],
         "--transition must be an index in [0, 2), got 7"),
        (["find-type", "--p", "5", "--f", "2", "--r", "1,-1;-3,-4", "--no-transition", "-1"],
         "--no-transition must be an index in [0, 2), got -1"),
        (["ext", "--p", "3", "--f", "2", "--gamma", "1,0", "--profile", "0,5", "--kext"],
         "--profile must be an index in [0, 2), got 5"),
        (["ext", "--p", "3", "--f", "2", "--gamma", "1,0", "--profile", "-1", "--kext"],
         "--profile must be an index in [0, 2), got -1"),
        (["hodge", "--p", "3", "--f", "2", "--gamma", "1,0", "--profile", "2"],
         "--profile must be an index in [0, 2), got 2"),
        (["hodge", "--p", "3", "--f", "2", "--kind", "cuspidal", "--gamma", "1,0", "--profile", "0,4"],
         "--profile must be an index in [0, 4), got 4"),
        (["weights", "--p", "3", "--f", "0", "--gamma", "1"], "--f must be at least 1"),
        (["find-type", "--p", "3", "--f", "0", "--r", "1,0"], "--f must be at least 1"),
        (["ext", "--p", "3", "--f", "0", "--gamma", "1", "--profile", "0", "--kext"],
         "--f must be at least 1"),
        (["profiles", "--p", "3", "--f", "1", "--gamma", "x"],
         "--gamma must be a comma list of integers, got 'x'"),
        (["hodge", "--p", "3", "--f", "2", "--gamma", "1,0", "--profile", "0,a"],
         "--profile must be a comma list of integers, got '0,a'"),
        (["ext", "--p", "3", "--f", "2", "--gamma", "1,0", "--profile", "0", "--h", "1,z"],
         "--h must be a comma list of integers, got '1,z'"),
        (["find-type", "--p", "3", "--f", "1", "--r", "garbage"],
         "--r must be a comma list of integers, got 'garbage'"),
    ],
)
def test_cli_type_commands_reject_bad_arguments(argv, message, capsys):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "type_args,gamma_args,pass_eta_prime",
    [
        (["--p", "3", "--f", "2"], ["--gamma", "1,0", "--eta-prime", "4"], True),
        (["--p", "5", "--f", "2", "--kind", "cuspidal"], ["--gamma", "3,1"], False),
    ],
)
def test_cli_eta_options_name_the_gamma_type(type_args, gamma_args, pass_eta_prime):
    """--eta (and --eta-prime) set to the exponents --gamma prints give the same records."""
    code, by_gamma = run_cli("profiles", *type_args, *gamma_args)
    assert code == 0
    head = dict(kv.split("=") for kv in by_gamma.split("\n", 1)[0].split())
    eta_args = ["--eta", head["eta"]]
    if pass_eta_prime:
        eta_args += ["--eta-prime", head["eta_prime"]]
    code, by_eta = run_cli("profiles", *type_args, *eta_args)
    assert code == 0 and by_eta == by_gamma


@pytest.mark.parametrize("member", ["2", "-1"])
def test_cli_descend_rejects_out_of_range_profile(member, tmp_path, capsys):
    modfile = str(tmp_path / "mod.json")
    code, _ = run_cli("ext", "--p", "3", "--f", "2", "--gamma", "1,0", "--profile", "0",
                      "--build", modfile)
    assert code == 0
    code, out = run_cli("descend", "--module", modfile, "--profile", f"0,{member}")
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err == f"error: --profile must be an index in [0, 2), got {member}\n"


def _write_module(path, mats):
    """The (3,2) principal module of gamma (1, 0) with v-scale matrices mats, as a module file."""
    from bkshapes.phimod import BKModule, eigenbasis_matrices
    from bkshapes.tametypes import PRINCIPAL, type_from_gamma

    tau, F = type_from_gamma(3, 2, PRINCIPAL, (1, 0)), field(3, 2)
    path.write_text(module_to_json(tau, eigenbasis_matrices(BKModule(tau, mats)), F, scale="u"))
    return str(path)


def _noshape_file(tmp_path):
    """A well-formed module file whose module has no shape: no diagonal entry is divisible."""
    import random

    from bkshapes.randgen import random_noshape_matrix

    rng = random.Random(0)
    F = field(3, 2)
    return _write_module(tmp_path / "noshape.json", [random_noshape_matrix(rng, F, 3) for _ in range(2)])


def _diag_v_file(tmp_path):
    """The module of diag(v, v) at each index: it has every shape, and determinant v**2."""
    from bkshapes.series import Mat2, Series

    F = field(3, 2)
    v, zero = Series.monomial(F, "v", 1, 1), Series.zero(F, "v")
    return _write_module(tmp_path / "diagv.json", [Mat2(v, zero, zero, v)] * 2)


def _refused(capsys, *argv):
    """Run the CLI; it must exit 2 with nothing on stdout and one `error:` line, returned."""
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == "", (argv, code, out)
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_cli_shape_and_descend_refuse_a_shapeless_module(tmp_path, capsys):
    modfile = _noshape_file(tmp_path)
    for argv in (("shape", "--module", modfile), ("descend", "--module", modfile, "--profile", "0")):
        err = _refused(capsys, *argv)
        assert err == "error: module has no shape: no diagonal divisibility at index 0\n"


def test_cli_shape_lists_profiles_in_mask_order(tmp_path):
    """`shape` orders the profiles as `profiles`, `weights` and `sweep` do, by mask."""
    code, out = run_cli("shape", "--module", _diag_v_file(tmp_path))
    assert code == 0
    assert out == "strong_det=0 shapes=II,II profile=0 profile=1 profile=2 profile=3\n"


def test_classify_shape_orders_cuspidal_profiles_by_mask():
    """For a cuspidal type i+f lies in J exactly when i does not, so mask order is not member order."""
    from bkshapes.phimod import BKModule, classify_shape
    from bkshapes.series import Mat2, Series
    from bkshapes.tametypes import make_type, profile_mask

    tau = make_type(3, 2, "cuspidal", 1, 9)
    F = field(3, 4)
    v, zero = Series.monomial(F, "v", 1, 1), Series.zero(F, "v")
    _, profiles = classify_shape(BKModule(tau, [Mat2(v, zero, zero, v)] * 2))
    assert [profile_mask(tau, J) for J in profiles] == [3, 6, 9, 12]


def test_cli_descend_refuses_a_module_failing_the_determinant_test(tmp_path, capsys):
    modfile = _diag_v_file(tmp_path)
    code, out = run_cli("shape", "--module", modfile)
    assert code == 0 and out.startswith("strong_det=0 shapes=II,II ") and out.count("profile=") == 4
    for members in ("-", "0", "1", "0,1"):
        err = _refused(capsys, "descend", "--module", modfile, "--profile", members)
        assert "strong determinant condition" in err


_BUILT = {
    "principal": ("--gamma", "1,0", "--profile", "0", "--h", "1,1"),
    "cuspidal": ("--kind", "cuspidal", "--eta", "1", "--profile", "2,3", "--h", "1,0"),
}


@pytest.mark.parametrize("kind", sorted(_BUILT))
def test_cli_descend_succeeds_exactly_on_the_profiles_shape_lists(kind, tmp_path, capsys):
    """Every other profile is refused with exit 2: the principal module refuses -, 1 and 0,1."""
    from bkshapes.tametypes import enumerate_profiles, profile_mask

    modfile = str(tmp_path / "mod.json")
    code, _ = run_cli("ext", "--p", "3", "--f", "2", *_BUILT[kind], "--build", modfile)
    assert code == 0
    tau, _, _, _ = module_from_json((tmp_path / "mod.json").read_text())
    code, out = run_cli("shape", "--module", modfile)
    assert code == 0 and out.startswith("strong_det=1 ")
    listed = {int(tok.split("=")[1]) for tok in out.split() if tok.startswith("profile=")}
    assert listed
    for J in enumerate_profiles(tau):
        members = ",".join(map(str, sorted(J))) or "-"
        code, out = run_cli("descend", "--module", modfile, "--profile", members)
        err = capsys.readouterr().err
        if profile_mask(tau, J) in listed:
            assert code == 0 and out.startswith(f"profile={profile_mask(tau, J)} ") and err == ""
        else:
            assert code == 2 and out == "" and err.count("\n") == 1
            assert err.startswith("error: module is not a point of the component of profile ")


@pytest.mark.parametrize("extra", [("--split",), ("--h", "1,1"), ("--build", "kext.json"),
                                   ("--split", "--h", "1,1", "--build", "kext.json")])
def test_cli_kext_refuses_the_options_it_would_ignore(extra, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    err = _refused(capsys, "ext", "--p", "3", "--f", "2", "--gamma", "1,0", "--profile", "0",
                   "--kext", *extra)
    assert err.startswith("error: --kext does not combine with ")
    assert all(opt in err for opt in extra if opt.startswith("--"))
    assert not (tmp_path / "kext.json").exists()


@pytest.mark.parametrize("extra,message", [
    (("--a", "2", "--b", "2"), "the rank-1 modules agree after inverting u; equal twists rejected"),
    (("--a", "0"), "twist parameters must be nonzero field elements"),
    (("--b", "3"), "twist parameters must be nonzero field elements"),
    (("--h", "1,1"), "class vector must have length 1"),
    (("--h", "3"), "class vector entries must be field codes"),
])
def test_cli_ext_refusals(extra, message, capsys):
    """At (3,1), gamma 1, profile {0} (an exceptional pair over F_3), each refusal of `ext`."""
    err = _refused(capsys, "ext", "--p", "3", "--f", "1", "--gamma", "1", "--profile", "0", *extra)
    assert err == f"error: {message}\n"


def test_cli_ext_split_builds_one_solver(monkeypatch):
    from bkshapes import extensions

    built = []
    init = extensions._Solver.__init__

    def counting_init(self, x):
        built.append(x)
        init(self, x)

    monkeypatch.setattr(extensions._Solver, "__init__", counting_init)
    code, out = run_cli(
        "ext", "--p", "3", "--f", "2", "--gamma", "1,0", "--profile", "0", "--h", "1,1", "--split",
    )
    assert code == 0 and "splits=0" in out and "free_cycles=0" in out
    assert len(built) == 1


def test_cli_ext_and_module_pipeline(tmp_path):
    modfile = tmp_path / "mod.json"
    code, out = run_cli(
        "ext", "--p", "3", "--f", "2", "--gamma", "1,0", "--profile", "0",
        "--a", "1", "--b", "2", "--h", "1,1", "--split", "--build", str(modfile),
    )
    assert code == 0 and "splits=" in out
    code, out = run_cli("shape", "--module", str(modfile))
    assert code == 0 and "strong_det=1" in out
    code, out = run_cli("descend", "--module", str(modfile), "--profile", "0",
                        "--out", str(tmp_path / "desc.json"))
    assert code == 0 and "exponents=" in out
    doc = json.loads((tmp_path / "desc.json").read_text())
    assert doc["scale"] == "v"
    for path in (modfile, tmp_path / "desc.json"):
        text = path.read_text()
        tau, mats, F, scale = module_from_json(text)
        assert module_to_json(tau, mats, F, scale=scale) == text


def test_cli_kext_record():
    code, out = run_cli(
        "ext", "--p", "3", "--f", "1", "--kind", "cuspidal", "--gamma", "0",
        "--profile", "0", "--a", "1", "--b", "2", "--kext",
    )
    assert code == 0 and "kext_dim=1" in out


def test_cli_ext_refuses_field_over_table_limit(capsys):
    code, out = run_cli(
        "ext", "--p", "3", "--f", "4", "--kind", "cuspidal", "--gamma", "0,1,1,2",
        "--profile", "0,1,2,3", "--a", "1", "--b", "2", "--kext",
    )
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "6561" in err and "4096" in err
    code, out = run_cli(
        "ext", "--p", "3", "--f", "1", "--kind", "cuspidal", "--gamma", "0",
        "--profile", "0", "--kext",
    )
    assert code == 0 and "field=F_9" in out and capsys.readouterr().err == ""


def test_cli_usage_errors():
    code, _ = run_cli("hodge", "--p", "5", "--f", "2", "--profile", "0")  # no type data
    assert code == 2
    code, _ = run_cli("operators", "--p", "5", "--r", "3,3;4,2", "--kind", "nu", "--j", "1")
    assert code == 2  # regular at 1


def test_cli_weights_and_inclusions():
    code, out = run_cli("weights", "--p", "5", "--f", "1", "--gamma", "2")
    assert code == 0 and "jh_count=2" in out
    code, out = run_cli("inclusions", "--p", "5", "--r", "3,3;4,2")
    assert code == 0 and out.count("target=") == 3
