"""Golden outputs: sha256 digests of CLI output that must not change.

The digests pin the exact bytes of `verify`, `sweep`, `ext`, `shape` and
`descend` on fixed inputs, so a refactor that is meant to leave output
byte-identical is checked by the suite rather than by a one-off diff.
The operator checks of `verify` only run at f >= 2, hence (3, 2); (5, 2)
runs the series engine over F_25 and F_625 as well, (7, 2) over F_2401,
and (3, 3) carries three matrices per operator trial.  Seeds 1 to 3 are
pinned too, since the benchmark runs `verify` at seeds other than 0.  The sweeps at (5, 2)
and (3, 3) are the ones the benchmark's `sweep-fields` workload runs.  Module
files are written under relative names inside a temporary directory, so
the `wrote=` lines do not carry a machine path.
"""

import hashlib
import io

import pytest

from bkshapes.cli import main


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


GOLDEN_STDOUT = {
    ("verify", "--p", "3", "--f", "1", "--seed", "0"):
        "948b24984e2ef3fb2ecbb49571f4775381709fd16cfc86fb2a2a1069beb0c258",
    ("verify", "--p", "3", "--f", "2", "--seed", "0"):
        "0cf647a32f6bd0cf8a52e265fc719782f3df3a71ce5f93f6e80bb9c8559edb4b",
    ("verify", "--p", "5", "--f", "2", "--seed", "0"):
        "418e352fa8008248d44193773ba7fa9c07101c50b3ee2b8fbd5d96cfd9dc62d2",
    ("verify", "--p", "7", "--f", "2", "--seed", "0"):
        "8e73afb182a4c284ae08e2e0e908b0039f0bffaba5cf8332500cebcb3d567d36",
    ("verify", "--p", "3", "--f", "3", "--seed", "0"):
        "7500609263a8f9281ebd90156f33cca51730e6ad1e88103fde53c0927e22ddd5",
    # the benchmark's verify workload runs seeds other than 0
    ("verify", "--p", "3", "--f", "2", "--seed", "1"):
        "acf335ca4f0f47aa6c3c7ff619d6e49eb57d543ea190a43ea7af78d0d1a38a5a",
    ("verify", "--p", "3", "--f", "2", "--seed", "2"):
        "5c86ce12833fd48c5a276cf76ffa74374b5eb8cb1ea51b27d4f93ba30f4a0c9e",
    ("verify", "--p", "3", "--f", "2", "--seed", "3"):
        "4bbdc50586dc97e040734825c0b2866931626a303d3ab3a469096406a0b5ef03",
    ("verify", "--p", "5", "--f", "2", "--seed", "1"):
        "9553a701b524355688a61328b50676e171896443a3a8511052012c81a4c3673b",
    ("verify", "--p", "3", "--f", "3", "--seed", "1"):
        "cb5db0ec95116e384da51fd45b4cce9af2a0b342cad6270ec5c90d02c4e648cf",
    ("sweep", "--p", "3", "--f", "2"):
        "62b85aa4be9f6a88eefe25100b3404082250481329c45791ef63320d870fcda4",
    ("sweep", "--p", "5", "--f", "2"):
        "84976be8ffc337b2be45c79b90f04980767953b1d5747862dd97fee27024e95a",
    ("sweep", "--p", "3", "--f", "3"):
        "cfa449f4f45a7498465b6c495e5c9569ac426c1a760731e77c8a5668805a320f",
    ("ext", "--p", "3", "--f", "3", "--gamma", "1,0,2", "--profile", "0,2", "--kext"):
        "c95dee1c65562bd96f97ed9b89f1ab0c05b7224a444908bd294c8e7e97514077",
    # free_cycles=1: the h-source on the cycle (splits=1), off it (splits=0), and f = 2
    ("ext", "--p", "3", "--f", "1", "--kind", "cuspidal", "--eta", "1", "--profile", "0",
     "--h", "1", "--split"):
        "52bf34382ecda34b55da3eb9e87153c05966a4365c3da7f50fecd165294bf8de",
    ("ext", "--p", "3", "--f", "1", "--kind", "cuspidal", "--eta", "1", "--profile", "1",
     "--h", "1", "--split"):
        "f5b5e0b5fa94cfa7976cd7bda1ccf5a4776fde961bcb983e0e9c57a30e5e59e2",
    ("ext", "--p", "3", "--f", "2", "--kind", "cuspidal", "--eta", "1", "--profile", "2,3",
     "--h", "1,0", "--split"):
        "37fd05d3be03e016130e15fb98344eb24c34d4303eaceae8590ac04d8cedae4e",
}

# ext --build writes mod.json; shape reads it; descend --out writes desc.json
GOLDEN_PIPELINE = {
    "ext": "8fef8795e59dd5e17442423e01bb86b1562a27b11af140ce14ae749ad826b38f",
    "mod.json": "8818ba3f0a7dc358629ee232064795c9fa794f1235aacbd9916b83eda4361a4f",
    "shape": "84bf7ced30c9fbba09c071068d9d337b17ed9eb6d6e1f5bc9ff001950deae3a5",
    "descend": "10031404b58423ddb5f01eb0b3c788d9e9a1c24d0fa78c6afd9ec1c2581b6b4f",
    "desc.json": "ffeff183ce2905c1e71716d151c3adf094a5495459b64cd4856046a43c028a96",
}

# the same pipeline on a cuspidal type, whose module file holds f' = 2f matrices
GOLDEN_CUSPIDAL_PIPELINE = {
    "ext": "8f37f401a1532eff31a8f97e7771f5849e8f594952f53f5f1bc69281419b2095",
    "mod.json": "cf4240934bf1e046b00aa39bb20b10275c279b7e58aabe361b3d2ce9af3b6120",
    "shape": "3ced40a1abde6cdd995b1465603338e269d829f6ce0c86c889bb7e5849ba5544",
    "descend": "6a6fd833c29b23ddb8c6db146863cbb116421ea503fb772185d573218acb4745",
    "desc.json": "0eb47fb56c8fc144cd53a89a0898cc8a6c16198ec6a0140048d204ddfcc59373",
}


def pipeline_outputs(type_args=("--gamma", "1,0"), profile="0", h="1,1"):
    """Stdout of each step and the bytes of each module file written."""
    got = {}
    code, got["ext"] = _stdout(
        "ext", "--p", "3", "--f", "2", *type_args, "--profile", profile,
        "--h", h, "--split", "--build", "mod.json",
    )
    assert code == 0
    code, got["shape"] = _stdout("shape", "--module", "mod.json")
    assert code == 0
    code, got["descend"] = _stdout(
        "descend", "--module", "mod.json", "--profile", profile, "--out", "desc.json",
    )
    assert code == 0
    for name in ("mod.json", "desc.json"):
        with open(name) as fh:
            got[name] = fh.read()
    return got


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_golden_stdout(argv):
    code, out = _stdout(*argv)
    assert code == 0
    assert _sha(out) == GOLDEN_STDOUT[argv]


def test_golden_module_pipeline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = pipeline_outputs()
    assert {k: _sha(v) for k, v in got.items()} == GOLDEN_PIPELINE


def test_golden_cuspidal_module_pipeline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = pipeline_outputs(("--kind", "cuspidal", "--eta", "1"), profile="2,3", h="1,0")
    assert {k: _sha(v) for k, v in got.items()} == GOLDEN_CUSPIDAL_PIPELINE


def test_golden_sweep_out_file(tmp_path):
    """`sweep --out` (the call the benchmark's sweep-fields times) writes the golden table and
    prints one line, the row count read back from that table and the path."""
    path = tmp_path / "t.txt"
    code, out = _stdout("sweep", "--p", "3", "--f", "2", "--out", str(path))
    assert code == 0
    assert out.splitlines() == [f"rows=512 wrote={path}"] and out.endswith("\n")
    assert _sha(path.read_text()) == GOLDEN_STDOUT[("sweep", "--p", "3", "--f", "2")]
