"""Output checks: closed forms and properties the method must have.

Each check returns a list of problems (empty when the output is right).
The README names every check.
"""

from __future__ import annotations

import os

from oracles import least_irreducible
from workloads import SWEEPS, gamma_digits, recipe, recipe_row_count


def _fields(line):
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _ints(text):
    return () if text == "-" else tuple(int(x) for x in text.split(","))


def _pairs(text):
    return tuple(tuple(int(x) for x in part.split(",")) for part in text.split(";"))


def _members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# -- verify-p3f2 ------------------------------------------------------------

def check_verify(records, p, f, seed):
    """Exit 0, 19 PASS lines, and the two counts the closed forms give."""
    (rec,) = records
    lines = rec["out"].splitlines()
    probs = []
    if rec["code"] != 0:
        probs.append(f"verify exited {rec['code']}")
    passes = {ln[5:].split(":")[0]: ln.split(": ", 1)[1] for ln in lines if ln.startswith("PASS ")}
    if len(passes) != 19 or len(lines) != 20:
        probs.append(f"verify printed {len(passes)} PASS lines of {len(lines) - 1}")
    if lines[-1:] != [f"verify p={p} f={f} seed={seed} failures=0"]:
        probs.append(f"verify summary line is {lines[-1:]}")
    want = {
        "recipe-bounds": f"{recipe_row_count(p, f)} (type, profile) pairs",
        "existence-roundtrip": f"{(p + 1) ** f - 1} canonical types",
    }
    for name, detail in want.items():
        if passes.get(name) != detail:
            probs.append(f"{name}: {passes.get(name)!r}, closed form gives {detail!r}")
    return probs


# -- sweep-fields -------------------------------------------------------------

def parse_sweep_row(line):
    kv = _fields(line)
    return {
        "p": int(kv["p"]), "f": int(kv["f"]), "kind": kv["kind"], "eta": int(kv["eta"]),
        "eta_prime": int(kv["eta_prime"]), "profile": int(kv["profile"]),
        "s": _ints(kv["s"]), "t": _ints(kv["t"]), "theta": _ints(kv["theta"]),
        "bad": _ints(kv["bad"]), "P_tau": int(kv["P_tau"]), "hodge": _pairs(kv["hodge"]),
    }


def check_sweep_row(row):
    p, f = row["p"], row["f"]
    fp = f if row["kind"] == "PS" else 2 * f
    gamma = gamma_digits(p, fp, row["eta"], row["eta_prime"])
    s, t, bad = recipe(p, f, gamma, _members(row["profile"]))
    probs = []
    if (row["s"], row["t"], row["bad"]) != (tuple(s), tuple(t), tuple(bad)):
        probs.append(f"s/t/bad differ from the recipe: {row}")
    if row["P_tau"] != int(not bad):
        probs.append(f"P_tau={row['P_tau']} with bad={bad}: {row}")
    if [a - b for a, b in row["hodge"]] != [1 + x for x in s[:f]]:
        probs.append(f"Hodge gaps are not 1 + s: {row}")
    return probs


def check_sweep(records, workdir):
    """Row counts, recipe data per row, header polynomials, read-back."""
    from bkshapes.io import read_sweep

    probs = []
    for rec, (p, f) in zip(records, SWEEPS):
        path = f"sweep-{p}-{f}.txt"
        n = recipe_row_count(p, f)
        if rec["code"] != 0 or rec["out"] != f"rows={n} wrote={path}\n":
            probs.append(f"sweep {p},{f} printed {rec['out']!r} (exit {rec['code']})")
        with open(os.path.join(workdir, path)) as fh:
            text = fh.read()
        head, *lines = text.splitlines()
        kv = _fields(head)
        for fp in sorted({f, 2 * f}):
            poly = _ints(kv.get(f"poly[{fp}]", "-"))
            if len(poly) != fp + 1 or poly[-1] != 1 or poly != least_irreducible(p, fp):
                probs.append(f"sweep {p},{f}: poly[{fp}]={poly} is not the least irreducible")
        rows = [parse_sweep_row(ln) for ln in lines]
        if len(rows) != n:
            probs.append(f"sweep {p},{f}: {len(rows)} rows, closed form gives {n}")
        for row in rows:
            probs += check_sweep_row(row)
        if read_sweep(text) != rows:
            probs.append(f"sweep {p},{f}: read_sweep does not return the rows written")
    return probs
