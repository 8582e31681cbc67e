"""Workload inputs, generated from the seed alone.

Each workload is a list of CLI calls (argument lists for
``bkshapes.cli.main``); one round runs the whole list in a fresh
interpreter.  The same seed gives the same calls, so two rounds with the
same seed must give byte-identical program output.
"""

from __future__ import annotations

WORKLOADS = ("verify-p3f2", "sweep-fields")

VERIFY_P, VERIFY_F = 3, 2
SWEEPS = ((5, 2), (3, 3))


def calls(workload, seed):
    """The calls of one round."""
    if workload == "verify-p3f2":
        return [["verify", "--p", str(VERIFY_P), "--f", str(VERIFY_F), "--seed", str(seed)]]
    if workload == "sweep-fields":
        return [["sweep", "--p", str(p), "--f", str(f), "--out", f"sweep-{p}-{f}.txt"]
                for p, f in SWEEPS]
    raise ValueError(f"unknown workload {workload!r}")


def recipe_row_count(p, f):
    """(type, profile) pairs at (p, f): ((q-1)(q-2) + q^2 - q) * 2^f, q = p^f."""
    q = p**f
    return ((q - 1) * (q - 2) + q * q - q) * 2**f


# -- the recipe, restated from the paper's formulas for the output checks ----

def gamma_digits(p, fp, eta, eta_prime):
    """Digits of eta/eta' at level f': index i carries weight p^(-i mod f')."""
    r = (eta - eta_prime) % (p**fp - 1)
    return [(r // p ** ((-i) % fp)) % p for i in range(fp)]


def recipe(p, f, gamma, members):
    """(s, t, bad set) of a (type, profile) pair from the level-f' digits."""
    fp = len(gamma)
    J = set(members)
    s, t = [], []
    for i in range(fp):
        here = i in J
        if (i - 1) % fp in J:
            s.append(p - 1 - gamma[i] - (0 if here else 1))
            t.append(gamma[i] + (0 if here else 1))
        else:
            s.append(gamma[i] - (1 if here else 0))
            t.append(0)
    bad = sorted(i for i in range(f) if s[i] == -1)
    return s, t, bad
