"""File formats: module files (JSON) and line-delimited sweep tables.

Module files carry matrix entries as a valuation plus the list of
coefficients, each field element spelled as its polynomial coefficient
list over F_p (exactly m integer digits in [0, p), checked on reading).
Every other number in a module file is a JSON integer too; the type's p
must be prime and its f at least 1, and the field must be one `GF` builds,
of characteristic p.
Sweep tables are line-delimited key=value records under a versioned
header naming p, f, the field polynomials in play, and the default series
precision (`DEFAULT_PRECISION`); rows are sorted by key so identical
inputs give identical bytes.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import itemgetter

from .gf import GF, MAX_TABLE_Q, field, is_prime, least_irreducible
from .series import DEFAULT_PRECISION, Mat2, Series
from .tametypes import PRINCIPAL, TameType

MODULE_FORMAT = "bkshapes-module v1"
SWEEP_FORMAT = "bkshapes-sweep v1"


def _series_to_json(s: Series, F: GF):
    return {
        "val": 0 if s.is_zero() else s.val,
        "coeffs": [list(F.element_digits(int(c))) for c in s.coeffs],
        "prec": s.prec,
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int(obj, key: str) -> int:
    """The value under ``key``, which must be a JSON integer (not a bool or float)."""
    value = obj[key]
    if not _is_int(value):
        raise ValueError(f"module file value {key!r} must be an integer, got {value!r}")
    return value


def _code_from_digits(ds, F: GF) -> int:
    digits = list(ds)
    if len(digits) != F.m or not all(_is_int(d) and 0 <= d < F.p for d in digits):
        raise ValueError(f"field element {ds!r} is not {F.m} digits in [0, {F.p})")
    return sum(d * F.p**j for j, d in enumerate(digits))


def _series_from_json(obj, F: GF, scale: str) -> Series:
    codes = [_code_from_digits(ds, F) for ds in obj["coeffs"]]
    prec = None if obj.get("prec") is None else _int(obj, "prec")
    return Series(F, scale, _int(obj, "val"), codes, prec)


def _mat_to_json(M: Mat2, F: GF):
    return [_series_to_json(s, F) for s in M.e]


def _mat_from_json(obj, F: GF, scale: str) -> Mat2:
    return Mat2(*(_series_from_json(e, F, scale) for e in obj))


def tau_to_json(tau: TameType):
    return {"p": tau.p, "f": tau.f, "kind": tau.kind, "eta": tau.eta, "eta_prime": tau.eta_prime}


def tau_from_json(obj) -> TameType:
    p, f = _int(obj, "p"), _int(obj, "f")
    if not is_prime(p):
        raise ValueError(f"type p must be prime, got {p}")
    if f < 1:
        raise ValueError(f"type f must be at least 1, got {f}")
    return TameType(p, f, obj["kind"], _int(obj, "eta"), _int(obj, "eta_prime"))


def module_to_json(tau: TameType, mats, F: GF, scale: str = "u") -> str:
    doc = {
        "format": MODULE_FORMAT,
        "type": tau_to_json(tau),
        "field": {"p": F.p, "degree": F.m, "poly": list(F.poly)},
        "scale": scale,
        "matrices": [_mat_to_json(M, F) for M in mats],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def module_from_json(text: str):
    """Decode a module file; a missing key or a value of the wrong type raises ValueError."""
    doc = json.loads(text)
    try:
        if doc.get("format") != MODULE_FORMAT:
            raise ValueError(f"unsupported module format {doc.get('format')!r}")
        tau = tau_from_json(doc["type"])
        fdesc = doc["field"]
        F = field(_int(fdesc, "p"), _int(fdesc, "degree"))
        if F.p != tau.p:
            raise ValueError(f"field characteristic {F.p} differs from the type's p={tau.p}")
        if list(F.poly) != fdesc["poly"]:
            raise ValueError("field polynomial mismatch; this build uses the least irreducible")
        scale = doc["scale"]
        mats = [_mat_from_json(M, F, scale) for M in doc["matrices"]]
    except KeyError as exc:
        raise ValueError(f"module file lacks the key {exc.args[0]!r}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed module file: {exc}") from None
    return tau, mats, F, scale


# -- sweep tables --------------------------------------------------------------

def _fmt_ints(xs) -> str:
    """Comma list of the integers, one %d each (it truncates as int() does); '-' for none."""
    return ",".join(["%d"] * len(xs)) % tuple(xs) if xs else "-"


@lru_cache(maxsize=4096)
def _parse_ints(s: str):
    """Comma list of integers; '-' or '' is the empty tuple.  A table repeats few field
    strings, so each distinct one is parsed once; a malformed one raises on every call."""
    return () if s in ("-", "") else tuple(map(int, s.split(",")))


def _fmt_pairs(pairs) -> str:
    return ";".join([f"{a},{b}" for a, b in pairs])


@lru_cache(maxsize=4096)
def _parse_pairs(s: str):
    return tuple([tuple(map(int, part.split(","))) for part in s.split(";")])


def sweep_header(p: int, f: int) -> str:
    """The header line; poly[f'] defines F_{p^f'} for each level f' in play.

    Within the table limit it is read off `field(p, f')`; past it no field
    can be built, and the least irreducible of degree f', the same
    polynomial, is printed instead.
    """
    polys = []
    for fp in sorted({f, 2 * f}):
        poly = field(p, fp).poly if p**fp <= MAX_TABLE_Q else least_irreducible(p, fp)
        polys.append(f"poly[{fp}]={_fmt_ints(poly)}")
    return f"# {SWEEP_FORMAT} p={p} f={f} precision={DEFAULT_PRECISION} " + " ".join(polys)


def sweep_rows(p: int, f: int):
    """One record per (type, profile), sorted by key."""
    from .hodge import hodge_type_of
    from .tametypes import enumerate_profiles, enumerate_types, profile_data, profile_mask

    rows = []
    for tau in enumerate_types(p, f):
        kind, eta, eta_prime = "PS" if tau.kind == PRINCIPAL else "C", tau.eta, tau.eta_prime
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            bad = _sorted_members(pd.bad_set)
            rows.append({
                "p": p, "f": f, "kind": kind, "eta": eta, "eta_prime": eta_prime,
                "profile": profile_mask(tau, J), "s": pd.s, "t": pd.t, "theta": pd.theta,
                "bad": bad, "P_tau": int(not bad), "hodge": hodge_type_of(tau, J),
            })
    rows.sort(key=itemgetter("kind", "eta", "eta_prime", "profile"))
    return rows


@lru_cache(maxsize=None)
def _sorted_members(members: frozenset) -> tuple[int, ...]:
    """The members in ascending order; a sweep's bad sets are a few shared frozensets."""
    return tuple(sorted(members))


_ints_text = lru_cache(maxsize=None)(_fmt_ints)
_pairs_text = lru_cache(maxsize=None)(_fmt_pairs)


def format_row(row) -> str:
    """One table line.  The row's tuples (as `sweep_rows` and `parse_row` give them) repeat
    across a table: at (3,3), 10 816 rows hold 416 (s, t) pairs, 26 theta and 1 638 Hodge
    types.  So each distinct tuple is formatted once, as `_parse_ints` and `_parse_pairs` parse
    each distinct field string once."""
    return (
        f"p={row['p']} f={row['f']} kind={row['kind']} eta={row['eta']}"
        f" eta_prime={row['eta_prime']} profile={row['profile']}"
        f" s={_ints_text(row['s'])} t={_ints_text(row['t'])} theta={_ints_text(row['theta'])}"
        f" bad={_ints_text(row['bad'])} P_tau={row['P_tau']} hodge={_pairs_text(row['hodge'])}"
    )


def parse_row(line: str):
    kv = dict([part.split("=", 1) for part in line.split()])
    return {
        "p": int(kv["p"]),
        "f": int(kv["f"]),
        "kind": kv["kind"],
        "eta": int(kv["eta"]),
        "eta_prime": int(kv["eta_prime"]),
        "profile": int(kv["profile"]),
        "s": _parse_ints(kv["s"]),
        "t": _parse_ints(kv["t"]),
        "theta": _parse_ints(kv["theta"]),
        "bad": _parse_ints(kv["bad"]),
        "P_tau": int(kv["P_tau"]),
        "hodge": _parse_pairs(kv["hodge"]),
    }


def write_sweep(p: int, f: int) -> str:
    lines = [sweep_header(p, f)]
    lines += [format_row(r) for r in sweep_rows(p, f)]
    return "\n".join(lines) + "\n"


def read_sweep(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(f"# {SWEEP_FORMAT}"):
        raise ValueError("missing or unsupported sweep header")
    return [parse_row(ln) for ln in lines[1:]]
