"""File formats: module files (JSON) and line-delimited sweep tables.

Module files carry matrix entries as a valuation plus the list of
coefficients, each field element spelled as its polynomial coefficient
list over F_p (exactly m integer digits in [0, p), checked on reading).
Sweep tables are line-delimited key=value records under a versioned
header naming p, f, the field polynomials in play, and the precision;
rows are sorted by key so identical inputs give identical bytes.
"""

from __future__ import annotations

import json

from .gf import GF, coefficient_field, field
from .series import Mat2, Series
from .tametypes import PRINCIPAL, TameType

MODULE_FORMAT = "bkshapes-module v1"
SWEEP_FORMAT = "bkshapes-sweep v1"


def _series_to_json(s: Series, F: GF):
    return {
        "val": 0 if s.is_zero() else s.val,
        "coeffs": [list(F.element_digits(int(c))) for c in s.coeffs],
        "prec": s.prec,
    }


def _code_from_digits(ds, F: GF) -> int:
    digits = [int(d) for d in ds]
    if digits != list(ds) or len(digits) != F.m or not all(0 <= d < F.p for d in digits):
        raise ValueError(f"field element {ds!r} is not {F.m} digits in [0, {F.p})")
    return sum(d * F.p**j for j, d in enumerate(digits))


def _series_from_json(obj, F: GF, scale: str) -> Series:
    codes = [_code_from_digits(ds, F) for ds in obj["coeffs"]]
    return Series(F, scale, int(obj["val"]), codes, obj.get("prec"))


def _mat_to_json(M: Mat2, F: GF):
    return [_series_to_json(s, F) for s in M.e]


def _mat_from_json(obj, F: GF, scale: str) -> Mat2:
    return Mat2(*(_series_from_json(e, F, scale) for e in obj))


def tau_to_json(tau: TameType):
    return {"p": tau.p, "f": tau.f, "kind": tau.kind, "eta": tau.eta, "eta_prime": tau.eta_prime}


def tau_from_json(obj) -> TameType:
    return TameType(int(obj["p"]), int(obj["f"]), obj["kind"], int(obj["eta"]), int(obj["eta_prime"]))


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
    doc = json.loads(text)
    if doc.get("format") != MODULE_FORMAT:
        raise ValueError(f"unsupported module format {doc.get('format')!r}")
    tau = tau_from_json(doc["type"])
    fdesc = doc["field"]
    F = field(int(fdesc["p"]), int(fdesc["degree"]))
    if list(F.poly) != [int(c) for c in fdesc["poly"]]:
        raise ValueError("field polynomial mismatch; this build uses the least irreducible")
    scale = doc["scale"]
    mats = [_mat_from_json(M, F, scale) for M in doc["matrices"]]
    return tau, mats, F, scale


# -- sweep tables --------------------------------------------------------------

def _fmt_ints(xs) -> str:
    return ",".join(str(int(x)) for x in xs) if xs else "-"


def _parse_ints(s: str):
    return tuple() if s == "-" else tuple(int(x) for x in s.split(","))


def _fmt_pairs(pairs) -> str:
    return ";".join(f"{a},{b}" for a, b in pairs)


def _parse_pairs(s: str):
    return tuple(tuple(int(x) for x in part.split(",")) for part in s.split(";"))


def sweep_header(p: int, f: int, precision: int) -> str:
    polys = []
    for fp in sorted({f, 2 * f}):
        F = coefficient_field(p, fp)
        polys.append(f"poly[{fp}]={_fmt_ints(F.poly)}")
    return f"# {SWEEP_FORMAT} p={p} f={f} precision={precision} " + " ".join(polys)


def sweep_rows(p: int, f: int):
    """One record per (type, profile), sorted by key."""
    from .hodge import hodge_type_of
    from .tametypes import enumerate_profiles, enumerate_types, profile_data, profile_mask

    rows = []
    for tau in enumerate_types(p, f):
        for J in enumerate_profiles(tau):
            pd = profile_data(tau, J)
            r = hodge_type_of(tau, J)
            rows.append(
                {
                    "p": p,
                    "f": f,
                    "kind": "PS" if tau.kind == PRINCIPAL else "C",
                    "eta": tau.eta,
                    "eta_prime": tau.eta_prime,
                    "profile": profile_mask(tau, J),
                    "s": pd.s,
                    "t": pd.t,
                    "theta": pd.theta,
                    "bad": tuple(sorted(pd.bad_set)),
                    "P_tau": int(pd.in_P_tau),
                    "hodge": r,
                }
            )
    rows.sort(key=lambda r: (r["kind"], r["eta"], r["eta_prime"], r["profile"]))
    return rows


def format_row(row) -> str:
    return (
        f"p={row['p']} f={row['f']} kind={row['kind']} eta={row['eta']}"
        f" eta_prime={row['eta_prime']} profile={row['profile']}"
        f" s={_fmt_ints(row['s'])} t={_fmt_ints(row['t'])} theta={_fmt_ints(row['theta'])}"
        f" bad={_fmt_ints(row['bad'])} P_tau={row['P_tau']} hodge={_fmt_pairs(row['hodge'])}"
    )


def parse_row(line: str):
    kv = dict(part.split("=", 1) for part in line.split())
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


def write_sweep(p: int, f: int, precision: int) -> str:
    lines = [sweep_header(p, f, precision)]
    lines += [format_row(r) for r in sweep_rows(p, f)]
    return "\n".join(lines) + "\n"


def read_sweep(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(f"# {SWEEP_FORMAT}"):
        raise ValueError("missing or unsupported sweep header")
    return [parse_row(ln) for ln in lines[1:]]
