"""Command-line interface: batch computations over line-delimited records.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors
(including a non-prime p given to any command that takes one, an f below 1,
a `find-type` Hodge type whose number of pairs is not f, an index given to
`--j`, `--transition` or `--no-transition` outside [0, f), a `--profile`
member outside [0, f'), the
unsatisfiable transition preferences of `find-type`, a malformed module
file and a module file whose coefficients are known too coarsely to decide).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .charexp import NormDescentError
from .gf import MAX_TABLE_Q, coefficient_field, field, is_prime
from .hodge import (
    ForcedChoiceError,
    apply_operator,
    as_hodge,
    canonical_hodge,
    find_type_profile,
    hodge_type_of,
    hodge_type_of_raw,
    predicted_inclusions,
)
from .io import (
    _fmt_ints,
    _fmt_pairs,
    _parse_ints,
    module_from_json,
    module_to_json,
    read_sweep,
    write_sweep,
)
from .series import PrecisionError
from .tametypes import (
    CUSPIDAL,
    PRINCIPAL,
    TameType,
    check_profile,
    enumerate_profiles,
    jordan_holder_weights,
    profile_data,
    profile_mask,
    serre_weight,
    type_from_gamma,
)


class UsageError(Exception):
    pass


def _parse_pairs(text: str):
    pairs = []
    for part in text.split(";"):
        xs = [int(v) for v in part.split(",")]
        if len(xs) != 2:
            raise UsageError(f"bad weight pair {part!r}")
        pairs.append((xs[0], xs[1]))
    return as_hodge(pairs)


def _type_from_args(args) -> TameType:
    _check_p_f(args)
    kind = PRINCIPAL if args.kind in ("ps", "principal-series") else CUSPIDAL
    if args.gamma is not None:
        gamma = _parse_ints(args.gamma)
        return type_from_gamma(args.p, args.f, kind, gamma, args.eta_prime or 0)
    if args.eta is None:
        raise UsageError("need --gamma or --eta/--eta-prime")
    if kind == CUSPIDAL:
        eta_prime = (args.eta * args.p**args.f) if args.eta_prime is None else args.eta_prime
    else:
        if args.eta_prime is None:
            raise UsageError("principal series types need --eta-prime")
        eta_prime = args.eta_prime
    return TameType(args.p, args.f, kind, args.eta, eta_prime)


def _check_p(args):
    if not is_prime(args.p):
        raise UsageError(f"--p must be prime, got {args.p}")


def _check_p_f(args):
    _check_p(args)
    if args.f < 1:
        raise UsageError(f"--f must be at least 1, got {args.f}")


def _check_index(option: str, j: int, f: int):
    if not 0 <= j < f:
        raise UsageError(f"{option} must be an index in [0, {f}), got {j}")


def _profile_from_args(tau, args):
    if args.profile is None:
        raise UsageError("need --profile")
    members = _parse_ints(args.profile)
    for j in members:
        _check_index("--profile", j, tau.fprime)
    return check_profile(tau, members)


def _type_args(sp, need_profile=False):
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--kind", choices=["ps", "principal-series", "cuspidal"], default="ps")
    sp.add_argument("--gamma", help="comma list of f digits defining the character ratio")
    sp.add_argument("--eta", type=int, help="exponent of eta at level f'")
    sp.add_argument("--eta-prime", dest="eta_prime", type=int)
    if need_profile:
        sp.add_argument("--profile", help="comma list of members of J ('-' for empty)")


def _pd_record(tau, J) -> str:
    pd = profile_data(tau, J)
    return (
        f"kind={'PS' if tau.kind == PRINCIPAL else 'C'} eta={tau.eta}"
        f" eta_prime={tau.eta_prime} profile={profile_mask(tau, J)}"
        f" members={_fmt_ints(sorted(J))}"
        f" s={_fmt_ints(pd.s)} t={_fmt_ints(pd.t)} theta={_fmt_ints(pd.theta)}"
        f" bad={_fmt_ints(sorted(pd.bad_set))} P_tau={int(pd.in_P_tau)}"
    )


def cmd_profiles(args, out):
    tau = _type_from_args(args)
    for J in sorted(enumerate_profiles(tau), key=lambda J: profile_mask(tau, J)):
        print(_pd_record(tau, J), file=out)
    return 0


def cmd_weights(args, out):
    tau = _type_from_args(args)
    good = []
    for J in sorted(enumerate_profiles(tau), key=lambda J: profile_mask(tau, J)):
        pd = profile_data(tau, J)
        if pd.in_P_tau:
            w = serre_weight(tau, J)
            good.append(w)
            print(
                f"profile={profile_mask(tau, J)} members={_fmt_ints(sorted(J))}"
                f" weight_t={_fmt_ints(w.t)} weight_s={_fmt_ints(w.s)}",
                file=out,
            )
    jh = sorted(jordan_holder_weights(tau), key=lambda w: (w.t, w.s))
    for w in jh:
        print(f"jh weight_t={_fmt_ints(w.t)} weight_s={_fmt_ints(w.s)}", file=out)
    print(f"jh_count={len(jh)}", file=out)
    return 0


def cmd_hodge(args, out):
    tau = _type_from_args(args)
    J = _profile_from_args(tau, args)
    raw = hodge_type_of_raw(tau, J)
    canon = canonical_hodge(raw, tau.p)
    print(
        _pd_record(tau, J) + f" hodge={_fmt_pairs(raw)} hodge_canonical={_fmt_pairs(canon)}",
        file=out,
    )
    return 0


def cmd_find_type(args, out):
    _check_p_f(args)
    r = _parse_pairs(args.r)
    if len(r) != args.f:
        raise UsageError(f"--r has {len(r)} pairs but --f is {args.f}")
    constraint = {}
    for option, js, want in (("--transition", args.transition, "transition"),
                             ("--no-transition", args.no_transition, "non-transition")):
        for j in js or []:
            _check_index(option, j, args.f)
            constraint[j] = want
    tau, J = find_type_profile(r, args.p, constraint)
    print(
        f"kind={'PS' if tau.kind == PRINCIPAL else 'C'} eta={tau.eta}"
        f" eta_prime={tau.eta_prime} profile={profile_mask(tau, J)}"
        f" members={_fmt_ints(sorted(J))} hodge={_fmt_pairs(hodge_type_of(tau, J))}",
        file=out,
    )
    return 0


def cmd_operators(args, out):
    _check_p(args)
    r = _parse_pairs(args.r)
    _check_index("--j", args.j, len(r))
    img = apply_operator(args.op, args.j, r, args.p)
    print(
        f"kind={args.op} j={args.j} source={_fmt_pairs(r)} image={_fmt_pairs(img)}"
        f" image_canonical={_fmt_pairs(canonical_hodge(img, args.p))}",
        file=out,
    )
    return 0


def cmd_inclusions(args, out):
    _check_p(args)
    r = _parse_pairs(args.r)
    for img in predicted_inclusions(r, args.p):
        print(f"source={_fmt_pairs(r)} target={_fmt_pairs(img)}", file=out)
    return 0


def _load_module(args):
    """The eigenbasis module in the file args.module, with its coefficient field."""
    from .phimod import BKModule

    with open(args.module) as fh:
        tau, mats, F, scale = module_from_json(fh.read())
    if scale != "u":
        raise UsageError(f"{args.command} expects an eigenbasis (u-scale) module file")
    return BKModule(tau, mats), F


def cmd_shape(args, out):
    from .phimod import classify_shape, strong_determinant_ok

    mod, _ = _load_module(args)
    tau = mod.tau
    det_ok = strong_determinant_ok(mod)
    shapes, profiles = classify_shape(mod)
    print(
        f"strong_det={int(det_ok)} shapes={','.join(shapes)} "
        + " ".join(f"profile={profile_mask(tau, J)}" for J in profiles),
        file=out,
    )
    return 0


def cmd_descend(args, out):
    from .phimod import descend_to_base

    mod, F = _load_module(args)
    tau = mod.tau
    J = _profile_from_args(tau, args)
    res = descend_to_base(mod, J)
    print(
        f"profile={profile_mask(tau, J)} exponents={_fmt_pairs(res.exponents)}"
        f" nu={_fmt_ints(res.nu)}",
        file=out,
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(module_to_json(tau, res.mats, F, scale="v"))
        print(f"wrote={args.out}", file=out)
    return 0


def cmd_ext(args, out):
    from .extensions import (
        ExtensionPoint,
        build_extension,
        kext_structure,
        splitting_diagnostics,
    )
    from .phimod import classify_shape

    tau = _type_from_args(args)
    J = _profile_from_args(tau, args)
    if args.field_degree is None:
        F = coefficient_field(args.p, tau.fprime)
        if F.m < tau.fprime:
            print(
                f"warning: coefficient field F_{F.q} is a proper subfield of F_{{{args.p}^{tau.fprime}}},"
                f" which exceeds the table limit {MAX_TABLE_Q}",
                file=sys.stderr,
            )
    else:
        F = field(args.p, args.field_degree)
    if args.kext:
        dim, blocks = kext_structure(ExtensionPoint(tau, J, F, args.a, args.b, (0,) * tau.f))
        bad = profile_data(tau, J).bad_set
        print(
            f"kext_dim={dim} bad={_fmt_ints(sorted(bad))} field=F_{F.q}"
            + "".join(
                f" hyperplane[{','.join(map(str, blk))}]={_fmt_ints(vecs[0]) if vecs else '-'}"
                for blk, vecs in sorted(blocks.items())
            ),
            file=out,
        )
        return 0
    h = _parse_ints(args.h) if args.h else (0,) * tau.f
    x = ExtensionPoint(tau, J, F, args.a, args.b, h)
    mod = build_extension(x)
    shapes, profiles = classify_shape(mod)
    line = (
        f"profile={profile_mask(tau, J)} a={args.a} b={args.b} h={_fmt_ints(h)}"
        f" shapes={','.join(shapes)}"
    )
    if args.split:
        diag = splitting_diagnostics(x)
        line += (
            f" splits={int(diag['splits'])}"
            f" val_bound={diag['valuation_bound']} scan_floor={diag['scan_floor']}"
            f" window_top={diag['window_top']} free_cycles={diag['free_cycles']}"
        )
    print(line, file=out)
    if args.build:
        with open(args.build, "w") as fh:
            fh.write(module_to_json(tau, mod.mats, F, scale="u"))
        print(f"wrote={args.build}", file=out)
    return 0


def cmd_sweep(args, out):
    _check_p_f(args)
    text = write_sweep(args.p, args.f)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        rows = read_sweep(text)
        print(f"rows={len(rows)} wrote={args.out}", file=out)
    else:
        out.write(text)
    return 0


def cmd_verify(args, out):
    from .verify import run_suite

    _check_p_f(args)
    results = run_suite(args.p, args.f, seed=args.seed, fault=args.inject_fault)
    failed = sum(not res.passed and not res.crashed for res in results)
    crashed = sum(res.crashed for res in results)
    for res in results:
        status = "ERROR" if res.crashed else "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}", file=out)
    errors = f" errors={crashed}" if crashed else ""
    print(f"verify p={args.p} f={args.f} seed={args.seed} failures={failed}{errors}", file=out)
    return 1 if failed else 3 if crashed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bkshapes",
        description="exact tame-type / Serre-weight / phi-module shape computations",
    )
    ap.add_argument("--version", action="version", version=f"bkshapes {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("profiles", help="list profiles with their recipe data")
    _type_args(sp)
    sp.set_defaults(fn=cmd_profiles)

    sp = sub.add_parser("weights", help="Serre weights of good profiles and the JH set")
    _type_args(sp)
    sp.set_defaults(fn=cmd_weights)

    sp = sub.add_parser("hodge", help="Hodge type attached to (type, profile)")
    _type_args(sp, need_profile=True)
    sp.set_defaults(fn=cmd_hodge)

    sp = sub.add_parser("find-type", help="inverse construction from a Hodge type")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--r", required=True, help="pairs like 'r11,r12;r21,r22'")
    sp.add_argument("--transition", type=int, action="append")
    sp.add_argument("--no-transition", dest="no_transition", type=int, action="append")
    sp.set_defaults(fn=cmd_find_type)

    sp = sub.add_parser("operators", help="apply a weight operator to a Hodge type")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", required=True)
    sp.add_argument("--kind", dest="op", choices=["theta", "mu", "nu"], required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.set_defaults(fn=cmd_operators)

    sp = sub.add_parser("inclusions", help="operator images at every irregular index")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", required=True)
    sp.set_defaults(fn=cmd_inclusions)

    sp = sub.add_parser("shape", help="classify a module file")
    sp.add_argument("--module", required=True)
    sp.set_defaults(fn=cmd_shape)

    sp = sub.add_parser("descend", help="base-field normal form of a module file")
    sp.add_argument("--module", required=True)
    sp.add_argument("--profile", required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_descend)

    sp = sub.add_parser("ext", help="rank-1 extensions: build, split test, kext")
    _type_args(sp, need_profile=True)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--b", type=int, default=2)
    sp.add_argument("--h", help="comma list of field codes")
    sp.add_argument("--field-degree", dest="field_degree", type=int)
    sp.add_argument("--split", action="store_true")
    sp.add_argument("--kext", action="store_true")
    sp.add_argument("--build", help="write the eigenbasis module to this file")
    sp.set_defaults(fn=cmd_ext)

    sp = sub.add_parser("sweep", help="exhaustive (type, profile) table")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("verify", help="run the invariant suite")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--inject-fault", dest="inject_fault", choices=["s-flip"])
    sp.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args, out)
    except ForcedChoiceError as exc:
        print(f"error: forced to be a {exc.forced} at index {exc.index}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, NormDescentError, PrecisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
