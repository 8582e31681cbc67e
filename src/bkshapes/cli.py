"""Command-line interface: batch computations over line-delimited records.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors
(including a p that is not prime, or too large for the primality test, given
to any command that takes one, an f below 1, a `find-type` Hodge type whose
number of pairs is not f, an index given to `--j`, `--transition` or
`--no-transition` outside [0, f), a `--profile` member outside [0, f'), the
unsatisfiable transition preferences of `find-type`, a malformed integer list
given to `--gamma`, `--profile`, `--h` or `--r`, `ext --kext` with `--split`,
`--h` or `--build`, an `ext` `--a` or `--b` that is not a nonzero field code,
an `ext` `--h` of the wrong length or with entries outside the field, `ext`
equal twists at an exceptional pair (where the rank-1 modules agree after
inverting u), a coefficient field over the table limit, a malformed or
mis-graded module file (a cuspidal one included whose lower-left entries are
not divisible in the v-scale), a module file whose coefficients are known too
coarsely to decide, a module with no shape given to `shape` or `descend`, a
module given to `descend` that is not a point of the `--profile`'s component:
it fails the strong determinant condition, or the profile is not among those
`shape` lists, and an input whose arrays numpy cannot allocate, such as a
module file with exponents 10**12 apart), and 3 when a `verify` check crashed
and none failed.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .charexp import NormDescentError
from .gf import field, is_prime
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


def _int_list(option: str, text: str) -> tuple[int, ...]:
    """The comma list of integers ('-' for none) given to ``option``."""
    try:
        return _parse_ints(text)
    except ValueError:
        raise UsageError(f"{option} must be a comma list of integers, got {text!r}") from None


def _parse_pairs(text: str):
    pairs = []
    for part in text.split(";"):
        xs = _int_list("--r", part)
        if len(xs) != 2:
            raise UsageError(f"bad weight pair {part!r}")
        pairs.append((xs[0], xs[1]))
    return as_hodge(pairs)


def _type_from_args(args) -> TameType:
    kind = PRINCIPAL if args.kind in ("ps", "principal-series") else CUSPIDAL
    if args.gamma is not None:
        gamma = _int_list("--gamma", args.gamma)
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


def _check_index(option: str, j: int, f: int):
    if not 0 <= j < f:
        raise UsageError(f"{option} must be an index in [0, {f}), got {j}")


def _profile_from_args(tau, args):
    if args.profile is None:
        raise UsageError("need --profile")
    members = _int_list("--profile", args.profile)
    for j in members:
        _check_index("--profile", j, tau.fprime)
    return check_profile(tau, members)


def _p_f_args(sp, with_f=True):
    """Declare --p (and --f); `main` checks both before dispatch."""
    sp.add_argument("--p", type=int, required=True)
    if with_f:
        sp.add_argument("--f", type=int, required=True)


def _type_args(sp, need_profile=False):
    _p_f_args(sp)
    sp.add_argument("--kind", choices=["ps", "principal-series", "cuspidal"], default="ps")
    sp.add_argument("--gamma", help="comma list of f digits defining the character ratio")
    sp.add_argument("--eta", type=int, help="exponent of eta at level f'")
    sp.add_argument("--eta-prime", dest="eta_prime", type=int)
    if need_profile:
        sp.add_argument("--profile", help="comma list of members of J ('-' for empty)")


def _record_head(tau, J) -> str:
    return (
        f"kind={'PS' if tau.kind == PRINCIPAL else 'C'} eta={tau.eta}"
        f" eta_prime={tau.eta_prime} profile={profile_mask(tau, J)}"
        f" members={_fmt_ints(sorted(J))}"
    )


def _pd_record(tau, J) -> str:
    pd = profile_data(tau, J)
    return (
        _record_head(tau, J)
        + f" s={_fmt_ints(pd.s)} t={_fmt_ints(pd.t)} theta={_fmt_ints(pd.theta)}"
        f" bad={_fmt_ints(sorted(pd.bad_set))} P_tau={int(pd.in_P_tau)}"
    )


def cmd_profiles(args, out):
    tau = _type_from_args(args)
    for J in sorted(enumerate_profiles(tau), key=lambda J: profile_mask(tau, J)):
        print(_pd_record(tau, J), file=out)
    return 0


def cmd_weights(args, out):
    tau = _type_from_args(args)
    for J in sorted(enumerate_profiles(tau), key=lambda J: profile_mask(tau, J)):
        if profile_data(tau, J).in_P_tau:
            w = serre_weight(tau, J)
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
    print(_record_head(tau, J) + f" hodge={_fmt_pairs(hodge_type_of(tau, J))}", file=out)
    return 0


def cmd_operators(args, out):
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
    r = _parse_pairs(args.r)
    for img in predicted_inclusions(r, args.p):
        print(f"source={_fmt_pairs(r)} target={_fmt_pairs(img)}", file=out)
    return 0


def _load_module(args):
    """The module whose eigenbasis matrices the file args.module holds."""
    from .phimod import module_from_eigenbasis

    with open(args.module) as fh:
        tau, mats, _, scale = module_from_json(fh.read())
    if scale != "u":
        raise UsageError(f"{args.command} expects an eigenbasis (u-scale) module file")
    return module_from_eigenbasis(tau, mats)


def _shape_of(mod):
    """The strong determinant verdict, the shapes and the profiles of a module file's module.

    A module with no shape is refused like any module file that cannot be decided.
    """
    from .phimod import NoShapeError, classify_shape, strong_determinant_ok

    det_ok = strong_determinant_ok(mod)
    try:
        shapes, profiles = classify_shape(mod)
    except NoShapeError as exc:
        raise UsageError(f"module has no shape: {exc}") from None
    return det_ok, shapes, profiles


def cmd_shape(args, out):
    mod = _load_module(args)
    det_ok, shapes, profiles = _shape_of(mod)
    print(
        f"strong_det={int(det_ok)} shapes={','.join(shapes)} "
        + " ".join(f"profile={profile_mask(mod.tau, J)}" for J in profiles),
        file=out,
    )
    return 0


def cmd_descend(args, out):
    from .phimod import descend_to_base

    mod = _load_module(args)
    tau = mod.tau
    J = _profile_from_args(tau, args)
    # descent holds exactly on the points of J's component, which `shape` reports
    det_ok, _, profiles = _shape_of(mod)
    if not det_ok:
        raise UsageError("module fails the strong determinant condition; it lies on no component")
    if J not in profiles:
        raise UsageError(f"module is not a point of the component of profile {profile_mask(tau, J)}")
    res = descend_to_base(mod, J)
    if not all(res.ok):  # the descent of a point of J's component has unit parts
        raise AssertionError(f"unit part at {res.ok.index(False)} is not a unit")
    print(
        f"profile={profile_mask(tau, J)} exponents={_fmt_pairs(res.exponents)}"
        f" nu={_fmt_ints(res.nu)}",
        file=out,
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(module_to_json(tau, res.mats, mod.field, scale="v"))
        print(f"wrote={args.out}", file=out)
    return 0


def cmd_ext(args, out):
    from .extensions import (
        ExtensionPoint,
        build_extension,
        kext_structure,
        splitting_diagnostics,
    )
    from .phimod import classify_shape, eigenbasis_matrices

    ignored = [opt for opt, given in (("--split", args.split), ("--h", args.h is not None),
                                      ("--build", args.build is not None)) if given]
    if args.kext and ignored:
        raise UsageError(f"--kext does not combine with {', '.join(ignored)}")
    tau = _type_from_args(args)
    J = _profile_from_args(tau, args)
    F = field(args.p, tau.fprime)
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
    h = _int_list("--h", args.h) if args.h else (0,) * tau.f
    x = ExtensionPoint(tau, J, F, args.a, args.b, h)
    mod = build_extension(x)
    shapes, profiles = classify_shape(mod)
    line = (
        f"profile={profile_mask(tau, J)} a={args.a} b={args.b} h={_fmt_ints(h)}"
        f" shapes={','.join(shapes)}"
    )
    if args.split:
        diag = splitting_diagnostics(x)
        line += f" splits={int(diag['splits'])} free_cycles={diag['free_cycles']}"
    print(line, file=out)
    if args.build:
        with open(args.build, "w") as fh:
            fh.write(module_to_json(tau, eigenbasis_matrices(mod), F, scale="u"))
        print(f"wrote={args.build}", file=out)
    return 0


def cmd_sweep(args, out):
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
    _p_f_args(sp)
    sp.add_argument("--r", required=True, help="pairs like 'r11,r12;r21,r22'")
    sp.add_argument("--transition", type=int, action="append")
    sp.add_argument("--no-transition", dest="no_transition", type=int, action="append")
    sp.set_defaults(fn=cmd_find_type)

    sp = sub.add_parser("operators", help="apply a weight operator to a Hodge type")
    _p_f_args(sp, with_f=False)
    sp.add_argument("--r", required=True)
    sp.add_argument("--kind", dest="op", choices=["theta", "mu", "nu"], required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.set_defaults(fn=cmd_operators)

    sp = sub.add_parser("inclusions", help="operator images at every irregular index")
    _p_f_args(sp, with_f=False)
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
    sp.add_argument("--split", action="store_true",
                    help="decide whether h splits after inverting u; print splits= and"
                    " free_cycles= (1 when every index links and the loop's gain is 1)")
    sp.add_argument("--kext", action="store_true")
    sp.add_argument("--build", help="write the eigenbasis module to this file")
    sp.set_defaults(fn=cmd_ext)

    sp = sub.add_parser("sweep", help="exhaustive (type, profile) table")
    _p_f_args(sp)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("verify", help="run the invariant suite")
    _p_f_args(sp)
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
        if "p" in args and not is_prime(args.p):
            raise UsageError(f"--p must be prime, got {args.p}")
        if "f" in args and args.f < 1:
            raise UsageError(f"--f must be at least 1, got {args.f}")
        return args.fn(args, out)
    except ForcedChoiceError as exc:
        print(f"error: forced to be a {exc.forced} at index {exc.index}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, NormDescentError, PrecisionError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
