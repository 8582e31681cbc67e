"""Truncated Laurent series over small finite fields, with scale tags.

A Series holds coefficients of x**val .. x**(val+len-1) as field codes and
an absolute precision bound: exponents < prec are known, everything above
is undetermined.  prec=None means the series is exact (all higher
coefficients are genuinely zero); exact values arise from the monomial
matrices of the theory and keep most computations truncation-free.

The variable carries a scale tag, 'u' or 'v', with v = u**estep for the
ramification step estep = p**f' - 1.  The module engine and the splitting
solver compute in v; u appears only in module files (`to_u`, `to_v` convert,
checking the support).  Mixing scales is a hard error.
The Frobenius multiplies exponents by p and fixes coefficients.

A Series may also be a stack of N series, one per row of coeffs of shape
(N, L), so that one call does the work of N; 1-D coeffs are one series.
A stack has one val, the least member val (a member may carry leading
zeros), and one prec, the least member prec, so it never claims a
coefficient some member does not know.  is_integral, has_val and
Mat2.has_unit_det answer per member; everything else acts on the stack.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _kernels
from .gf import GF


class PrecisionError(ArithmeticError):
    """A decision required coefficients beyond the tracked precision."""


class ScaleError(TypeError):
    """Arithmetic attempted between series in different variable scales."""


DEFAULT_PRECISION = 64
"""Coefficients kept when inverting an exact series with no ``terms`` given."""


def _minprec(a, b):
    return b if a is None else a if b is None else min(a, b)


def _product_prec(x, y):
    """The prec of x * y: the smaller of prec + val of each factor against the other.

    A factor known below prec bounds its product's knowledge.  A zero
    factor known below prec is O(x**prec), so it counts with val prec.
    None when both factors are exact or either is an exact zero, since
    the product is then exactly zero.
    """
    if any(s.prec is None and s.is_zero() for s in (x, y)):
        return None
    xlo, ylo = (s.prec if s.prec is not None and s.is_zero() else s.val for s in (x, y))
    prec = None if x.prec is None else x.prec + ylo
    if y.prec is not None:
        prec = _minprec(prec, y.prec + xlo)
    return prec


def _sum_products(ops, entries) -> list:
    """The Series sum(sign * ops[i] * ops[k]) for each entry of (sign, i, k) terms.

    A product is known below `_product_prec` of its factors, and a sum
    below the least prec of its terms.  The nonzero products are aligned
    at the least val of their entry and summed in one
    `_kernels.sum_products` call.
    """
    first = ops[0]
    F, scale, shape = first.field, first.scale, first.coeffs.shape[:-1]
    for s in ops:
        if s.field is not F or s.scale != scale or s.coeffs.shape[:-1] != shape:
            first._check(s)
    heads, lives = [], []
    for terms in entries:
        prec, live = None, []
        for sign, i, k in terms:
            x, y = ops[i], ops[k]
            prec = _minprec(prec, _product_prec(x, y))
            if x.coeffs.shape[-1] and y.coeffs.shape[-1]:
                live.append((sign, i, k, x.val + y.val))
        lo = min([t[3] for t in live], default=0)
        heads.append((lo, prec))
        lives.append([(sign, i, k, val - lo) for sign, i, k, val in live])
    if not any(lives):
        return [Series(F, scale, 0, first.coeffs[..., :0], prec) for _, prec in heads]
    out = _kernels.sum_products([s.coeffs for s in ops], lives, F.MUL)
    return [Series(F, scale, lo, arr, prec) for (lo, prec), arr in zip(heads, out)]


class Series:
    __slots__ = ("field", "scale", "val", "coeffs", "prec")

    def __init__(self, field: GF, scale: str, val: int, coeffs, prec=None):
        if scale not in ("u", "v"):
            raise ValueError("scale must be 'u' or 'v'")
        self.field = field
        self.scale = scale
        arr = np.asarray(coeffs, dtype=field.dtype)
        if prec is not None and val + arr.shape[-1] > prec:
            arr = arr[..., : max(0, prec - val)]
        if arr.shape[-1]:
            live = arr if arr.ndim == 1 else arr.any(axis=0)
            if not (live[0] and live[-1]):  # products of trimmed series need no scan
                nz = np.nonzero(live)[0]
                arr = arr[..., nz[0] : nz[-1] + 1] if len(nz) else arr[..., :0]
                val += int(nz[0]) if len(nz) else 0
        if arr.shape[-1] == 0:
            val = 0
        self.val = val
        self.coeffs = arr
        self.prec = prec

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero(field: GF, scale: str, prec=None) -> "Series":
        return Series(field, scale, 0, [], prec)

    @staticmethod
    def monomial(field: GF, scale: str, coeff: int, exp: int, prec=None) -> "Series":
        return Series(field, scale, exp, [coeff], prec)

    @staticmethod
    def one(field: GF, scale: str, prec=None) -> "Series":
        return Series.monomial(field, scale, 1, 0, prec)

    @staticmethod
    def stack(members) -> "Series":
        """The stack of single series of one field and scale, in order."""
        first = members[0]
        F, scale = first.field, first.scale
        if not all(s.field is F and s.scale == scale and s.coeffs.ndim == 1 for s in members):
            for s in members:  # the first mismatch names itself; an equal field built apart passes
                first._check(s)
            if first.coeffs.ndim != 1:
                raise ValueError("the members of a stack are single series")
        spans = [(s.val, s.val + len(s.coeffs)) for s in members if len(s.coeffs)]
        lo, hi = (min(a for a, _ in spans), max(b for _, b in spans)) if spans else (0, 0)
        arr = np.zeros((len(members), hi - lo), F.dtype)
        for row, s in zip(arr, members):
            row[s.val - lo : s.val - lo + len(s.coeffs)] = s.coeffs
        return Series(F, scale, lo, arr, functools.reduce(_minprec, [s.prec for s in members]))

    def member(self, n: int) -> "Series":
        """Member n of a stack, as one series."""
        return Series(self.field, self.scale, self.val, self.coeffs[n], self.prec)

    # -- structure -------------------------------------------------------
    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known (zero at this precision), in any member."""
        return self.coeffs.shape[-1] == 0

    def coefficient(self, exp: int) -> int:
        if self.prec is not None and exp >= self.prec:
            raise PrecisionError(f"coefficient of exponent {exp} beyond precision {self.prec}")
        if exp < self.val or exp >= self.val + len(self.coeffs):
            return 0
        return int(self.coeffs[exp - self.val])

    def first_off_class(self, residue: int, step: int):
        """The least exponent, in any member, of a nonzero coefficient not residue mod step."""
        live = self.coeffs != 0 if self.coeffs.ndim == 1 else self.coeffs.any(axis=0)
        live[(residue - self.val) % step :: step] = False
        bad = live.nonzero()[0]
        return self.val + int(bad[0]) if len(bad) else None

    def is_integral(self):
        """No known term of negative exponent; per member on a stack."""
        return _decided(~self.coeffs[..., : max(0, -self.val)].any(axis=-1))

    def has_val(self, e: int):
        """Known to be x**e times a unit (nonzero at exponent e, zero below); per member."""
        c, k = self.coeffs, e - self.val
        at_e = c[..., k] != 0 if 0 <= k < c.shape[-1] else np.zeros(c.shape[:-1], bool)
        return _decided(at_e & ~c[..., : max(0, k)].any(axis=-1))

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "Series"):
        if self.field != other.field:
            raise ValueError("mixed coefficient fields")
        if self.scale != other.scale:
            raise ScaleError(f"mixed scales {self.scale!r} and {other.scale!r}")
        if self.coeffs.shape[:-1] != other.coeffs.shape[:-1]:
            raise ValueError("mixed stack sizes")

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        prec = _minprec(self.prec, other.prec)
        if self.is_zero():
            return Series(self.field, self.scale, other.val, other.coeffs, prec)
        if other.is_zero():
            return Series(self.field, self.scale, self.val, self.coeffs, prec)
        lo = min(self.val, other.val)
        hi = max(self.val + self.coeffs.shape[-1], other.val + other.coeffs.shape[-1])
        a, b = _placed(self, lo, hi), _placed(other, lo, hi)
        return Series(self.field, self.scale, lo, self.field.ADD[a, b], prec)

    def __neg__(self) -> "Series":
        return Series(self.field, self.scale, self.val, self.field.NEG[self.coeffs], self.prec)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        return _sum_products((self, other), _MUL_TERMS)[0]

    def scalar_mul(self, c: int) -> "Series":
        return Series(self.field, self.scale, self.val, self.field.MUL[c, self.coeffs], self.prec)

    def shift(self, k: int) -> "Series":
        if k == 0:
            return self
        prec = None if self.prec is None else self.prec + k
        return Series(self.field, self.scale, self.val + k, self.coeffs, prec)

    def inverse(self, terms: int | None = None) -> "Series":
        """Multiplicative inverse, known to the same relative precision.

        For an exact non-monomial input the result is truncated to ``terms``
        coefficients (default DEFAULT_PRECISION); exact monomials
        invert exactly.  A prec-bounded input keeps its prec - val known
        coefficients (at most ``terms``).

        The n coefficients come from Newton iteration (von zur Gathen and
        Gerhard, *Modern Computer Algebra*, ch. 9): if g inverts the unit
        part a mod x^k, then a*g = 1 + x^k*e and g*(2 - a*g) = g - x^k*g*e
        inverts it mod x^2k.  Each step keeps g and appends the first
        min(2k, n) - k coefficients of -g*e, so O(log n) pairs of kernel
        products replace the term-by-term division recurrence.  The
        inverse mod x^n is unique, so the result is the same.
        """
        F, c = self.field, self.coeffs
        heads = [r.nonzero()[0][:2] for r in (c if c.ndim == 2 else (c,))]  # per member
        if not all(len(h) for h in heads):
            if self.prec is None:
                raise ZeroDivisionError("inverse of the zero series")
            raise PrecisionError("inverse of a series indistinguishable from zero")
        w = [self.val + int(h[0]) for h in heads]  # member vals
        if self.prec is None:  # exact monomials invert exactly
            top = terms if terms is not None else DEFAULT_PRECISION
            n = [1 if len(h) == 1 else top for h in heads]
            precs = [None if len(h) == 1 else top - v for h, v in zip(heads, w)]
        else:
            n = [self.prec - v if terms is None else min(self.prec - v, terms) for v in w]
            precs = [m - v for m, v in zip(n, w)]
        if min(n) <= 0:
            raise PrecisionError("no known coefficients to invert")
        if max(w) > self.val:  # align each member at its own val
            c = Series.stack([self.member(m).shift(self.val - v) for m, v in enumerate(w)]).coeffs
        g = F.INV[c[..., :1]]
        k, top = 1, max(n)
        while k < top:
            k2 = min(2 * k, top)
            ag = _kernels.convolve(c[..., :k2], g, F.ADD, F.MUL)
            e = np.zeros(g.shape[:-1] + (k2 - k,), dtype=F.dtype)
            high = ag[..., k:k2]
            e[..., : high.shape[-1]] = high
            ge = _kernels.convolve(g, e, F.ADD, F.MUL)
            g = np.concatenate([g, F.NEG[ge[..., : k2 - k]]], axis=-1)
            k = k2
        if min(w) == max(w):
            return Series(F, self.scale, -w[0], g, functools.reduce(_minprec, precs))
        return Series.stack([Series(F, self.scale, -v, gm, pm) for v, gm, pm in zip(w, g, precs)])

    def frobenius(self) -> "Series":
        """Substitute x -> x**p; coefficients are fixed."""
        p = self.field.p
        prec = None if self.prec is None else p * self.prec
        return Series(self.field, self.scale, p * self.val, _spread(self.coeffs, p), prec)

    # -- scale conversion ------------------------------------------------
    def to_u(self, estep: int) -> "Series":
        """This v-scale series in the u-scale: v -> u**estep."""
        prec = None if self.prec is None else (self.prec - 1) * estep + 1
        return Series(self.field, "u", self.val * estep, _spread(self.coeffs, estep), prec)

    def to_v(self, estep: int) -> "Series":
        """This u-scale series, whose support must be divisible by estep, in the v-scale."""
        if self.first_off_class(0, estep) is not None:
            raise ScaleError("support not divisible by the ramification step")
        prec = None if self.prec is None else -(-self.prec // estep)
        return Series(self.field, "v", self.val // estep, self.coeffs[..., ::estep], prec)

    # -- comparison / display ----------------------------------------------
    def agrees_with(self, other: "Series") -> bool:
        """Equal on every exponent known to both sides."""
        self._check(other)
        if (self.val, self.prec, self.coeffs.shape) == (other.val, other.prec, other.coeffs.shape):
            return bool(np.array_equal(self.coeffs, other.coeffs))  # no padded copies needed
        lo = min(self.val, other.val)
        hi = max(self.val + self.coeffs.shape[-1], other.val + other.coeffs.shape[-1])
        prec = _minprec(self.prec, other.prec)
        if prec is not None:
            hi = max(lo, min(hi, prec))
        return bool(np.array_equal(_placed(self, lo, hi), _placed(other, lo, hi)))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.scale == other.scale and self.field == other.field and self.agrees_with(other)

    def __repr__(self):
        if self.coeffs.ndim == 2:
            return repr([self.member(n) for n in range(len(self.coeffs))])
        if self.is_zero():
            body = "0"
        else:
            terms = []
            for i, c in enumerate(self.coeffs):
                if c:
                    e = self.val + i
                    terms.append(f"{int(c)}*{self.scale}^{e}" if e else str(int(c)))
            body = " + ".join(terms[:6]) + (" + ..." if len(terms) > 6 else "")
        tail = "" if self.prec is None else f" + O({self.scale}^{self.prec})"
        return f"<{body}{tail}>"


def _placed(s: Series, lo: int, hi: int):
    """The coefficients of s at exponents lo..hi-1, zero outside what s holds."""
    out = np.zeros(s.coeffs.shape[:-1] + (hi - lo,), dtype=s.field.dtype)
    a, b = max(s.val, lo), min(s.val + s.coeffs.shape[-1], hi)
    if a < b:
        out[..., a - lo : b - lo] = s.coeffs[..., a - s.val : b - s.val]
    return out


def _spread(coeffs, k: int):
    """coeffs with k - 1 zeros between neighbours: the substitution x -> x**k."""
    n = coeffs.shape[-1]
    out = np.zeros(coeffs.shape[:-1] + ((n - 1) * k + 1 if n else 0,), dtype=coeffs.dtype)
    out[..., ::k] = coeffs
    return out


def _decided(flags):
    """A bool for one series, the per-member bool array for a stack."""
    return flags if flags.ndim else bool(flags)


# (sign, i, k) terms of each entry, indexing the operands of `_sum_products`
_MUL_TERMS = (((1, 0, 1),),)
# self.e + other.e = (a, b, c, d, x, y, z, w): a*x + b*z, a*y + b*w, c*x + d*z, c*y + d*w
_MAT2_MUL_TERMS = (
    ((1, 0, 4), (1, 1, 6)), ((1, 0, 5), (1, 1, 7)), ((1, 2, 4), (1, 3, 6)), ((1, 2, 5), (1, 3, 7))
)
_DET_TERMS = (((1, 0, 3), (-1, 1, 2)),)  # a*d - b*c
# self.e + (dinv,): d*dinv, -b*dinv, -c*dinv, a*dinv
_ADJUGATE_TERMS = (((1, 3, 4),), ((-1, 1, 4),), ((-1, 2, 4),), ((1, 0, 4),))


class Mat2:
    """2x2 matrix over Series, all entries sharing one field and scale."""

    __slots__ = ("e",)

    def __init__(self, e00: Series, e01: Series, e10: Series, e11: Series):
        self.e = (e00, e01, e10, e11)

    @staticmethod
    def stack(mats) -> "Mat2":
        """The stack of the given matrices, entry by entry."""
        return Mat2(*(Series.stack([M.e[k] for M in mats]) for k in range(4)))

    def member(self, n: int) -> "Mat2":
        return Mat2(*(s.member(n) for s in self.e))

    def __getitem__(self, rc):
        r, c = rc
        return self.e[2 * r + c]

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(*_sum_products(self.e + other.e, _MAT2_MUL_TERMS))

    def det(self) -> Series:
        return _sum_products(self.e, _DET_TERMS)[0]

    def has_unit_det(self):
        """True when det() is a unit: known and nonzero at exponent 0, zero below it.

        With no entry of negative val, only a0*d0 - b0*c0 reaches exponent
        0, so that and the determinant's prec decide it with no series
        product; otherwise det() decides it.  Per member on a stack.
        """
        a, b, c, d = self.e
        if a.val < 0 or b.val < 0 or c.val < 0 or d.val < 0:
            return self.det().has_val(0)
        zero = np.zeros(a.coeffs.shape[:-1], int)  # the constant term of a member without one
        prec = _minprec(_product_prec(a, d), _product_prec(b, c))
        if prec is not None and prec <= 0:
            return _decided(zero != 0)
        a0, b0, c0, d0 = (s.coeffs[..., 0] if s.val == 0 < s.coeffs.shape[-1] else zero for s in self.e)
        return _decided(a.field.MUL[a0, d0] != a.field.MUL[b0, c0])

    def inverse(self, terms: int | None = None) -> "Mat2":
        dinv = self.det().inverse(terms)
        return Mat2(*_sum_products(self.e + (dinv,), _ADJUGATE_TERMS))

    def frobenius(self) -> "Mat2":
        return Mat2(*(s.frobenius() for s in self.e))

    def shifted(self, rows=(0, 0), cols=(0, 0)) -> "Mat2":
        """diag(x**rows[0], x**rows[1]) * self * diag(x**cols[0], x**cols[1]), entry by entry.

        Entry (i, j) moves by rows[i] + cols[j].  Coefficients match the
        product with the exact monomial matrices; prec is never lower,
        since the product gives each zero term the prec of its partner.
        """
        a, b, c, d = self.e
        return Mat2(
            a.shift(rows[0] + cols[0]),
            b.shift(rows[0] + cols[1]),
            c.shift(rows[1] + cols[0]),
            d.shift(rows[1] + cols[1]),
        )

    def swapped(self, rows: bool, cols: bool) -> "Mat2":
        """Swap the rows and/or the columns; both together conjugate by the swap permutation."""
        a, b, c, d = self.e
        if rows:
            a, b, c, d = c, d, a, b
        if cols:
            a, b, c, d = b, a, d, c
        return Mat2(a, b, c, d)

    def map(self, fn) -> "Mat2":
        return Mat2(*(fn(s) for s in self.e))

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return all(s == t for s, t in zip(self.e, other.e))

    def __repr__(self):
        a, b, c, d = self.e
        return f"[{a} {b}; {c} {d}]"
