"""Truncated Laurent series over small finite fields, with scale tags.

A Series holds coefficients of x**val .. x**(val+len-1) as field codes and
an absolute precision bound: exponents < prec are known, everything above
is undetermined.  prec=None means the series is exact (all higher
coefficients are genuinely zero); exact values arise from the monomial
matrices of the theory and keep most computations truncation-free.

The variable carries a scale tag, 'u' or 'v', where v = u**estep for the
ramification step estep = p**f' - 1.  Mixing scales is a hard error;
conversions are explicit and check divisibility of the support.  The
Frobenius acts by exponent multiplication by p and trivially on
coefficients.
"""

from __future__ import annotations

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
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _sum_products(ops, entries) -> list:
    """The Series sum(sign * ops[i] * ops[k]) for each entry of (sign, i, k) terms.

    A factor known below prec bounds its product's knowledge, so a product
    is known below the smaller of prec + val of each factor against the
    other (a zero series has val 0), and a sum below the least prec of its
    terms.  The nonzero products are aligned at the least val of their
    entry and summed in one `_kernels.sum_products` call.
    """
    first = ops[0]
    F, scale = first.field, first.scale
    for s in ops:
        if s.field is not F or s.scale != scale:
            first._check(s)
    los, precs, lives = [], [], []
    for terms in entries:
        prec, live = None, []
        for sign, i, k in terms:
            x, y = ops[i], ops[k]
            if x.prec is not None:
                prec = _minprec(prec, x.prec + y.val)
            if y.prec is not None:
                prec = _minprec(prec, y.prec + x.val)
            if len(x.coeffs) and len(y.coeffs):
                live.append((sign, i, k, x.val + y.val))
        lo = min([t[3] for t in live]) if live else 0
        los.append(lo)
        precs.append(prec)
        lives.append([(sign, i, k, val - lo) for sign, i, k, val in live])
    if not any(lives):
        return [Series.zero(F, scale, prec) for prec in precs]
    out = _kernels.sum_products([s.coeffs for s in ops], lives, F.MUL)
    return [Series(F, scale, lo, arr, prec) for lo, arr, prec in zip(los, out, precs)]


class Series:
    __slots__ = ("field", "scale", "val", "coeffs", "prec")

    def __init__(self, field: GF, scale: str, val: int, coeffs, prec=None):
        if scale not in ("u", "v"):
            raise ValueError("scale must be 'u' or 'v'")
        self.field = field
        self.scale = scale
        arr = np.asarray(coeffs, dtype=field.dtype)
        if prec is not None and val + len(arr) > prec:
            arr = arr[: max(0, prec - val)]
        if len(arr) and not (arr[0] and arr[-1]):  # products of trimmed series need no scan
            nz = np.nonzero(arr)[0]
            arr = arr[nz[0] : nz[-1] + 1] if len(nz) else arr[:0]
            val += int(nz[0]) if len(nz) else 0
        if len(arr) == 0:
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

    # -- structure -------------------------------------------------------
    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known (zero at this precision)."""
        return len(self.coeffs) == 0

    def coefficient(self, exp: int) -> int:
        if self.prec is not None and exp >= self.prec:
            raise PrecisionError(f"coefficient of exponent {exp} beyond precision {self.prec}")
        if exp < self.val or exp >= self.val + len(self.coeffs):
            return 0
        return int(self.coeffs[exp - self.val])

    def support(self):
        return [self.val + int(i) for i in np.nonzero(self.coeffs)[0]]

    def leading(self) -> int:
        return int(self.coeffs[0])

    def is_integral(self) -> bool:
        """No known term of negative exponent (and none hidden below precision)."""
        return self.is_zero() or self.val >= 0

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "Series"):
        if self.field != other.field:
            raise ValueError("mixed coefficient fields")
        if self.scale != other.scale:
            raise ScaleError(f"mixed scales {self.scale!r} and {other.scale!r}")

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        prec = _minprec(self.prec, other.prec)
        if self.is_zero():
            return Series(self.field, self.scale, other.val, other.coeffs, prec)
        if other.is_zero():
            return Series(self.field, self.scale, self.val, self.coeffs, prec)
        lo = min(self.val, other.val)
        hi = max(self.val + len(self.coeffs), other.val + len(other.coeffs))
        a = np.zeros(hi - lo, dtype=self.field.dtype)
        b = np.zeros(hi - lo, dtype=self.field.dtype)
        a[self.val - lo : self.val - lo + len(self.coeffs)] = self.coeffs
        b[other.val - lo : other.val - lo + len(other.coeffs)] = other.coeffs
        return Series(self.field, self.scale, lo, self.field.ADD[a, b], prec)

    def __neg__(self) -> "Series":
        return Series(self.field, self.scale, self.val, self.field.NEG[self.coeffs], self.prec)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        return _sum_products((self, other), _MUL_TERMS)[0]

    def scalar_mul(self, c: int) -> "Series":
        if c == 0:
            return Series.zero(self.field, self.scale, self.prec)
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
        if self.is_zero():
            if self.prec is None:
                raise ZeroDivisionError("inverse of the zero series")
            raise PrecisionError("inverse of a series indistinguishable from zero")
        F = self.field
        w = self.val
        if self.prec is None and len(self.coeffs) == 1:
            return Series.monomial(F, self.scale, F.inv(self.leading()), -w)
        if self.prec is None:
            n = terms if terms is not None else DEFAULT_PRECISION
        else:
            n = self.prec - w if terms is None else min(self.prec - w, terms)
        if n <= 0:
            raise PrecisionError("no known coefficients to invert")
        g = np.array([F.inv(self.leading())], dtype=F.dtype)
        k = 1
        while k < n:
            k2 = min(2 * k, n)
            ag = _kernels.convolve(self.coeffs[:k2], g, F.ADD, F.MUL)
            e = np.zeros(k2 - k, dtype=F.dtype)
            high = ag[k:k2]
            e[: len(high)] = high
            ge = _kernels.convolve(g, e, F.ADD, F.MUL)
            g = np.concatenate([g, F.NEG[ge[: k2 - k]]])
            k = k2
        return Series(F, self.scale, -w, g, -w + n)

    def frobenius(self) -> "Series":
        """Substitute x -> x**p; coefficients are fixed."""
        p = self.field.p
        if self.is_zero():
            prec = None if self.prec is None else p * self.prec
            return Series.zero(self.field, self.scale, prec)
        out = np.zeros((len(self.coeffs) - 1) * p + 1, dtype=self.field.dtype)
        out[::p] = self.coeffs
        prec = None if self.prec is None else p * self.prec
        return Series(self.field, self.scale, p * self.val, out, prec)

    # -- scale conversion ------------------------------------------------
    def to_u(self, estep: int) -> "Series":
        if self.scale == "u":
            return self
        if self.is_zero():
            prec = None if self.prec is None else (self.prec - 1) * estep + 1
            return Series.zero(self.field, "u", prec)
        out = np.zeros((len(self.coeffs) - 1) * estep + 1, dtype=self.field.dtype)
        out[::estep] = self.coeffs
        prec = None if self.prec is None else (self.prec - 1) * estep + 1
        return Series(self.field, "u", self.val * estep, out, prec)

    def to_v(self, estep: int) -> "Series":
        if self.scale == "v":
            return self
        if self.is_zero():
            prec = None if self.prec is None else -(-self.prec // estep)
            return Series.zero(self.field, "v", prec)
        if self.val % estep or any(e % estep for e in self.support()):
            raise ScaleError("support not divisible by the ramification step")
        lo = self.val // estep
        out = self.coeffs[::estep]
        prec = None if self.prec is None else -(-self.prec // estep)
        return Series(self.field, "v", lo, out, prec)

    # -- comparison / display ----------------------------------------------
    def agrees_with(self, other: "Series") -> bool:
        """Equal on every exponent known to both sides."""
        self._check(other)
        prec = _minprec(self.prec, other.prec)
        lo_c, hi_c = [], []
        for s in (self, other):
            if not s.is_zero():
                lo_c.append(s.val)
                hi_c.append(s.val + len(s.coeffs))
        if not hi_c:
            return True
        lo, hi = min(lo_c), max(hi_c)
        if prec is not None:
            hi = min(hi, prec)
        if hi <= lo:
            return True
        a = np.zeros(hi - lo, dtype=self.field.dtype)
        b = np.zeros(hi - lo, dtype=self.field.dtype)
        for s, buf in ((self, a), (other, b)):
            if not s.is_zero():
                start = s.val - lo
                if start >= len(buf):
                    continue
                src = s.coeffs[: len(buf) - start]
                buf[start : start + len(src)] = src
        return bool(np.array_equal(a, b))

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.scale == other.scale
            and self.field == other.field
            and self.agrees_with(other)
        )

    def __hash__(self):  # pragma: no cover
        raise TypeError("Series is unhashable")

    def __repr__(self):
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
    def identity(field: GF, scale: str) -> "Mat2":
        one = Series.one(field, scale)
        zero = Series.zero(field, scale)
        return Mat2(one, zero, zero, one)

    def __getitem__(self, rc):
        r, c = rc
        return self.e[2 * r + c]

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(*_sum_products(self.e + other.e, _MAT2_MUL_TERMS))

    def det(self) -> Series:
        return _sum_products(self.e, _DET_TERMS)[0]

    def inverse(self, terms: int | None = None) -> "Mat2":
        dinv = self.det().inverse(terms)
        return Mat2(*_sum_products(self.e + (dinv,), _ADJUGATE_TERMS))

    def frobenius(self) -> "Mat2":
        return Mat2(*(s.frobenius() for s in self.e))

    def transpose(self) -> "Mat2":
        a, b, c, d = self.e
        return Mat2(a, c, b, d)

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
