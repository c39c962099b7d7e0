"""Exact scalar and truncated-series arithmetic.

Everything here is over the rationals: scalars are fractions.Fraction,
exponents are plain int tuples, and power series are truncated at a fixed
total degree with sparse Fraction coefficients.  A TruncSeries lives in 2*m
formal variables: the first m slots of each exponent key are the holomorphic
variables w_1..w_m, the last m slots their formal conjugates wb_1..wb_m.
Real-analytic germs (metrics, kernels restricted to the diagonal) become
polynomials in these 2*m commuting variables; conjugation is the involution
swapping the two halves.

cofactor_det is the one determinant over rings other than the rationals:
series matrices and polynomial matrices expand through it, and so do the
complex matrices of the floating-point oracle, which lives in the tests.
Rational matrices use linalg.mat_det.

No floating point enters any function in this module.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DomainError, ShapeError, SingularityError, TruncationError


def rat(x) -> Fraction:
    """Coerce ints / strings / Fractions to Fraction, rejecting floats.

    Floats are rejected on purpose: silently converting 0.1 to
    3602879701896397/36028797018963968 would poison exactness guarantees.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise DomainError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def pochhammer(a: Fraction, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise DomainError(f"pochhammer needs n >= 0, got {n}")
    a = rat(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def exponent(exps) -> tuple:
    """exps as a tuple of non-negative ints: the one check an exponent gets
    where it enters from outside the term arithmetic, whose sums, slices
    and swaps of checked tuples stay valid.  Only integers pass: a
    Fraction, float or str exponent is rejected, never truncated."""
    exps = tuple(exps)
    try:
        t = tuple(map(operator.index, exps))
    except TypeError:
        raise DomainError(f"non-integer exponent in multi-index {exps!r}")
    if any(e < 0 for e in t):
        raise DomainError(f"negative exponent in multi-index {t}")
    return t


def unit(n: int, i: int, power: int = 1) -> tuple:
    """The exponent power * e_i of length n (i is 0-based)."""
    return tuple(power if k == i else 0 for k in range(n))


def iter_multiindices(nvars: int, max_degree: int, min_degree: int = 0):
    """All exponent tuples of length nvars with total degree between
    min_degree and max_degree, by degree and, within one degree, in
    descending lexicographic order."""
    def of_degree(n, d):
        if n == 1:
            yield (d,)
            return
        for first in range(d, -1, -1):
            for rest in of_degree(n - 1, d - first):
                yield (first,) + rest
    for d in range(min_degree, max_degree + 1):
        yield from of_degree(nvars, d)


# ---------------------------------------------------------------------------
# Sparse term maps
#
# TruncSeries and polynomials.Poly both keep their coefficients as a dict
# from exponent tuples (plain tuples of non-negative ints) to nonzero
# Fractions, and both do their term arithmetic through the functions below;
# the degree of a key is its sum, and the product of two terms is keyed by
# the slotwise sum of their keys.

_ZERO = Fraction(0)


def clean_terms(coeffs: Mapping, width: int, cap: int | None = None) -> dict:
    """coeffs with exponent keys of length width and nonzero Fraction
    values; with a cap, terms of total degree above it are dropped."""
    clean = {}
    for key, val in coeffs.items():
        k = exponent(key)
        if len(k) != width:
            raise ShapeError(
                f"exponent {k} has length {len(k)}, expected {width}")
        v = rat(val)
        if v != 0 and (cap is None or sum(k) <= cap):
            clean[k] = v
    return clean


def add_terms(a: dict, b: dict) -> dict:
    """Sum of two term maps."""
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, _ZERO) + v
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def mul_terms(a: dict, b: dict, cap: int | None = None) -> dict:
    """Product of two term maps; with a cap, products of total degree above
    it are never formed.  The terms of a drive the outer loop, and the
    result lists its terms in the order the loops first reach them."""
    out = {}
    if cap is not None:
        graded = [(kb, vb, sum(kb)) for kb, vb in b.items()]
    for ka, va in a.items():
        if cap is None:
            row = b.items()
        else:
            room = cap - sum(ka)
            row = [(kb, vb) for kb, vb, d in graded if d <= room]
        for kb, vb in row:
            k = tuple(map(operator.add, ka, kb))
            s = out.get(k, _ZERO) + va * vb
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def eval_terms(coeffs: dict, vals) -> Fraction:
    """Value of a term map at a point given slot by slot."""
    total = _ZERO
    for k, v in coeffs.items():
        term = v
        for x, e in zip(vals, k):
            if e:
                term *= x ** e
        total += term
    return total


def format_terms(coeffs: dict, names) -> str:
    """Terms in graded-lex order, each as coefficient*name^e*..., with unit
    coefficients and exponents left out: "1/2 + x1*y1 - 3*x1^2"."""
    if not coeffs:
        return "0"
    parts = []
    for k in sorted(coeffs, key=lambda k: (sum(k), k)):
        v = str(coeffs[k])
        factors = "*".join(name if e == 1 else f"{name}^{e}"
                           for name, e in zip(names, k) if e)
        if not factors:
            parts.append(v)
        elif v == "1":
            parts.append(factors)
        elif v == "-1":
            parts.append("-" + factors)
        else:
            parts.append(f"{v}*" + factors)
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Truncated multivariate series


class TruncSeries:
    """Sparse truncated series in w_1..w_m and their formal conjugates.

    coeffs maps exponent keys of length 2*npairs (w-half then wb-half) to
    nonzero Fractions; every key has total degree <= trunc.  Terms beyond the
    truncation degree are dropped by every operation, so the invariant is
    maintained by construction.
    """

    __slots__ = ("npairs", "trunc", "coeffs")

    def __init__(self, npairs: int, trunc: int, coeffs: Mapping | None = None):
        if npairs < 1:
            raise DomainError(f"need at least one variable pair, got {npairs}")
        if trunc < 0:
            raise DomainError(f"truncation degree must be >= 0, got {trunc}")
        self.npairs = npairs
        self.trunc = trunc
        self.coeffs = clean_terms(coeffs, 2 * npairs, trunc) if coeffs else {}

    @classmethod
    def _trusted(cls, npairs: int, trunc: int, coeffs: dict) -> "TruncSeries":
        """A series over a term map that is already clean (exponent keys of
        length 2*npairs and degree <= trunc, nonzero Fraction values), as the
        term arithmetic builds it from clean operands; nothing is checked."""
        s = object.__new__(cls)
        s.npairs, s.trunc, s.coeffs = npairs, trunc, coeffs
        return s

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(npairs: int, trunc: int, c) -> "TruncSeries":
        c = rat(c)
        if c == 0:
            return TruncSeries(npairs, trunc)
        return TruncSeries(npairs, trunc, {(0,) * (2 * npairs): c})

    @staticmethod
    def zero(npairs: int, trunc: int) -> "TruncSeries":
        return TruncSeries(npairs, trunc)

    @staticmethod
    def one(npairs: int, trunc: int) -> "TruncSeries":
        return TruncSeries.constant(npairs, trunc, 1)

    @staticmethod
    def w(npairs: int, trunc: int, i: int, power: int = 1) -> "TruncSeries":
        """The monomial w_i^power (i is 0-based)."""
        return TruncSeries(npairs, trunc, {unit(2 * npairs, i, power): 1})

    @staticmethod
    def wbar(npairs: int, trunc: int, i: int, power: int = 1) -> "TruncSeries":
        """The monomial wb_i^power (i is 0-based)."""
        return TruncSeries(npairs, trunc,
                           {unit(2 * npairs, npairs + i, power): 1})

    # -- basic queries -----------------------------------------------------

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * (2 * self.npairs), Fraction(0))

    def coefficient(self, wexp, wbexp) -> Fraction:
        return self.coeffs.get(tuple(wexp) + tuple(wbexp), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _check_compat(self, other: "TruncSeries"):
        if self.npairs != other.npairs or self.trunc != other.trunc:
            raise ShapeError(
                f"series mismatch: ({self.npairs} pairs, D={self.trunc}) vs "
                f"({other.npairs} pairs, D={other.trunc})")

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.npairs, self.trunc, self.coeffs) == \
               (other.npairs, other.trunc, other.coeffs)

    __hash__ = None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(self.npairs, self.trunc, other)
        self._check_compat(other)
        return TruncSeries._trusted(self.npairs, self.trunc,
                                    add_terms(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._trusted(self.npairs, self.trunc,
                                    {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(self.npairs, self.trunc, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "TruncSeries":
        c = rat(c)
        if c == 0:
            return TruncSeries.zero(self.npairs, self.trunc)
        return TruncSeries._trusted(self.npairs, self.trunc,
                                    {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compat(other)
        # the smaller factor drives the outer loop
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        return TruncSeries._trusted(self.npairs, self.trunc,
                                    mul_terms(a, b, self.trunc))

    __rmul__ = __mul__

    # -- structural operations ---------------------------------------------

    def conj(self) -> "TruncSeries":
        """Formal conjugation: swap the w and wb halves of every exponent.

        Coefficients are real rationals, so they are fixed by conjugation.
        """
        m = self.npairs
        return TruncSeries._trusted(self.npairs, self.trunc,
                                    {k[m:] + k[:m]: v
                                     for k, v in self.coeffs.items()})

    def evaluate(self, wvals, wbvals) -> Fraction:
        """Evaluate the truncated polynomial at exact rational arguments.

        This is a plain polynomial evaluation of the jet; the caller owns any
        statement about how well the jet approximates the analytic function.
        """
        wvals = [rat(x) for x in wvals]
        wbvals = [rat(x) for x in wbvals]
        if len(wvals) != self.npairs or len(wbvals) != self.npairs:
            raise ShapeError("evaluation point has wrong arity")
        return eval_terms(self.coeffs, wvals + wbvals)

    def __str__(self):
        m = self.npairs
        return format_terms(self.coeffs, [f"w{i+1}" for i in range(m)]
                            + [f"wb{i+1}" for i in range(m)])

    def __repr__(self):
        return f"TruncSeries({self.npairs} pairs, D={self.trunc}: {self})"


def series_inverse(s: TruncSeries) -> TruncSeries:
    """Multiplicative inverse of a series with nonzero constant term.

    Writes s = c(1 - u) with u of positive order and expands the geometric
    series by Horner's scheme; exact through the truncation degree.
    """
    c = s.constant_term()
    if c == 0:
        raise SingularityError("series has zero constant term; not invertible")
    u = TruncSeries.one(s.npairs, s.trunc) - s.scale(Fraction(1) / c)
    acc = TruncSeries.one(s.npairs, s.trunc)
    for _ in range(s.trunc):
        acc = TruncSeries.one(s.npairs, s.trunc) + u * acc
    return acc.scale(Fraction(1) / c)


@dataclass(frozen=True)
class LogSeries:
    """log s split as log(scale) + series, with series(0) = 0.

    scale is the (positive rational) constant term of s; its logarithm is
    irrational in general, so it is kept symbolically.  Mixed derivatives of
    log s never see it, which is why curvature stays exact.
    """
    series: TruncSeries
    scale: Fraction


def series_log(s: TruncSeries) -> LogSeries:
    """Logarithm of a series with positive constant term.

    Returns the constant-free Mercator expansion of log(s / s(0)) together
    with the dropped constant s(0).
    """
    c = s.constant_term()
    if c <= 0:
        raise SingularityError(
            f"series_log needs a positive constant term, got {c}")
    v = s.scale(Fraction(1) / c) - 1
    D = s.trunc
    if D == 0 or v.is_zero():
        return LogSeries(TruncSeries.zero(s.npairs, s.trunc), c)
    # log(1+v) = sum_{k=1..D} (-1)^(k+1) v^k / k, by Horner from the inside
    acc = TruncSeries.constant(s.npairs, D, Fraction((-1) ** (D + 1), D))
    for k in range(D - 1, 0, -1):
        acc = TruncSeries.constant(s.npairs, D, Fraction((-1) ** (k + 1), k)) + v * acc
    return LogSeries(v * acc, c)


def mixed_hessian(s: TruncSeries, i: int, j: int) -> Fraction:
    """d^2 s / (dw_i dwb_j) evaluated at the base point (0-based i, j).

    For a series this is just the coefficient of w_i * wb_j.
    """
    m = s.npairs
    if not (0 <= i < m and 0 <= j < m):
        raise ShapeError(f"hessian indices ({i},{j}) out of range for m={m}")
    if s.trunc < 2:
        raise TruncationError("mixed_hessian needs truncation degree >= 2")
    return s.coefficient(unit(m, i), unit(m, j))


# ---------------------------------------------------------------------------
# Matrices of series


class SeriesMatrix:
    """Square matrix with TruncSeries entries, all sharing (npairs, trunc)."""

    __slots__ = ("n", "npairs", "trunc", "entries")

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ShapeError("SeriesMatrix must be square and non-empty")
        first = rows[0][0]
        for r in rows:
            for s in r:
                if not isinstance(s, TruncSeries):
                    raise ShapeError("SeriesMatrix entries must be TruncSeries")
                first._check_compat(s)
        self.n = n
        self.npairs = first.npairs
        self.trunc = first.trunc
        self.entries = rows

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def value_at_base(self):
        """Constant-term matrix as a list of lists of Fractions."""
        return [[s.constant_term() for s in row] for row in self.entries]

    def det(self) -> TruncSeries:
        return cofactor_det(self.entries)

    def inverse(self) -> "SeriesMatrix":
        """Inverse via adjugate / det; exact through the truncation degree."""
        d = self.det()
        if d.constant_term() == 0:
            raise SingularityError("series matrix is singular at the base point")
        dinv = series_inverse(d)
        n = self.n
        if n == 1:
            return SeriesMatrix([[dinv]])
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                # cofactor (j, i): drop row j and column i
                minor = [r[:i] + r[i + 1:]
                         for k, r in enumerate(self.entries) if k != j]
                sign = -1 if (i + j) % 2 else 1
                out[i][j] = (cofactor_det(minor) * dinv).scale(sign)
        return SeriesMatrix(out)


def cofactor_det(rows):
    """Determinant of a non-empty square list of lists over a commutative
    ring, by cofactor expansion along the first row.

    Entries need only +, -, * and a truth value that is False exactly at
    zero (Fraction, complex, TruncSeries, Poly); zero entries of the first
    row are skipped.  The cost grows like n!, which is fine for the frame
    counts and gauge sizes this package works at; Fraction matrices of any
    size go through linalg.mat_det (Bareiss) instead.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ShapeError("cofactor_det needs a non-empty square matrix")
    if n == 1:
        return rows[0][0]
    acc = None
    for j, entry in enumerate(rows[0]):
        if not entry:
            continue
        term = entry * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        if acc is None:
            acc = -term if j % 2 else term
        else:
            acc = acc - term if j % 2 else acc + term
    # a first row of zeros: the determinant is that zero entry
    return rows[0][0] if acc is None else acc
