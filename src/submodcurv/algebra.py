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

Record is the base of every immutable record of the package.

No floating point enters any function in this module.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ShapeError, SingularityError


class Record:
    """An immutable record with an instance dictionary, which a
    cached_property needs.  A subclass names its fields in _fields and
    the defaults of its last ones in _defaults; its __init__ is written
    once, when the class is created, with the fields as its parameters in
    that order, as collections.namedtuple writes a __new__, so a missing,
    unknown or repeated field raises TypeError.  A subclass that checks
    its fields writes its own __init__, which stores them through
    self.__dict__.  No attribute is set or deleted after __init__.  Two
    records of one class are equal when the fields named in _fields are,
    and hash alike; _replace copies a record with some of those fields
    changed, through __init__."""

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        if "__init__" in vars(cls):
            return
        params = ", ".join(f"{name}=_defaults[{name!r}]"
                           if name in cls._defaults else name
                           for name in cls._fields)
        # one store per field: faster than self.__dict__.update(**fields)
        stores = "".join(f"\n    _dict[{name!r}] = {name}"
                         for name in cls._fields)
        namespace = {"__builtins__": {}, "_defaults": cls._defaults}
        exec(f"def __init__(_self, {params}):\n"
             f"    _dict = _self.__dict__{stores}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot "
                             f"set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values())))

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()),
                                 **changes))


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


def rats(values) -> tuple:
    """tuple(map(rat, values)); a tuple of Fractions, as a parsed config
    gives, is returned as it is."""
    if type(values) is tuple and all(type(x) is Fraction for x in values):
        return values
    return tuple(map(rat, values))


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


@lru_cache(maxsize=256)
def iter_multiindices(nvars: int, max_degree: int,
                      min_degree: int = 0) -> tuple:
    """All exponent tuples of length nvars with total degree between
    min_degree and max_degree, by degree and, within one degree, in
    descending lexicographic order.  One tuple per (nvars, max_degree,
    min_degree), cached; callers only read it."""
    # by_degree[d]: the exponents of the last k slots of degree d, in order
    by_degree = [[(d,)] for d in range(max_degree + 1)]
    for _ in range(nvars - 1):
        by_degree = [[(first,) + rest for first in range(d, -1, -1)
                      for rest in by_degree[d - first]]
                     for d in range(max_degree + 1)]
    return tuple(a for d in range(max(min_degree, 0), max_degree + 1)
                 for a in by_degree[d])


# ---------------------------------------------------------------------------
# Sparse term maps
#
# TruncSeries and polynomials.Poly are both TermMaps: they keep their
# coefficients as a dict from exponent tuples (plain tuples of non-negative
# ints) to nonzero Fractions, cleaned and multiplied by the functions below
# and added by TermMap; the degree of a key is its sum, and the product of
# two terms is keyed by the slotwise sum of their keys.

# the package's one zero Fraction: every zero that the curvature report
# writes is this object, which cli.render_report prints as "0"
ZERO = Fraction(0)


def clean_terms(coeffs: dict, width: int, cap: int | None = None) -> dict:
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
            s = out.get(k, ZERO) + va * vb
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def monomial_text(names: tuple, key: tuple) -> str:
    """The monomial of an exponent key as name^e*..., with unit exponents
    and absent variables left out: "" for the constant monomial."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(names, key) if e)


def graded_lex(keys) -> list:
    """Exponent keys by total degree, and within one degree in lex order:
    the order every term text is written in."""
    return sorted(keys, key=lambda k: (sum(k), k))


@lru_cache(maxsize=128)
def _term_layout(names: tuple, keys: tuple) -> tuple:
    """(keys, texts): a key set in graded-lex order and each key's
    monomial_text, all that format_ratios writes of a table but its
    coefficients, laid out once per key set."""
    ordered = tuple(graded_lex(keys))
    return ordered, tuple(monomial_text(names, k) for k in ordered)


def ratio_prefixes(pairs) -> list:
    """What each coefficient (n, d) writes before its monomial's text:
    "n/d*", "n*", or "" and "-" for the unit coefficients 1 and -1.  n/d
    is in lowest terms with d > 0, so the text is str(Fraction(n, d))'s."""
    return [f"{n}/{d}*" if d != 1 else "" if n == 1 else "-" if n == -1
            else f"{n}*" for n, d in pairs]


def join_terms(prefixes: list, texts: tuple) -> str:
    """The text of the terms whose coefficients wrote prefixes
    (ratio_prefixes) and whose monomials wrote texts, in graded-lex order,
    so that a constant term, text "", comes first and writes its
    coefficient alone: "1/2 + x1*y1 - 3*x1^2".  No terms write "0"."""
    if not texts:
        return "0"
    parts = list(map(operator.add, prefixes, texts))
    if not texts[0]:
        head = prefixes[0]
        parts[0] = head[:-1] if head[-1:] == "*" else head + "1"
    return " + ".join(parts).replace("+ -", "- ")


def format_ratios(table: dict, names: tuple) -> str:
    """The text of a table, which maps each exponent key to its nonzero
    coefficient as a (numerator, denominator) pair in lowest terms with a
    positive denominator: its terms in graded-lex order, each as
    coefficient*name^e*..., with unit coefficients and exponents left out.
    The order and the monomial texts come from _term_layout, once per key
    set.  The package's one term formatter is ratio_prefixes and
    join_terms, which this and the Grammian builders call."""
    keys, texts = _term_layout(names, tuple(table))
    return join_terms(ratio_prefixes(map(table.__getitem__, keys)), texts)


def format_terms(coeffs: dict, names: tuple) -> str:
    """format_ratios of a term map with Fraction values."""
    return format_ratios({k: v.as_integer_ratio() for k, v in coeffs.items()},
                         names)


@lru_cache(maxsize=16)
def _series_names(m: int) -> tuple:
    """The variable names of a series in m pairs: w1..wm, then wb1..wbm."""
    return (tuple(f"w{i+1}" for i in range(m))
            + tuple(f"wb{i+1}" for i in range(m)))


# ---------------------------------------------------------------------------
# The ring scaffold of a term map


class TermMap:
    """Sparse term map: coeffs maps exponent keys to nonzero Fractions.

    The additive ring operations, equality and scaling are written once
    here, on the subclass's term arithmetic.  A subclass gives its shape,
    the tuple two maps must share to combine, which is also the leading
    arguments of its _trusted and constant; it writes its own product.
    Another type or shape raises ShapeError, and an int or Fraction operand
    is coerced through the subclass's constant.
    """

    __slots__ = ("coeffs",)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.shape == other.shape and self.coeffs == other.coeffs

    __hash__ = None

    def _check(self, other):
        name = type(self).__name__
        if type(other) is not type(self):
            raise ShapeError(
                f"cannot combine {name} with {type(other).__name__}")
        if other.shape != self.shape:
            raise ShapeError(
                f"{name} shape mismatch: {self.shape} vs {other.shape}")

    def _operand(self, other):
        if isinstance(other, (int, Fraction)):
            return self.constant(*self.shape, other)
        self._check(other)
        return other

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in self._operand(other).coeffs.items():
            s = out.get(k, ZERO) + v
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return self._trusted(*self.shape, out)

    __radd__ = __add__

    def __neg__(self):
        return self._trusted(*self.shape,
                             {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + -self._operand(other)

    def __rsub__(self, other):
        return -self + other

    def scale(self, c):
        c = rat(c)
        if c == 0:
            return self._trusted(*self.shape, {})
        return self._trusted(*self.shape,
                             {k: c * v for k, v in self.coeffs.items()})


# ---------------------------------------------------------------------------
# Truncated multivariate series


class TruncSeries(TermMap):
    """Sparse truncated series in w_1..w_m and their formal conjugates.

    coeffs maps exponent keys of length 2*npairs (w-half then wb-half) to
    nonzero Fractions; every key has total degree <= trunc.  Terms beyond the
    truncation degree are dropped by every operation, so the invariant is
    maintained by construction.
    """

    __slots__ = ("npairs", "trunc")

    def __init__(self, npairs: int, trunc: int, coeffs: dict | None = None):
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

    @property
    def shape(self) -> tuple:
        return self.npairs, self.trunc

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
    def wbar(npairs: int, trunc: int, i: int, power: int = 1) -> "TruncSeries":
        """The monomial wb_i^power (i is 0-based)."""
        return TruncSeries(npairs, trunc,
                           {unit(2 * npairs, npairs + i, power): 1})

    # -- queries and the product -------------------------------------------

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * (2 * self.npairs), Fraction(0))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        # the smaller factor drives the outer loop
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        return TruncSeries._trusted(self.npairs, self.trunc,
                                    mul_terms(a, b, self.trunc))

    __rmul__ = __mul__

    def __str__(self):
        return format_terms(self.coeffs, _series_names(self.npairs))

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


class LogSeries(Record):
    """log s split as log(scale) + series, with series(0) = 0.

    scale is the (positive rational) constant term of s; its logarithm is
    irrational in general, so it is kept symbolically.  Mixed derivatives of
    log s never see it, which is why curvature stays exact.
    """

    _fields = ("series", "scale")


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
        if not isinstance(first, TruncSeries):
            raise ShapeError("SeriesMatrix entries must be TruncSeries")
        for r in rows:
            for s in r:
                first._check(s)
        self.n = n
        self.npairs = first.npairs
        self.trunc = first.trunc
        self.entries = rows

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

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
