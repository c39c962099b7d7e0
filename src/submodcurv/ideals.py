"""Polynomial ideals, membership in their zero sets, localization dimensions.

An IdealSpec is a finite generator list.  Its structural family is read
off the generators when the spec is built, never supplied by the caller:

  monomial              every generator is a single monomial
  coordinate_vanishing  generators z_i - a_i for one rational point a,
                        which the spec keeps as its point
  catalogued            a named ideal from the built-in catalogue
  general               anything else

So the same generators always get the same family, whichever constructor
built them.  The family decides which closed-form constructions apply
downstream; nothing here attempts Groebner-style normal forms.  A point
w is on V(I) exactly when every generator is 0 at w
(IdealSpec.vanishes_at, in integers, on generators cleared once per
ideal).  The localization dimension at w counts dim J_N - dim J'_N for
spaces of generator multiples of bounded degree: J_N does not depend on w,
so each ideal ranks it once per N (IdealSpec.multiples_dim), and J'_N is
spanned by the integer rows (z_i - w_i) z^beta p_j on the negated column
keys of the Gram form, so that each row leads at its top-degree monomial,
with no change of coordinates.  The defect never increases; stopping at
two equal consecutive values is a heuristic.  Each ideal keeps the results
it gave, per (point, max_degree), in a bounded memo of its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import prod
from operator import le, mul
from typing import NamedTuple, Optional

from .algebra import Record, iter_multiindices, rat
from .errors import DomainError, UnsupportedIdealError
from .linalg import RowEchelon, _common_denominator, key_units, keyed_terms
from .polynomials import Poly

MONOMIAL = "monomial"
COORDINATE_VANISHING = "coordinate_vanishing"
CATALOGUED = "catalogued"
GENERAL = "general"

# the most localization results one IdealSpec keeps
LOCALIZATION_MEMO_SIZE = 128


# ---------------------------------------------------------------------------
# The ideal specification


class IdealSpec(Record):
    """The ideal of nvars variables spanned by the Poly generators.  family
    and point are read off the generators: point is the common zero of a
    coordinate_vanishing ideal, None for the other families."""

    _fields = ("nvars", "generators")

    def __init__(self, nvars: int, generators: tuple):
        if not generators:
            raise DomainError("ideal needs at least one generator")
        for g in generators:
            if not isinstance(g, Poly) or g.nvars != nvars:
                raise DomainError("generators must be Poly over the same variables")
            if g.is_zero():
                raise DomainError("zero polynomial is not a valid generator")
        # monomial wins over vanishing-point: <z_1, ..., z_m> keeps the full
        # diagonal structure (frames, filtered kernels)
        point = None
        if all(g.is_monomial() for g in generators):
            family = MONOMIAL
        elif (point := _vanishing_point(nvars, generators)):
            family = COORDINATE_VANISHING
        elif _match_catalogue(nvars, generators):
            family = CATALOGUED
        else:
            family = GENERAL
        self.__dict__.update(nvars=nvars, generators=generators,
                             family=family, point=point)

    @cached_property
    def max_degree(self) -> int:
        return max(g.degree for g in self.generators)

    @cached_property
    def coordinate_powers(self) -> tuple:
        """(var, power) per minimal generator of a monomial ideal, sorted
        by variable: the data of a zero-set frame.  Constant factors are
        dropped, and so is every generator that another one divides:
        3*z1^2 and z1^2, z1^3 both give the data of z1^2.  So the data are
        the least power of each variable that a pure power z_v^p reaches,
        read in one pass.  A generator that mixes variables and that no
        pure power divides raises, named by the first such one no other
        generator divides; a constant generator raises first, the first
        one named."""
        if self.family != MONOMIAL:
            raise UnsupportedIdealError(
                "zero-set frames need a monomial ideal of coordinate powers")
        least, mixed = {}, {}
        for g in self.generators:
            (e,) = g.coeffs
            support = [i for i, x in enumerate(e) if x]
            if not support:
                raise UnsupportedIdealError(
                    f"generator {g} is a constant, so the ideal is the "
                    "whole ring; no zero-set frame")
            if len(support) == 1:
                v = support[0]
                if e[v] < least.get(v, e[v] + 1):
                    least[v] = e[v]
            else:
                mixed.setdefault(e, (support, g))
        # a mixed generator that no pure power divides; if another one
        # divides it, that one is open too
        open_ = [(e, g) for e, (support, g) in mixed.items()
                 if all(e[v] < least.get(v, e[v] + 1) for v in support)]
        for e, g in open_:
            if not any(f != e and all(map(le, f, e)) for f, _ in open_):
                raise UnsupportedIdealError(
                    f"generator {g} mixes variables; no closed-form frame")
        return tuple(sorted(least.items()))

    @cached_property
    def _localizations(self) -> dict:
        """localization_dim's memo on this ideal: (point as Fractions,
        max_degree) -> LocalizationResult, at most LOCALIZATION_MEMO_SIZE
        entries, the oldest dropped first.  A module-level lru_cache could
        not hold it: an IdealSpec hashes through its Polys, which do not
        hash.  The results are immutable, so every caller may share one."""
        return {}

    @cached_property
    def _multiples_dims(self) -> dict:
        """multiples_dim's memo on this ideal: N -> dim J_N.  It holds one
        int per degree a caller asked for, so it needs no bound."""
        return {}

    def multiples_dim(self, degree: int) -> int:
        """dim J_N for N = degree: the rank of the multiples z^beta p_j of
        degree <= N.  It does not depend on a point, so the ideal ranks it
        once per N and keeps it.  The rows are keyed on the negated keys of
        linalg.key_units, as localization_dim keys J'_N, so each leads at
        its top-degree monomial, z^beta times the top of p_j: the rows of
        one generator lead at distinct columns, and only a row whose lead
        meets another generator's is reduced."""
        dims = self._multiples_dims
        if degree not in dims:
            m = self.nvars
            units = tuple(-u for u in key_units(m, degree + 1))
            span = RowEchelon()
            for g in self.generators:
                terms = keyed_terms(g.coeffs, units)
                for beta in iter_multiindices(m, degree - g.degree):
                    shift = sum(map(mul, beta, units))
                    span.add({k + shift: c for k, c in terms})
            dims[degree] = len(span.rows)
        return dims[degree]

    @cached_property
    def _cleared_terms(self) -> tuple:
        """vanishes_at's generators, cleared once: per generator g of
        degree deg, with r the lcm of its coefficients' denominators, the
        triples (r c_e, e, deg - |e|)."""
        cleared = []
        for g in self.generators:
            ints, _ = _common_denominator(g.coeffs.values())
            cleared.append(tuple((c, e, g.degree - sum(e))
                                 for e, c in zip(g.coeffs, ints)))
        return tuple(cleared)

    def vanishes_at(self, point) -> bool:
        """Whether the point lies on V(I): one integer sum per generator.
        With the point written as w = v/q over one denominator q, and a
        generator g of degree deg cleared of its coefficients' denominators
        by their lcm r, q^deg r g(w) is the sum of the integers
        r c_e v^e q^(deg - |e|)."""
        w = [rat(x) for x in point]
        if len(w) != self.nvars:
            raise DomainError(f"point has arity {len(w)}, ideal lives in "
                              f"{self.nvars} variables")
        v, q = _common_denominator(w)
        for terms in self._cleared_terms:
            if sum(c * prod(map(pow, v, e)) * q ** k for c, e, k in terms):
                return False
        return True

    # -- constructors --------------------------------------------------------

    @staticmethod
    def monomial(nvars: int, exponent_lists) -> "IdealSpec":
        return IdealSpec(nvars, tuple(Poly.monomial(nvars, e)
                                      for e in exponent_lists))

    @staticmethod
    def catalogued(name: str, nvars: int) -> "IdealSpec":
        if name not in CATALOGUE:
            raise UnsupportedIdealError(
                f"unknown catalogue ideal {name!r}; known: {sorted(CATALOGUE)}")
        return IdealSpec(nvars, CATALOGUE[name](nvars))


def _vanishing_point(nvars, gens):
    """Detect <z_1 - a_1, ..., z_m - a_m>; return the point or None."""
    if len(gens) != nvars:
        return None
    point = [None] * nvars
    for g in gens:
        # must be z_i - a_i: one nonconstant term, z_i, plus a constant
        terms = [e for e in g.coeffs if any(e)]
        if len(terms) != 1 or sum(terms[0]) != 1 or g.coeffs[terms[0]] != 1:
            return None
        i = terms[0].index(1)
        if point[i] is not None:
            return None
        point[i] = -g.coeffs.get((0,) * nvars, Fraction(0))
    return tuple(point)


# ---------------------------------------------------------------------------
# Catalogue of named ideals: name -> generator builder


def _product_difference_gens(nvars):
    if nvars < 2:
        raise DomainError("product_difference needs at least 2 variables")
    z1 = Poly.variable(nvars, 0)
    z2 = Poly.variable(nvars, 1)
    return (z1 * z2, z1 - z2)


CATALOGUE = {"product_difference": _product_difference_gens}


def _match_catalogue(nvars, gens) -> bool:
    for builder in CATALOGUE.values():
        try:
            if builder(nvars) == tuple(gens):
                return True
        except DomainError:
            continue
    return False


# ---------------------------------------------------------------------------
# Localization dimension


class LocalizationResult(NamedTuple):
    dim: int
    stabilized_at: Optional[int]
    dims_by_degree: tuple = ()
    conditional: bool = False


def localization_dim(ideal: IdealSpec, point, max_degree: int = 8) -> LocalizationResult:
    """Dimension of the localization of the ideal at a point.

    J_N is the span of the multiples z^beta p_j of degree <= N, and J'_N
    that of the (z_i - w_i)-multiples of J_{N-1}, with no change of
    coordinates.  Its rows are the (z_i - w_i) z^beta p_j of degree <= N
    with beta in z_i..z_m: their top monomials z^(beta + e_i) are distinct,
    so these (z_i - w_i) z^beta are a basis of m_w in each P_k.  With
    w_i = n_i/d_i each is the integer row d_i z^(beta + e_i) p_j -
    n_i z^beta p_j on the negated keys of linalg.key_units, so that it
    leads at its top-degree monomial z^(beta + e_i) (top of p_j): the rows
    of one generator are kept unreduced, and only rows whose tops meet
    another generator's are reduced.  The defect d_N = dim J_N - dim J'_N
    counts generators surviving localization at w; it is reported
    stabilized once two consecutive degrees agree.  J'_N only grows with
    N, so each degree adds its new rows to one echelon form, and dim J'_N
    is the number of rows it keeps.  J_N = J'_N + span(p_j) does not
    depend on w: the ideal ranks it once per N (IdealSpec.multiples_dim).
    d_N never increases.

    The stopping rule is a heuristic for every family, and general ideals
    are flagged conditional: equal consecutive defects do not rule out a
    later drop (<z1^2, z2^2> in three variables at (1/3, 1/2, 0) has
    d_2 = d_3 = 2 and d_N = 1 from N = 4).

    The ideal keeps each result in its memo (IdealSpec._localizations), so
    a later call at the same point and max_degree returns it unbuilt.
    """
    m = ideal.nvars
    w = tuple(map(rat, point))
    if len(w) != m:
        raise DomainError(f"point has arity {len(w)}, ideal lives in {m} variables")
    dmax = ideal.max_degree
    if max_degree < dmax + 1:
        raise DomainError(
            f"max_degree {max_degree} too small; need at least {dmax + 1}")
    memo = ideal._localizations
    result = memo.get((w, max_degree))
    if result is not None:
        return result

    # negated keys: each row leads at its top-degree monomial
    units = tuple(-u for u in key_units(m, max_degree + 1))
    gens = [(g.degree, keyed_terms(g.coeffs, units)) for g in ideal.generators]
    # d_i (z_i - w_i) p_j for w_i = n_i/d_i, as integer rows; their halves
    # add where p_j has terms one unit apart (z1^2 + z1)
    multiples = []
    for dg, terms in gens:
        for i, (u, x) in enumerate(zip(units, w)):
            n, d = x.as_integer_ratio()
            row = {k + u: d * c for k, c in terms}
            for k, c in terms:
                row[k] = row.get(k, 0) - n * c
            multiples.append((dg, i, {k: c for k, c in row.items() if c}))

    jp_span, dims, stabilized_at = RowEchelon(), [], None
    for N in range(dmax, max_degree + 1):
        # new at degree N: |beta| = N - deg p_j - 1, and all lower at N = dmax
        for dg, i, row in multiples:
            top = N - dg - 1
            for beta in iter_multiindices(m - i, top, top if N > dmax else 0):
                shift = sum(map(mul, beta, units[i:]))
                jp_span.add({k + shift: c for k, c in row.items()})
        # d_N = dim J_N - dim J'_N, whatever the row order
        dims.append((N, ideal.multiples_dim(N) - len(jp_span.rows)))
        if len(dims) >= 2 and dims[-1][1] == dims[-2][1]:
            stabilized_at = N
            break

    result = LocalizationResult(dims[-1][1], stabilized_at, tuple(dims),
                                conditional=(ideal.family == GENERAL))
    if len(memo) >= LOCALIZATION_MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[w, max_degree] = result
    return result
