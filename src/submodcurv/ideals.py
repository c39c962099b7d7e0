"""Polynomial ideals, their zero sets, and localization dimensions.

An IdealSpec is a finite generator list tagged with a structural family:

  monomial              every generator is a single monomial
  coordinate_vanishing  generators z_i - a_i for one rational point a
  catalogued            a named ideal from the built-in catalogue
  general               anything else

The family tag decides which closed-form constructions apply downstream;
nothing here attempts Groebner-style normal forms.  The localization
dimension at a point w counts dim J_N - dim J'_N for spaces of generator
multiples of bounded degree, in coordinates centred at w.  J'_N grows
degree by degree in one linalg.RowEchelon of integer rows, and the defect
is the number of generators a copy of it still accepts.  The defect never
increases; stopping at two equal consecutive values is a heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import add
from typing import Optional

from .algebra import exponent, iter_multiindices, rat, unit
from .errors import DomainError, UnsupportedIdealError
from .linalg import RowEchelon
from .polynomials import Poly

MONOMIAL = "monomial"
COORDINATE_VANISHING = "coordinate_vanishing"
CATALOGUED = "catalogued"
GENERAL = "general"


# ---------------------------------------------------------------------------
# Zero set descriptors


@dataclass(frozen=True)
class CoordinateSubspace:
    """{z : z_i = 0 for i in vanishing}; indices are 0-based."""
    nvars: int
    vanishing: frozenset

    @property
    def codim(self) -> int:
        return len(self.vanishing)

    def contains(self, point) -> bool:
        pt = [rat(x) for x in point]
        return all(pt[i] == 0 for i in self.vanishing)


@dataclass(frozen=True)
class PointSet:
    """A single point of the polydisc."""
    coords: tuple

    @property
    def codim(self) -> int:
        return len(self.coords)

    def contains(self, point) -> bool:
        pt = tuple(rat(x) for x in point)
        return pt == self.coords


# ---------------------------------------------------------------------------
# The ideal specification


@dataclass(frozen=True)
class IdealSpec:
    nvars: int
    generators: tuple
    family: str
    name: Optional[str] = None

    def __post_init__(self):
        if not self.generators:
            raise DomainError("ideal needs at least one generator")
        for g in self.generators:
            if not isinstance(g, Poly) or g.nvars != self.nvars:
                raise DomainError("generators must be Poly over the same variables")
            if g.is_zero():
                raise DomainError("zero polynomial is not a valid generator")
        if self.family == MONOMIAL and not all(g.is_monomial() for g in self.generators):
            raise DomainError("monomial family requires monomial generators")

    @property
    def max_degree(self) -> int:
        return max(g.degree for g in self.generators)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_generators(nvars: int, generators, family: Optional[str] = None,
                        name: Optional[str] = None) -> "IdealSpec":
        """Build an IdealSpec, auto-classifying the family when not forced."""
        gens = tuple(generators)
        if family is None:
            # monomial wins over vanishing-point: a monomial ideal that
            # happens to vanish only at the origin still carries the full
            # diagonal structure (frames, filtered kernels)
            if all(g.is_monomial() for g in gens):
                family = MONOMIAL
            elif _vanishing_point(nvars, gens) is not None:
                family = COORDINATE_VANISHING
            elif (found := _match_catalogue(nvars, gens)) is not None:
                family = CATALOGUED
                name = name or found
            else:
                family = GENERAL
        if family not in (MONOMIAL, COORDINATE_VANISHING, CATALOGUED, GENERAL):
            raise DomainError(f"unknown ideal family {family!r}")
        if family == CATALOGUED:
            if name is None:
                name = _match_catalogue(nvars, gens)
            if name is None or name not in CATALOGUE:
                raise UnsupportedIdealError(
                    f"catalogued family requires a known catalogue name, got {name!r}")
        return IdealSpec(nvars, gens, family, name)

    @staticmethod
    def monomial(nvars: int, exponent_lists) -> "IdealSpec":
        gens = tuple(Poly.monomial(nvars, e) for e in exponent_lists)
        return IdealSpec(nvars, gens, MONOMIAL)

    @staticmethod
    def coordinate_powers(nvars: int, powers) -> "IdealSpec":
        """<z_1^{i_1}, ..., z_t^{i_t}> with powers = (i_1, ..., i_t), t <= m."""
        powers = exponent(powers)
        if not 1 <= len(powers) <= nvars:
            raise DomainError("need between 1 and nvars coordinate powers")
        if any(p < 1 for p in powers):
            raise DomainError("coordinate powers must be >= 1")
        gens = tuple(Poly.monomial(nvars, unit(nvars, k, p))
                     for k, p in enumerate(powers))
        return IdealSpec(nvars, gens, MONOMIAL)

    @staticmethod
    def catalogued(name: str, nvars: int) -> "IdealSpec":
        if name not in CATALOGUE:
            raise UnsupportedIdealError(
                f"unknown catalogue ideal {name!r}; known: {sorted(CATALOGUE)}")
        builder, _ = CATALOGUE[name]
        return IdealSpec(nvars, tuple(builder(nvars)), CATALOGUED, name)


def _vanishing_point(nvars, gens):
    """Detect <z_1 - a_1, ..., z_m - a_m>; return the point or None."""
    if len(gens) != nvars:
        return None
    point = [None] * nvars
    for g in gens:
        # must be z_i - a_i: one linear term with coefficient 1 plus a constant
        linear = [(k, v) for k, v in g.coeffs.items() if sum(k) == 1]
        consts = [v for k, v in g.coeffs.items() if sum(k) == 0]
        if len(linear) != 1 or len(g.coeffs) - len(consts) != 1:
            return None
        k, v = linear[0]
        if v != 1 or max(k) != 1:
            return None
        i = list(k).index(1)
        if point[i] is not None:
            return None
        point[i] = -consts[0] if consts else Fraction(0)
    if any(p is None for p in point):
        return None
    return tuple(point)


def vanishing_point(ideal: IdealSpec):
    pt = _vanishing_point(ideal.nvars, ideal.generators)
    if pt is None:
        raise DomainError("ideal is not the vanishing ideal of a point")
    return pt


# ---------------------------------------------------------------------------
# Catalogue of named ideals with hand-verified zero-set data


def _product_difference_gens(nvars):
    if nvars < 2:
        raise DomainError("product_difference needs at least 2 variables")
    z1 = Poly.variable(nvars, 0)
    z2 = Poly.variable(nvars, 1)
    return [z1 * z2, z1 - z2]


def _product_difference_zeroset(nvars):
    # z1 z2 = 0 and z1 = z2 force z1 = z2 = 0
    return CoordinateSubspace(nvars, frozenset({0, 1}))


CATALOGUE = {
    "product_difference": (_product_difference_gens, _product_difference_zeroset),
}


def _match_catalogue(nvars, gens):
    for name, (builder, _) in CATALOGUE.items():
        try:
            if tuple(builder(nvars)) == tuple(gens):
                return name
        except DomainError:
            continue
    return None


# ---------------------------------------------------------------------------
# Zero sets and minimality


def zero_set(ideal: IdealSpec):
    """Exact zero-set descriptor for the supported families.

    Monomial ideals are handled when every generator is a power of a single
    variable (the zero set is then a coordinate subspace).  A monomial ideal
    with a genuinely mixed generator has a reducible zero set that none of
    the descriptor kinds represents, so it is rejected rather than guessed.
    """
    if ideal.family == COORDINATE_VANISHING:
        return PointSet(vanishing_point(ideal))
    if ideal.family == CATALOGUED:
        _, descriptor = CATALOGUE[ideal.name]
        return descriptor(ideal.nvars)
    if ideal.family == MONOMIAL:
        vanishing = set()
        for g in ideal.generators:
            e = g.monomial_exponent()
            support = [i for i, x in enumerate(e) if x > 0]
            if len(support) != 1:
                raise UnsupportedIdealError(
                    f"zero set of mixed monomial generator {g} is a union of "
                    "coordinate subspaces; supply the variety data explicitly")
            vanishing.add(support[0])
        return CoordinateSubspace(ideal.nvars, frozenset(vanishing))
    raise UnsupportedIdealError(
        "no exact zero-set computation for general ideals")


@dataclass(frozen=True)
class MinimalityCertificate:
    status: str              # "minimal_by_codim" or "hypothesis_fails"
    codim: int
    generator_count: int

    @property
    def minimal(self) -> bool:
        return self.status == "minimal_by_codim"


def minimality_certificate(ideal: IdealSpec) -> MinimalityCertificate:
    """Certify minimal generation by comparing generator count with the
    zero-set codimension.  Equality certifies; anything else only reports
    that this particular sufficient condition failed."""
    v = zero_set(ideal)
    t = len(ideal.generators)
    status = "minimal_by_codim" if v.codim == t else "hypothesis_fails"
    return MinimalityCertificate(status, v.codim, t)


# ---------------------------------------------------------------------------
# Localization dimension


def _centre(coeffs: dict, w) -> dict:
    """The term map of p(w + x) for the term map coeffs of p: each term
    c z^a expands slot by slot as c prod_i sum_k C(a_i, k) w_i^(a_i-k) x_i^k."""
    out = {}
    for a, c in coeffs.items():
        terms = {(): c}
        for ai, wi in zip(a, w):
            # a zero w_i leaves only k = a_i
            ks = range(ai + 1) if wi else (ai,)
            factors = [(k, comb(ai, k) * wi ** (ai - k)) for k in ks]
            terms = {e + (k,): v * f for e, v in terms.items()
                     for k, f in factors}
        for e, v in terms.items():
            out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


@dataclass(frozen=True)
class LocalizationResult:
    dim: int
    stabilized_at: Optional[int]
    dims_by_degree: tuple = field(default=())
    conditional: bool = False


def localization_dim(ideal: IdealSpec, point, max_degree: int = 8) -> LocalizationResult:
    """Dimension of the localization of the ideal at a point.

    In the coordinates x = z - w centred at the point the generators are
    q_j(x) = p_j(w + x).  J_N is the span of the multiples x^beta q_j of
    total degree <= N, and J'_N the span of those with |beta| >= 1, i.e. of
    the (z_i - w_i)-multiples of J_{N-1}.  The defect d_N = dim J_N -
    dim J'_N counts generators surviving localization at w; it is reported
    stabilized once two consecutive degrees agree.  J'_N only grows with N,
    so each degree adds its new multiples to one echelon form; J_N = J'_N +
    span(q_j) with the q_j fixed, so d_N is the number of q_j that a copy of
    that form still accepts, and it never increases.

    The stopping rule is a heuristic for every family, and general ideals
    are flagged conditional: equal consecutive defects do not rule out a
    later drop (<z1^2, z2^2> in three variables at (1/3, 1/2, 0) has
    d_2 = d_3 = 2 and d_N = 1 from N = 4).
    """
    m = ideal.nvars
    w = [rat(x) for x in point]
    if len(w) != m:
        raise DomainError(f"point has arity {len(w)}, ideal lives in {m} variables")
    dmax = ideal.max_degree
    if max_degree < dmax + 1:
        raise DomainError(
            f"max_degree {max_degree} too small; need at least {dmax + 1}")

    centred = [(g.degree, _centre(g.coeffs, w)) for g in ideal.generators]

    jp_span = RowEchelon()
    dims = []
    stabilized_at = None
    for N in range(dmax, max_degree + 1):
        # the multiples with |beta| >= 1 new at degree N
        for dg, q in centred:
            low = N - dg if N > dmax else 1
            for beta in iter_multiindices(m, N - dg, low):
                jp_span.add({tuple(map(add, e, beta)): c for e, c in q.items()})
        # d_N = rank(J'_N + span q_j) - rank J'_N, whatever the row order
        probe = RowEchelon(jp_span.rows)
        dims.append((N, sum(probe.add(q) for _, q in centred)))
        if len(dims) >= 2 and dims[-1][1] == dims[-2][1]:
            stabilized_at = N
            break

    return LocalizationResult(dims[-1][1], stabilized_at, tuple(dims),
                              conditional=(ideal.family == GENERAL))
