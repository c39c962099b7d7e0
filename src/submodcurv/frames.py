"""Frame decompositions of submodule kernels and their Grammian metrics.

For an ideal generated by coordinate powers z_{v_1}^{i_1}, ..., z_{v_t}^{i_t}
the submodule kernel splits as

    K_M(., u) = sum_k conj(p_k)(u) F^k(., u)

with frame vectors built by distributing each diagonal kernel term c_a z^a
conj(u)^a over the generators that divide it.  The splitting rule used here
weights generator k on exponent a by

    s_k(a) = l_k a_k [a_k >= i_k] / sum_j l_j a_j [a_j >= i_j]

which reproduces the kernel exactly (the weights sum to 1 on the support)
and restricts on the zero variety to the product closed form
(poch(l_k, i_k)/i_k!) z_k^{i_k} prod_{free i} (1 - z_i conj(w_i))^{-l_i}.
Other splittings differ by a gauge transformation; the rule in force is
recorded on the frame so reports can state it.

A frame is its spec; its vectors, maps from z-exponents to truncated series
in the displacement (u, ubar) from the base point, are built on first read,
which only the tests and the benchmark's tracer do.  The Grammian and the
reconstruction check read the spec alone.  The coordinate-neighborhood
Grammian sums the kernel terms s_i(a) s_j(a) c_a, with the shares in
integers (share_numerators); a zero-variety Grammian
is the outer product of one finite coefficient table per free slot, with a
positive base-point constant that may be irrational (fractional powers)
carried symbolically, since it never influences curvature.  The base point
vanishes on each generator variable, so conj(p_k) F^k restores exactly the
share s_k of each kernel term, and the check sums the shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .algebra import (SeriesMatrix, TruncSeries, iter_multiindices,
                      pochhammer, rat, unit)
from .errors import (DegeneracyError, DomainError, ShapeError,
                     TruncationError, UnsupportedIdealError)
from .ideals import MONOMIAL, IdealSpec
from .linalg import leading_principal_minors
from .polynomials import Poly
from .rkhs import WeightedPolydiscModule, diag_coeff, diag_coeff_slots

COORDINATE_KIND = "coordinate_neighborhood"
ZERO_SET_KIND = "zero_set_slice"


@dataclass(frozen=True)
class PowerProduct:
    """Product of positive rational bases raised to rational exponents.

    Keeps quantities like (1 - |w|^2)^(-3/2) exact without evaluating the
    irrational power.  Factors with base 1 or exponent 0 are dropped.
    """
    factors: tuple = ()

    def times(self, base, exp) -> "PowerProduct":
        base, exp = rat(base), rat(exp)
        if base <= 0:
            raise DomainError(f"power-product base must be positive, got {base}")
        if base == 1 or exp == 0:
            return self
        merged = dict(self.factors)
        merged[base] = merged.get(base, Fraction(0)) + exp
        return PowerProduct(tuple(sorted((b, e) for b, e in merged.items() if e != 0)))

    def is_rational(self) -> bool:
        return all(e.denominator == 1 for _, e in self.factors)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError(f"{self} is irrational")
        out = Fraction(1)
        for b, e in self.factors:
            out *= b ** int(e)
        return out

    def __str__(self):
        if not self.factors:
            return "1"
        return " * ".join(f"({b})^({e})" for b, e in self.factors)


@dataclass(frozen=True)
class FrameSeries:
    """The spec of a finite frame for a submodule kernel near a base point.

    Generator k is the monomial z_{gen_vars[k]+1} to the power
    gen_powers[k]; free_slots lists the variables transverse to the
    generators (all variables for the coordinate-neighborhood kind).
    vectors[k] maps a z-exponent to the truncated (u, ubar)-series of that
    coefficient of F^k.  It and recentered_monomials, the table of
    conj(z)^beta about the base point it is built from, are built on first
    read; no task reads the vectors, and the reconstruction check reads the
    table only where the splitting shares fail to sum to 1.
    """
    module: WeightedPolydiscModule
    kind: str
    base_point: tuple
    trunc: int
    gen_vars: tuple
    gen_powers: tuple
    free_slots: tuple
    lead_coeffs: tuple
    # not annotated, so a class constant rather than a field
    splitting_note = ("kernel terms split over generators proportionally to "
                      "weight*exponent on the generator variable, restricted "
                      "to generators whose power divides the term")

    @property
    def count(self) -> int:
        return len(self.gen_vars)

    @cached_property
    def recentered_monomials(self) -> dict:
        return _recentered_monomials(self)

    @cached_property
    def vectors(self) -> tuple:
        return _build_splitting_frame(self)

    def generator_polys(self):
        m = self.module.dim
        return tuple(Poly.monomial(m, unit(m, v, p))
                     for v, p in zip(self.gen_vars, self.gen_powers))


def _recentered_monomials(frame) -> dict:
    """beta -> P(beta) = prod_j (ub_j + b_j)^beta_j, the conjugate monomial
    conj(z)^beta about the base point b, for |beta| <= D + max power.  Each
    P(beta) is its predecessor P(beta - e_j), j the first slot of beta,
    times one linear factor."""
    m = frame.module.dim
    D = frame.trunc
    lin = [TruncSeries.wbar(m, D, j) + frame.base_point[j] for j in range(m)]
    table = {(0,) * m: TruncSeries.one(m, D)}
    for beta in iter_multiindices(m, D + max(frame.gen_powers), 1):
        j = next(j for j, e in enumerate(beta) if e)
        table[beta] = table[beta[:j] + (beta[j] - 1,) + beta[j + 1:]] * lin[j]
    return table


def share_generators(frame):
    """(gens, scale): gens holds (k, v, p, L_v) per generator z_v^p, where
    scale is the lcm of the weights' denominators and L = scale * weights,
    the weights as integers of the same ratios."""
    weights = frame.module.weights
    scale = math.lcm(*(w.denominator for w in weights))
    L = [w.numerator * (scale // w.denominator) for w in weights]
    return tuple((k, v, p, L[v]) for k, (v, p)
                 in enumerate(zip(frame.gen_vars, frame.gen_powers))), scale


def share_numerators(gens, alpha):
    """The splitting rule in integers: (parts, denom), parts holding
    (k, v, p, x_k) for each of share_generators' gens dividing z^alpha, with
    x_k = L_v alpha_v and denom = sum x_k, so that s_k(alpha) = x_k / denom."""
    parts = [(k, v, p, w * alpha[v]) for k, v, p, w in gens if alpha[v] >= p]
    return parts, sum(x for *_, x in parts)


def _splitting_shares(gens, alpha) -> list:
    """(k, v, p, s_k(alpha)) for each of share_generators' gens dividing
    z^alpha."""
    parts, denom = share_numerators(gens, alpha)
    return [(k, v, p, Fraction(x, denom)) for k, v, p, x in parts]


def _build_splitting_frame(frame):
    """F^k[alpha] = s_k(alpha) c_alpha P(alpha - p_k e_{v_k}) for every
    kernel term alpha that generator k divides."""
    gens, _ = share_generators(frame)
    monomials = frame.recentered_monomials
    slots = diag_coeff_slots(frame.module, frame.trunc + max(frame.gen_powers))
    vectors = [dict() for _ in gens]
    for alpha in monomials:
        c = math.prod(row[e] for row, e in zip(slots, alpha))
        for k, v, p, s in _splitting_shares(gens, alpha):
            down = alpha[:v] + (alpha[v] - p,) + alpha[v + 1:]
            series = monomials[down].scale(s * c)
            if not series.is_zero():
                vectors[k][alpha] = series
    return tuple(vectors)


def decompose_coordinate_ideal(module: WeightedPolydiscModule,
                               trunc: int) -> FrameSeries:
    """Frame for the submodule generated by all the coordinates z_1, ..., z_m
    near the origin.

    The frame lives over a full neighborhood of 0 (all variables vary), one
    vector per coordinate generator, with F^k(., 0) = l_k z_k.
    """
    m = module.dim
    if trunc < 2:
        raise TruncationError("frame truncation degree must be >= 2")
    return FrameSeries(module, COORDINATE_KIND, (Fraction(0),) * m, trunc,
                       tuple(range(m)), (1,) * m, tuple(range(m)),
                       module.weights)


def coordinate_power_data(ideal: IdealSpec):
    """(var, power) per generator, sorted by variable; distinct vars only."""
    if ideal.family != MONOMIAL:
        raise UnsupportedIdealError(
            "zero-set frames need a monomial ideal of coordinate powers")
    data = []
    for g in ideal.generators:
        e = g.monomial_exponent()
        support = [i for i, x in enumerate(e) if x > 0]
        if len(support) != 1:
            raise UnsupportedIdealError(
                f"generator {g} mixes variables; no closed-form frame")
        if next(iter(g.coeffs.values())) != 1:
            raise UnsupportedIdealError("generators must be monic monomials")
        data.append((support[0], e[support[0]]))
    vars_seen = [v for v, _ in data]
    if len(set(vars_seen)) != len(vars_seen):
        raise UnsupportedIdealError(
            "two generators share a variable; the generating set is redundant")
    data.sort()
    return data


def frame_on_zero_set(module: WeightedPolydiscModule, ideal: IdealSpec,
                      base_point, trunc: int) -> FrameSeries:
    """Frame for a coordinate-power ideal at a point of its zero variety.

    The base point must vanish on every generator variable and stay inside
    the open polydisc.  Frame vectors restrict on the variety to the product
    closed form and are pairwise orthogonal there.
    """
    if trunc < 2:
        raise TruncationError("frame truncation degree must be >= 2")
    m = module.dim
    data = coordinate_power_data(ideal)
    gen_vars = tuple(v for v, _ in data)
    gen_powers = tuple(p for _, p in data)
    base = tuple(rat(x) for x in base_point)
    if len(base) != m:
        raise ShapeError(f"base point has arity {len(base)}, expected {m}")
    if any(abs(x) >= 1 for x in base):
        raise DomainError(f"base point {base} is outside the open polydisc")
    for v in gen_vars:
        if base[v] != 0:
            raise DomainError(
                f"base point must lie on the zero variety: z{v+1} component "
                f"is {base[v]}, expected 0")
    free = tuple(i for i in range(m) if i not in gen_vars)
    leads = tuple(pochhammer(module.weights[v], p) / math.factorial(p)
                  for v, p in zip(gen_vars, gen_powers))
    return FrameSeries(module, ZERO_SET_KIND, base, trunc,
                       gen_vars, gen_powers, free, leads)


# ---------------------------------------------------------------------------
# Grammian metric


@dataclass(frozen=True)
class MetricSeries:
    """Grammian of a frame as a matrix of truncated series.

    Entry (i, j) is <F_j, F_i> expanded around the base point.  When the
    base-point constant of a zero-variety frame is irrational the diagonal
    carries it symbolically (scales[k], the same for every k); scales
    multiply the stored series and are irrelevant to every log-derivative.
    scales None means all ones.  minors are the leading principal minors of
    the base-point values, all positive on a metric grammian returns; empty
    on a metric built otherwise.
    """
    matrix: SeriesMatrix
    base_point: tuple
    free_slots: tuple
    scales: Optional[tuple] = None
    minors: tuple = ()

    @property
    def size(self) -> int:
        return self.matrix.n

    def is_diagonal(self) -> bool:
        n = self.matrix.n
        return all(self.matrix[i, j].is_zero()
                   for i in range(n) for j in range(n) if i != j)

    def value_at_base(self):
        return self.matrix.value_at_base()


def coordinate_terms(frame: FrameSeries, low: int, top: int):
    """The kernel terms c_a of a coordinate-neighborhood frame with
    low <= |a| <= top, in integers: one (num, den, downs) per a, with
    num/den = c_a / denom^2, denom the sum of the share numerators, and
    downs holding (i, x_i, a - e_i) per generator z_i dividing z^a, x_i its
    share numerator (share_numerators).  c_a is the product of the
    diag_coeff_slots entries of a's support, so num and den are the products
    of their numerators and denominators."""
    gens, _ = share_generators(frame)
    slots = diag_coeff_slots(frame.module, top)
    nums = [[c.numerator for c in row] for row in slots]
    dens = [[c.denominator for c in row] for row in slots]
    for a in iter_multiindices(frame.module.dim, top, low):
        parts, denom = share_numerators(gens, a)
        num = math.prod(nums[v][a[v]] for _, v, _, _ in parts)
        den = math.prod(dens[v][a[v]] for _, v, _, _ in parts) * denom * denom
        yield num, den, [(k, x, a[:v] + (a[v] - 1,) + a[v + 1:])
                         for k, v, _, x in parts]


def _metric_by_monomial_sum(frame: FrameSeries) -> SeriesMatrix:
    """Grammian of a coordinate-neighborhood frame, summed over the kernel
    terms: each c_a with a_i, a_j >= 1 puts s_i(a) s_j(a) c_a at
    w^(a - e_i) wbar^(a - e_j) of H_ij.  That term has degree 2|a| - 2, so
    1 <= |a| <= D//2 + 1 reaches the truncation degree D.  Each term is one
    reduced Fraction(num x_i x_j, den) of coordinate_terms.  The value is
    symmetric in (i, j), and one write puts it at the key of H_ij and at the
    key-swapped key of H_ji, so H is Hermitian by construction."""
    m = frame.module.dim
    terms = [[{} for _ in range(m)] for _ in range(m)]
    for num, den, downs in coordinate_terms(frame, 1, frame.trunc // 2 + 1):
        # a key concatenates the w-half and the wbar-half
        for y, (i, xi, di) in enumerate(downs):
            ni = num * xi
            for j, xj, dj in downs[y:]:
                v = Fraction(ni * xj, den)
                terms[i][j][di + dj] = v
                terms[j][i][dj + di] = v
    # nonzero Fractions at keys of degree 2|a| - 2 <= D: already clean
    return SeriesMatrix([[TruncSeries._trusted(m, frame.trunc, t)
                          for t in row] for row in terms])


def _slot_coefficients(weight, c, trunc) -> dict:
    """(beta, gamma) -> [u^beta ub^gamma] of ((1 - (c+u)(c+ub)) / (1 - c^2))
    ^(-l), l = weight, for beta + gamma <= trunc, zero entries left out:
    (l)_beta/beta! sum_{j <= min(beta, gamma)} C(beta, j) (l+beta)_{gamma-j}
    /(gamma-j)! c^(beta+gamma-2j) q^(beta+gamma-j), q = 1/(1 - c^2).  With
    n = beta + gamma the j-th term is C(beta, j) C(n-j, beta) lq[n-j]
    c^(n-2j), lq[k] = (l)_k/k! q^k; the table is symmetric in (beta, gamma)."""
    q = 1 / (1 - c * c)
    lq = [pochhammer(weight, k) / math.factorial(k) * q ** k
          for k in range(trunc + 1)]
    cpow = [c ** k for k in range(trunc + 1)]
    table = {}
    for b in range(trunc // 2 + 1):
        for n in range(2 * b, trunc + 1):
            x = sum(math.comb(b, j) * math.comb(n - j, b) * lq[n - j]
                    * cpow[n - 2 * j] for j in range(b + 1))
            if x:
                table[b, n - b] = table[n - b, b] = x
    return table


def _metric_by_closed_form(frame: FrameSeries):
    """Diagonal zero-variety metric from the recentered product form
    H_kk = lead_k prod_{free i} (1 - w_i wbar_i)^(-l_i) about the base point.

    The base-point constant prod_{free i} (1 - c_i^2)^(-l_i) is the same for
    every generator.  It is folded into the series when it is rational, so
    reported values are the true norms, and returned as each generator's
    symbolic scale otherwise (an irrational power from fractional weights);
    the scales are None when folded.  H is diagonal, and each slot table is
    symmetric in (beta, gamma), so every entry is its own key-swapped
    conjugate: H is Hermitian by construction.
    """
    module = frame.module
    m = module.dim
    D = frame.trunc
    t = frame.count
    scale = PowerProduct()
    # disjoint slots: the product of their tables is the outer product
    terms = {(0,) * (2 * m): Fraction(1)}
    for i in frame.free_slots:
        c = rat(frame.base_point[i])
        scale = scale.times(1 - c * c, -module.weights[i])
        table = _slot_coefficients(module.weights[i], c, D).items()
        terms = {k[:i] + (b,) + k[i + 1:m + i] + (g,) + k[m + i + 1:]: a * x
                 for k, a in terms.items() for room in (D - sum(k),)
                 for (b, g), x in table if b + g <= room}
    common = TruncSeries._trusted(m, D, terms)
    if scale.is_rational():
        fold, scales = scale.rational_value(), None
    else:
        fold, scales = 1, (scale,) * t
    return SeriesMatrix([[common.scale(frame.lead_coeffs[k] * fold) if k == j
                          else TruncSeries.zero(m, D) for j in range(t)]
                         for k in range(t)]), scales


def grammian(frame: FrameSeries) -> MetricSeries:
    """Grammian metric of a frame, exact through the truncation degree,
    read from the frame's spec; no frame vector is built.

    A coordinate-neighborhood frame sums its kernel terms with their
    splitting shares.  A zero-variety frame, at the origin slice or any other
    base point, takes the recentered closed form, which is diagonal; away
    from the origin infinitely many kernel terms hit every series degree.
    """
    if frame.kind == COORDINATE_KIND:
        matrix, scales = _metric_by_monomial_sum(frame), None
    else:
        matrix, scales = _metric_by_closed_form(frame)
    # both builders are Hermitian by construction; a FrameSeries built by
    # hand may carry any lead_coeffs, so positivity is checked
    minors = leading_principal_minors(matrix.value_at_base())
    if any(d <= 0 for d in minors):
        raise DegeneracyError(
            "frame is linearly dependent (Grammian not positive definite "
            f"at the base point; principal minors {minors})")
    return MetricSeries(matrix, frame.base_point, frame.free_slots, scales,
                        tuple(minors))


# ---------------------------------------------------------------------------
# Reconstruction check


def reconstruction_residual(frame: FrameSeries) -> dict:
    """Residual of sum_k conj(p_k) F^k against the kernel, per z-exponent.

    The kernel term at alpha is c_alpha P(alpha), P(alpha) = conj(z)^alpha
    about the base point, which vanishes on each generator variable: so
    P(alpha) = ub_v^p P(alpha - p e_v) through degree D, and the residual
    at alpha is (sum_k s_k(alpha) - 1) c_alpha P(alpha), a series built only
    where the shares do not sum to 1.  Only nonzero residuals are returned;
    an empty dict certifies the identity through the truncation degree.
    """
    gens, _ = share_generators(frame)
    residuals = {}
    for alpha in iter_multiindices(frame.module.dim,
                                   frame.trunc + max(frame.gen_powers)):
        shares = _splitting_shares(gens, alpha)
        total = sum(s for *_, s in shares)
        if shares and total != 1:
            diff = frame.recentered_monomials[alpha].scale(
                (total - 1) * diag_coeff(frame.module, alpha))
            if not diff.is_zero():
                residuals[alpha] = diff
    return residuals
