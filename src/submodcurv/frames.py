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
positive base-point constant, folded in when rational and otherwise (a
fractional power) kept as the metric's one scale, in text, since it never
influences curvature.  Both keep each term as an integer pair in lowest
terms (MetricSeries.tables); the series matrix of Fractions is built only
when read.  The base point vanishes on each generator variable,
so conj(p_k) F^k restores exactly the share s_k of each kernel term, and
the check sums the integer share numerators against their denominator.
Every c_a and lead coefficient is read from the integer rows of
rkhs.diag_coeff_rows, and every walk over exponents is the cached tuple of
algebra.iter_multiindices.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from fractions import Fraction
from operator import getitem

from .algebra import (ZERO, Record, SeriesMatrix, TruncSeries,
                      _series_names, format_ratios, iter_multiindices, rat,
                      rats)
from .errors import DegeneracyError, DomainError, ShapeError, TruncationError
from .ideals import IdealSpec
from .linalg import _common_denominator, leading_principal_minors
from .rkhs import (WeightedPolydiscModule, cleared_row, diag_coeff,
                   diag_coeff_rows, in_open_polydisc)

COORDINATE_KIND = "coordinate_neighborhood"
ZERO_SET_KIND = "zero_set_slice"


class FrameSeries(Record):
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

    _fields = ("module", "kind", "base_point", "trunc", "gen_vars",
               "gen_powers", "free_slots", "lead_coeffs")
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
    L, scale = _common_denominator(frame.module.weights)
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
    nums, dens = zip(*diag_coeff_rows(frame.module.weights,
                                      frame.trunc + max(frame.gen_powers)))
    vectors = [dict() for _ in gens]
    for alpha in monomials:
        c = Fraction(math.prod(map(getitem, nums, alpha)),
                     math.prod(map(getitem, dens, alpha)))
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
    data = ideal.coordinate_powers
    gen_vars = tuple(v for v, _ in data)
    gen_powers = tuple(p for _, p in data)
    base = rats(base_point)
    if len(base) != m:
        raise ShapeError(f"base point has arity {len(base)}, expected {m}")
    if not in_open_polydisc(base):
        raise DomainError(f"base point {base} is outside the open polydisc")
    for v in gen_vars:
        if base[v] != 0:
            raise DomainError(
                f"base point must lie on the zero variety: z{v+1} component "
                f"is {base[v]}, expected 0")
    free = tuple(i for i in range(m) if i not in gen_vars)
    rows = diag_coeff_rows(module.weights, max(gen_powers))
    leads = tuple(Fraction(rows[v][0][p], rows[v][1][p]) for v, p in data)
    return FrameSeries(module, ZERO_SET_KIND, base, trunc,
                       gen_vars, gen_powers, free, leads)


# ---------------------------------------------------------------------------
# Grammian metric


class MetricSeries(Record):
    """Grammian of a frame as a matrix of truncated series.

    Entry (i, j) is <F_j, F_i> expanded around the base point, kept as the
    integer table tables[i][j]: a dict from exponent keys (w-half then
    wbar-half, npairs slots each, total degree <= trunc) to the nonzero
    coefficient as a (numerator, denominator) pair in lowest terms with a
    positive denominator.  matrix, the same entries as a SeriesMatrix of
    TruncSeries with one Fraction per term, is built on first read; the
    metric task reads the tables alone.  scale is the irrational
    base-point constant of a zero-variety frame, as the text
    "(b)^(e) * ...", one positive number that multiplies every stored
    series and drops out of every log-derivative; None when there is none,
    or when it was rational and folded into the series.  minors are the
    leading principal minors of the base-point values, all positive on a
    metric grammian returns; empty on a metric built otherwise.
    """

    _fields = ("tables", "npairs", "trunc", "scale", "minors")
    _defaults = {"scale": None, "minors": ()}

    @property
    def size(self) -> int:
        return len(self.tables)

    @cached_property
    def matrix(self) -> SeriesMatrix:
        return SeriesMatrix([[TruncSeries._trusted(
            self.npairs, self.trunc,
            {k: Fraction(n, d) for k, (n, d) in table.items()})
            for table in row] for row in self.tables])

    def is_diagonal(self) -> bool:
        return not any(table for i, row in enumerate(self.tables)
                       for j, table in enumerate(row) if i != j)

    def value_at_base(self):
        """Constant-term matrix as a list of lists of Fractions."""
        zero = (0,) * (2 * self.npairs)
        return [[Fraction(*table[zero]) if zero in table else ZERO
                 for table in row] for row in self.tables]

    def entry_text(self, i: int, j: int) -> str:
        """Entry (i, j) as text, str() of matrix[i, j], written from the
        integer table."""
        return format_ratios(self.tables[i][j], _series_names(self.npairs))


@lru_cache(maxsize=32)
def _coordinate_walk(m: int, low: int, top: int, gen_vars: tuple,
                     gen_powers: tuple) -> tuple:
    """What coordinate_terms and the coordinate Grammian read of each
    exponent a of iter_multiindices(m, top, low), which no weight changes:
    (divs, pairs) per a, divs holding (k, v, a_v, a - e_v) per generator
    k = z_v^p that divides z^a, and pairs holding (y, z, d_y + d_z,
    d_z + d_y) for y <= z indexing divs, d_y = a - e_v of divs[y]: the
    keys of the two Grammian terms the pair writes.  One tuple per shape,
    cached; callers only read it."""
    walk = []
    for a in iter_multiindices(m, top, low):
        divs = tuple((k, v, a[v], a[:v] + (a[v] - 1,) + a[v + 1:])
                     for k, (v, p) in enumerate(zip(gen_vars, gen_powers))
                     if a[v] >= p)
        pairs = tuple((y, z, divs[y][3] + divs[z][3], divs[z][3] + divs[y][3])
                      for y in range(len(divs)) for z in range(y, len(divs)))
        walk.append((divs, pairs))
    return tuple(walk)


def coordinate_terms(frame: FrameSeries, low: int, top: int):
    """The kernel terms c_a of a coordinate-neighborhood frame with
    low <= |a| <= top, in integers: one (num, den, downs) per a, with
    num/den = c_a / denom^2, denom the sum of the share numerators, and
    downs holding (i, x_i, a - e_i) per generator z_i dividing z^a, x_i its
    share numerator x_i = L_v a_v (share_numerators).  c_a is the product
    of the poch(l, n)/n! entries of a's support, so num and den are the
    products of their numerators and denominators, read from the integer
    rows of diag_coeff_rows.  The exponents and which generators divide
    each are _coordinate_walk's cached tuple, so each a takes one pass over
    its dividing generators."""
    gens, _ = share_generators(frame)
    nums, dens = zip(*diag_coeff_rows(frame.module.weights, top))
    for divs, _ in _coordinate_walk(frame.module.dim, low, top,
                                    frame.gen_vars, frame.gen_powers):
        num = den = 1
        denom = 0
        downs = []
        for k, v, e, down in divs:
            x = gens[k][3] * e
            denom += x
            num *= nums[v][e]
            den *= dens[v][e]
            downs.append((k, x, down))
        yield num, den * denom * denom, downs


def _metric_by_monomial_sum(frame: FrameSeries) -> list:
    """Grammian tables of a coordinate-neighborhood frame (the tables of a
    MetricSeries), summed over the kernel terms: each c_a with
    a_i, a_j >= 1 puts s_i(a) s_j(a) c_a at w^(a - e_i) wbar^(a - e_j) of
    H_ij.  That term has degree 2|a| - 2, so 1 <= |a| <= D//2 + 1 reaches
    the truncation degree D.  Each term is num x_i x_j / den of
    coordinate_terms, reduced by one gcd, at the pair's cached keys of
    _coordinate_walk.  The value is symmetric in (i, j), and one write puts
    it at the key of H_ij and at the key-swapped key of H_ji, so H is
    Hermitian by construction."""
    m = frame.module.dim
    top = frame.trunc // 2 + 1
    terms = [[{} for _ in range(m)] for _ in range(m)]
    # coordinate_terms walks the same cached tuple, so the two stay aligned
    walk = _coordinate_walk(m, 1, top, frame.gen_vars, frame.gen_powers)
    for (num, den, downs), (_, pairs) in zip(
            coordinate_terms(frame, 1, top), walk):
        # a key concatenates the w-half and the wbar-half
        for y, z, key, swapped in pairs:
            i, xi, _ = downs[y]
            j, xj, _ = downs[z]
            n = num * xi * xj
            g = math.gcd(n, den)
            terms[i][j][key] = value = (n // g, den // g)
            if j != i:
                terms[j][i][swapped] = value
    # nonzero terms at keys of degree 2|a| - 2 <= D
    return terms


def _slot_coefficients(row, c):
    """(table, den): table maps (beta, gamma) to the integer numerator over
    den of [u^beta ub^gamma] ((1 - (c+u)(c+ub)) / (1 - c^2))^(-l), for
    beta + gamma <= D, zero entries left out, where row = (R, S) is l's
    cleared_row: (l)_n/n! = R[n]/S, n = 0..D.  That coefficient is
    (l)_beta/beta! sum_{j <= min(beta, gamma)} C(beta, j) (l+beta)_{gamma-j}
    /(gamma-j)! c^(beta+gamma-2j) q^(beta+gamma-j), q = 1/(1 - c^2).  With
    c = u/d, e = d^2 - u^2 and n = beta + gamma it is d^n/(e^n S) sum_j
    C(beta, j) C(n-j, beta) R[n-j] u^(n-2j) e^j, so over den = e^D S its
    numerator is that sum times d^n e^(D-n).  The table is symmetric in
    (beta, gamma)."""
    R, S = row
    trunc = len(R) - 1
    u, d = c.numerator, c.denominator
    upow = [u ** k for k in range(trunc + 1)]
    epow = [(d * d - u * u) ** k for k in range(trunc + 1)]
    table = {}
    for b in range(trunc // 2 + 1):
        for n in range(2 * b, trunc + 1):
            x = sum(math.comb(b, j) * math.comb(n - j, b) * R[n - j]
                    * upow[n - 2 * j] * epow[j] for j in range(b + 1))
            if x:
                table[b, n - b] = table[n - b, b] = \
                    x * d ** n * epow[trunc - n]
    return table, epow[trunc] * S


def _metric_by_closed_form(frame: FrameSeries):
    """(tables, scale): the diagonal zero-variety metric from the recentered product form
    H_kk = lead_k prod_{free i} (1 - w_i wbar_i)^(-l_i) about the base point.

    The base-point constant prod_{free i} (1 - c_i^2)^(-l_i) is the same for
    every generator.  Its factors are merged by base, {1 - c_i^2: -sum l_i}
    over the free slots with c_i != 0.  When every merged exponent is an
    integer the constant is folded into the series, so reported values are
    the true norms, and the scale is None; otherwise (an irrational power
    from fractional weights) it is returned as the scale, the text
    "(b)^(e) * ..." sorted by base.  The slot tables multiply as integer
    numerators over the product of their denominators, and each stored
    term of H_kk is a p / (den q) reduced by one gcd, p/q = lead_k times the
    folded constant.  H is diagonal, and each slot table is symmetric in
    (beta, gamma), so every entry is its own key-swapped conjugate: H is
    Hermitian by construction.
    """
    module = frame.module
    m = module.dim
    D = frame.trunc
    t = frame.count
    powers = {}
    rows = diag_coeff_rows(module.weights, D)
    # disjoint slots: the product of their tables is the outer product
    terms, den = {(0,) * (2 * m): 1}, 1
    for i in frame.free_slots:
        c = rat(frame.base_point[i])
        if c:
            powers[1 - c * c] = powers.get(1 - c * c, 0) - module.weights[i]
        table, slot_den = _slot_coefficients(cleared_row(rows[i]), c)
        den *= slot_den
        table = table.items()
        terms = {k[:i] + (b,) + k[i + 1:m + i] + (g,) + k[m + i + 1:]: a * x
                 for k, a in terms.items() for room in (D - sum(k),)
                 for (b, g), x in table if b + g <= room}
    if all(e.denominator == 1 for e in powers.values()):
        fold, scale = math.prod(b ** int(e) for b, e in powers.items()), None
    else:
        fold, scale = 1, " * ".join(f"({b})^({e})"
                                    for b, e in sorted(powers.items()))
    tables = [[{} for _ in range(t)] for _ in range(t)]
    for k, lead in enumerate(frame.lead_coeffs):
        p, q = (rat(lead) * fold).as_integer_ratio()
        if p:
            q *= den
            table = tables[k][k]
            for key, a in terms.items():
                g = math.gcd(a * p, q)
                table[key] = (a * p // g, q // g)
    return tables, scale


def grammian(frame: FrameSeries) -> MetricSeries:
    """Grammian metric of a frame, exact through the truncation degree,
    read from the frame's spec; no frame vector is built.

    A coordinate-neighborhood frame sums its kernel terms with their
    splitting shares.  A zero-variety frame, at the origin slice or any other
    base point, takes the recentered closed form, which is diagonal; away
    from the origin infinitely many kernel terms hit every series degree.
    """
    if frame.kind == COORDINATE_KIND:
        tables, scale = _metric_by_monomial_sum(frame), None
    else:
        tables, scale = _metric_by_closed_form(frame)
    metric = MetricSeries(tuple(map(tuple, tables)), frame.module.dim,
                          frame.trunc, scale)
    # both builders are Hermitian by construction; a FrameSeries built by
    # hand may carry any lead_coeffs, so positivity is checked
    minors = leading_principal_minors(metric.value_at_base())
    if any(d <= 0 for d in minors):
        raise DegeneracyError(
            "frame is linearly dependent (Grammian not positive definite "
            f"at the base point; principal minors {minors})")
    return metric._replace(minors=tuple(minors))


# ---------------------------------------------------------------------------
# Reconstruction check


def reconstruction_residual(frame: FrameSeries) -> dict:
    """Residual of sum_k conj(p_k) F^k against the kernel, per z-exponent.

    The kernel term at alpha is c_alpha P(alpha), P(alpha) = conj(z)^alpha
    about the base point, which vanishes on each generator variable: so
    P(alpha) = ub_v^p P(alpha - p e_v) through degree D, and the residual
    at alpha is (sum_k s_k(alpha) - 1) c_alpha P(alpha).  The shares are
    read in integers, s_k(alpha) = x_k / denom (share_numerators), and
    sum_k x_k != denom is the test; a Fraction and a series are built only
    where it fails.  The test restates share_numerators, whose denom is
    that sum, so on every frame it passes and the result is {}.  Only
    nonzero residuals are returned; an empty dict certifies the identity
    through the truncation degree.  No task calls it; ROADMAP item 10
    moves it once item 1b releases the tracer's binding.
    """
    gens, _ = share_generators(frame)
    residuals = {}
    for alpha in iter_multiindices(frame.module.dim,
                                   frame.trunc + max(frame.gen_powers)):
        parts, denom = share_numerators(gens, alpha)
        total = sum(x for *_, x in parts)
        if parts and total != denom:
            diff = frame.recentered_monomials[alpha].scale(
                (Fraction(total, denom) - 1) * diag_coeff(frame.module, alpha))
            if not diff.is_zero():
                residuals[alpha] = diff
    return residuals
