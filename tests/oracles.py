"""Independent oracles and helpers that only the tests use.

Each layer of the library is checked against one reference, the one
furthest from src/ (a second only where a test says why), one line each:

- poch(l, n)/n! rows: pochhammer and diag_coeff_slots, as products.
- algebra.iter_multiindices: multiindices_by_recursion.
- term text (format_ratios, format_terms): format_terms_by_fraction_str.
- linalg.leading_principal_minors: leading_minors_by_sweep.
- RowEchelon rank and null vectors: _rref, Gauss-Jordan over Fraction.
- IdealSpec.vanishes_at: zero_set and its descriptors, with codim and
  minimality_certificate.
- IdealSpec.coordinate_powers: coordinate_power_data_by_pair_scan.
- localization_dim: localization_dim_two_spans over FractionRowEchelon.
- reduced presentation (ROADMAP item 15): reduced_groebner_basis.
- frames.reconstruction_residual: full_reconstruction_residual.
- zero-set metric and scale: recentered_inverse_power (Horner), PowerProduct.
- coordinate Grammian: metric_by_fraction_shares.
- curvature blocks: coordinate_tensor_by_fraction_shares.
- frames.coordinate_terms: coordinate_terms_by_enumeration.
- curvature block trace: trace_by_fraction_sum.
- Hermitian rows: is_hermitian_by_pair_loop.
- lambda-mu pair and compare row: lambda_mu_by_fractions, lambda_mu_equivalent.
- rigidity battery: polydisc_rigidity_report_by_modules, module_weights_by_rat.
- cubic: cubic_positive_roots_by_sturm (squarefree part, Sturm chain).
- diagonal tail bound: diagonal_tail_bound_by_fractions.
- ambient and filtered kernels: ambient_kernel_exact,
  filtered_kernel_by_corner_loop.
- rank-one kernel: rank_one_by_four_calls.
- BareissFactor.solve: inverse_form.
- polynomial parse and centring: parse_poly_by_poly_arithmetic,
  centre_by_eval_terms.
- rational parse: parse_rational_by_fraction_str, parse_vector_by_fraction_str.
- parse_config: parse_config_by_configparser and parse_config_by_schema_walk.
- plain config reader: sections_by_configparser.
- input echo and report text: input_echo_by_fraction_str,
  render_text_by_recursion, matrix_rows_by_fstring.
- curvature from outside: fd_mixed_hessian and fd_log_hessian, in floats.

The Gram form's reference, a Gram-Schmidt run, is in tests/test_rkhs.py;
gram_complement and gram_blocks only read a GramFormKernel as Fractions.
The rest are helpers and fixtures: series and matrix builders, term-map
evaluation, the gauge action, the Hardy module, coordinate-power ideals,
the monomial inner product, and forbid_fraction_arithmetic, a guard that
makes Fraction arithmetic raise where only integers should run.
"""

from __future__ import annotations

import configparser
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from submodcurv.algebra import (SeriesMatrix, TruncSeries, cofactor_det,
                                exponent, iter_multiindices, rat, unit)
from submodcurv.cli import (CONVENTION, FLAG_LABELS, TASKS, JobConfig,
                            Report, _check_fields, _read_config)
from submodcurv.curvature import CurvatureTensor
from submodcurv.errors import (DomainError, InputError, ShapeError,
                               SingularityError, TruncationError,
                               UnsupportedIdealError)
from submodcurv.frames import (FrameSeries, MetricSeries, share_generators,
                               share_numerators)
from submodcurv.ideals import (CATALOGUE, CATALOGUED, COORDINATE_VANISHING,
                               GENERAL, MONOMIAL, IdealSpec,
                               LocalizationResult)
from submodcurv.invariants import (CubicReport, RigidityReport,
                                   _curvature_battery, lambda_mu_invariants)
from submodcurv.linalg import (BareissFactor, RowEchelon, _common_denominator,
                               mat_det, mat_inverse, mat_mul)
from submodcurv.polynomials import Poly, _Tokenizer, parse_poly
from submodcurv.rkhs import (DiagonalFilteredKernel, GramFormKernel,
                             RankOneCorrectedKernel, WeightedPolydiscModule,
                             _check_point, ambient_kernel_bounded, diag_coeff)


# ---------------------------------------------------------------------------
# Exact helpers


def pochhammer(a: Fraction, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1, as a
    product: the reference for the package's one coefficient table
    rkhs.diag_coeff_rows, whose rows are (a)_n/n! by a ratio recurrence."""
    if n < 0:
        raise DomainError(f"pochhammer needs n >= 0, got {n}")
    a = rat(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def diag_coeff_slots(module: WeightedPolydiscModule, N: int) -> tuple:
    """Per-slot factors of diag_coeff as Fractions: slots[i][n] =
    poch(l_i, n)/n! for n = 0..N, so c_alpha = prod_i slots[i][alpha_i].
    The package's Fraction table before its callers read the integer rows
    of rkhs.diag_coeff_rows; built here from pochhammer."""
    return tuple(tuple(pochhammer(l, n) / math.factorial(n)
                       for n in range(N + 1)) for l in module.weights)


def multiindices_by_recursion(nvars: int, max_degree: int,
                              min_degree: int = 0):
    """The exponent walk that algebra.iter_multiindices' cached tuple
    replaced: a recursive generator, run on every call, by degree and,
    within one degree, in descending lexicographic order."""
    def of_degree(n, d):
        if n == 1:
            yield (d,)
            return
        for first in range(d, -1, -1):
            for rest in of_degree(n - 1, d - first):
                yield (first,) + rest
    for d in range(min_degree, max_degree + 1):
        yield from of_degree(nvars, d)


def series_exp(s: TruncSeries) -> TruncSeries:
    """Exponential of a series with zero constant term (so the result is
    rational), via the truncated factorial sum."""
    if s.constant_term() != 0:
        raise DomainError("series_exp needs zero constant term for exactness")
    D = s.trunc
    acc = TruncSeries.constant(s.npairs, D, Fraction(1, math.factorial(D)))
    for k in range(D - 1, -1, -1):
        acc = TruncSeries.constant(s.npairs, D,
                                   Fraction(1, math.factorial(k))) + s * acc
    return acc


def geometric_sum(q: TruncSeries) -> TruncSeries:
    """1/(1 - q) for q of positive order: the sum of q^k for k <= q.trunc,
    which is exact through the truncation degree."""
    if q.constant_term() != 0:
        raise DomainError("geometric_sum needs a series of positive order")
    term = acc = TruncSeries.one(q.npairs, q.trunc)
    for _ in range(q.trunc):
        term = term * q
        acc = acc + term
    return acc


def series_identity(n: int, npairs: int, trunc: int) -> SeriesMatrix:
    return SeriesMatrix(
        [[TruncSeries.one(npairs, trunc) if i == j
          else TruncSeries.zero(npairs, trunc) for j in range(n)]
         for i in range(n)])


def series_matmul(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    """Product of two square series matrices of the same size."""
    if a.n != b.n:
        raise ShapeError("matrix shape mismatch")
    n = a.n
    zero = TruncSeries.zero(a.npairs, a.trunc)
    return SeriesMatrix(
        [[sum((a[i, k] * b[k, j] for k in range(n)), zero)
          for j in range(n)] for i in range(n)])


def mat_identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def is_positive_definite(A) -> bool:
    """Sylvester's criterion on a matrix assumed (real) symmetric, by the
    cofactor determinant of each leading block, not the Bareiss sweep."""
    return all(cofactor_det([row[:k] for row in A[:k]]) > 0
               for k in range(1, len(A) + 1))


def leading_minors_by_sweep(A) -> list:
    """The linalg.leading_principal_minors that the diagonal fast path
    shortcuts: one BareissFactor sweep's minors up to the first zero one,
    then one mat_det per remaining leading block, whatever the matrix."""
    minors = BareissFactor(A).leading_minors()
    return minors + [mat_det([row[:k] for row in A[:k]])
                     for k in range(len(minors) + 1, len(A) + 1)]


def monomial_norm_sq(module: WeightedPolydiscModule, alpha) -> Fraction:
    """||z^alpha||^2 = 1 / diag_coeff(alpha)."""
    return 1 / diag_coeff(module, alpha)


def poly_inner(module: WeightedPolydiscModule, p: Poly, q: Poly) -> Fraction:
    """Inner product <p, q> via monomial orthogonality.

    Coefficients are real rationals, so no conjugation shows up.
    """
    if p.nvars != module.dim or q.nvars != module.dim:
        raise ShapeError("polynomial arity does not match the module dimension")
    if len(p.coeffs) > len(q.coeffs):
        p, q = q, p
    total = Fraction(0)
    for k, v in p.coeffs.items():
        u = q.coeffs.get(k)
        if u is not None:
            total += v * u / diag_coeff(module, k)
    return total


# ---------------------------------------------------------------------------
# Term-map queries, zero-set data and the gauge action: package API until
# nothing but the tests read it


def eval_terms(coeffs: dict, vals) -> Fraction:
    """Value of a term map at a point given slot by slot."""
    total = Fraction(0)
    for k, v in coeffs.items():
        term = v
        for x, e in zip(vals, k):
            if e:
                term *= x ** e
        total += term
    return total


def evaluate_poly(p: Poly, point) -> Fraction:
    vals = [rat(x) for x in point]
    if len(vals) != p.nvars:
        raise ShapeError("evaluation point has wrong arity")
    return eval_terms(p.coeffs, vals)


def evaluate_series(s: TruncSeries, wvals, wbvals) -> Fraction:
    """The truncated polynomial at exact rational arguments: a plain
    polynomial evaluation of the jet."""
    wvals = [rat(x) for x in wvals]
    wbvals = [rat(x) for x in wbvals]
    if len(wvals) != s.npairs or len(wbvals) != s.npairs:
        raise ShapeError("evaluation point has wrong arity")
    return eval_terms(s.coeffs, wvals + wbvals)


def series_w(npairs: int, trunc: int, i: int, power: int = 1) -> TruncSeries:
    """The monomial w_i^power of a series (i is 0-based)."""
    return TruncSeries(npairs, trunc, {unit(2 * npairs, i, power): 1})


def coefficient(s: TruncSeries, wexp, wbexp) -> Fraction:
    """The coefficient of w^wexp wb^wbexp."""
    return s.coeffs.get(tuple(wexp) + tuple(wbexp), Fraction(0))


def conj(s: TruncSeries) -> TruncSeries:
    """Formal conjugation: swap the w and wb halves of every exponent.
    Coefficients are real rationals, so they are fixed by conjugation."""
    m = s.npairs
    return TruncSeries(m, s.trunc,
                       {k[m:] + k[:m]: v for k, v in s.coeffs.items()})


def mixed_hessian(s: TruncSeries, i: int, j: int) -> Fraction:
    """d^2 s / (dw_i dwb_j) at the base point (0-based i, j): the
    coefficient of w_i wb_j."""
    m = s.npairs
    if not (0 <= i < m and 0 <= j < m):
        raise ShapeError(f"hessian indices ({i},{j}) out of range for m={m}")
    if s.trunc < 2:
        raise TruncationError("mixed_hessian needs truncation degree >= 2")
    return coefficient(s, unit(m, i), unit(m, j))


def line_curvature(h: TruncSeries, i: int, j: int) -> Fraction:
    """Mixed Hessian d_i dbar_j of log h at the base point, for a scalar
    (line-bundle) metric h with positive value there:
    (h h_{i jbar} - h_i h_{jbar}) / h^2 on the 2-jet of h.

    Multiplying h by any positive constant, or by f * conj(f) for f with
    f(0) != 0, leaves the result unchanged.
    """
    c = h.constant_term()
    if c <= 0:
        raise SingularityError(
            f"scalar metric must be positive at the base point, got {c}")
    hij = mixed_hessian(h, i, j)
    zero = (0,) * h.npairs
    hi = coefficient(h, unit(h.npairs, i), zero)
    hj = coefficient(h, zero, unit(h.npairs, j))
    return (c * hij - hi * hj) / (c * c)


def nullspace(A):
    """Basis of the right nullspace of A, as a list of column vectors.

    One vector per free column of the echelon form, in increasing column
    order: 1 at that column and 0 at every other free column, so the basis
    is deterministic.
    """
    M = [[rat(x) for x in row] for row in A]
    if not M:
        return []
    ncols = len(M[0])
    echelon = RowEchelon()
    for row in M:
        echelon.add(cleared_row(dict(enumerate(row))))
    free = [c for c in range(ncols) if c not in echelon.rows]
    return [[Fraction(G.get(c, 0), D) for c in range(ncols)]
            for G, D in map(echelon.null_vector, free)]


def cleared_row(row: dict) -> dict:
    """A rational row {column: value} as the integer row that RowEchelon
    takes: cleared by linalg._common_denominator, zeros dropped; a fresh
    dict, which add may keep or reduce."""
    ints, _ = _common_denominator(list(row.values()))
    return {c: x for c, x in zip(row, ints) if x}


def hardy(dim: int) -> WeightedPolydiscModule:
    """The Hardy module: every weight 1."""
    return WeightedPolydiscModule(dim, (Fraction(1),) * dim)


def coordinate_powers(nvars: int, powers) -> IdealSpec:
    """<z_1^{i_1}, ..., z_t^{i_t}> with powers = (i_1, ..., i_t), t <= m."""
    powers = exponent(powers)
    if not 1 <= len(powers) <= nvars:
        raise DomainError("need between 1 and nvars coordinate powers")
    if any(p < 1 for p in powers):
        raise DomainError("coordinate powers must be >= 1")
    gens = tuple(Poly.monomial(nvars, unit(nvars, k, p))
                 for k, p in enumerate(powers))
    return IdealSpec(nvars, gens)


@dataclass(frozen=True)
class CoordinateSubspace:
    """{z : z_i = 0 for i in vanishing}; indices are 0-based."""
    nvars: int
    vanishing: frozenset

    def contains(self, point) -> bool:
        pt = [rat(x) for x in point]
        return all(pt[i] == 0 for i in self.vanishing)


@dataclass(frozen=True)
class PointSet:
    """A single point of the polydisc."""
    coords: tuple

    def contains(self, point) -> bool:
        pt = tuple(rat(x) for x in point)
        return pt == self.coords


def zero_set(ideal: IdealSpec) -> CoordinateSubspace | PointSet:
    """Hand-written zero-set descriptor of a point ideal, a catalogued
    ideal, or a monomial ideal whose every generator is a power of one
    variable (the zero set is then a coordinate subspace); the reference
    for IdealSpec.vanishes_at.  A mixed monomial generator has a
    reducible zero set that no descriptor represents, so it is rejected
    rather than guessed, as are general ideals."""
    if ideal.family == COORDINATE_VANISHING:
        return PointSet(ideal.point)
    if ideal.family == CATALOGUED:
        # the one catalogue ideal, product_difference: z1 z2 = 0 and
        # z1 = z2 force z1 = z2 = 0
        assert list(CATALOGUE) == ["product_difference"]
        return CoordinateSubspace(ideal.nvars, frozenset({0, 1}))
    if ideal.family == MONOMIAL:
        vanishing = set()
        for g in ideal.generators:
            support = [i for i, x in enumerate(g.monomial_exponent()) if x]
            if len(support) != 1:
                raise UnsupportedIdealError(
                    f"zero set of mixed monomial generator {g} is a union "
                    "of coordinate subspaces")
            vanishing.add(support[0])
        return CoordinateSubspace(ideal.nvars, frozenset(vanishing))
    raise UnsupportedIdealError(
        "no exact zero-set computation for general ideals")


def codim(zero: CoordinateSubspace | PointSet) -> int:
    """Codimension of a zero-set descriptor: its vanishing coordinates, or
    every coordinate of a point."""
    if isinstance(zero, PointSet):
        return len(zero.coords)
    return len(zero.vanishing)


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
    c = codim(zero_set(ideal))
    t = len(ideal.generators)
    status = "minimal_by_codim" if c == t else "hypothesis_fails"
    return MinimalityCertificate(status, c, t)


def _check_square_rational(A, size=None):
    M = [[rat(x) for x in row] for row in A]
    n = len(M)
    if any(len(r) != n for r in M):
        raise ShapeError("gauge matrix must be square")
    if size is not None and n != size:
        raise ShapeError(f"gauge matrix must be {size}x{size}, got {n}x{n}")
    if mat_det(M) == 0:
        raise SingularityError("gauge matrix is not invertible")
    return M


def gauge_transform_metric(metric: MetricSeries, A) -> MetricSeries:
    """Metric of the re-combined frame F' = F A:  H' = A* H A.

    A has rational (hence real) entries, so A* is the transpose.
    """
    if metric.scale is not None:
        raise DomainError("metric carries an irrational symbolic scale; "
                          "a gauge transformation needs rational entries")
    Hf = metric.matrix
    t = Hf.n
    M = _check_square_rational(A, t)
    rows = []
    for i in range(t):
        row = []
        for j in range(t):
            acc = TruncSeries.zero(Hf.npairs, Hf.trunc)
            for k in range(t):
                for l in range(t):
                    c = M[k][i] * M[l][j]
                    if c != 0:
                        acc = acc + Hf.entries[k][l].scale(c)
            row.append(acc)
        rows.append(row)
    return metric_from_series(SeriesMatrix(rows))


def metric_from_series(H: SeriesMatrix, scale=None) -> MetricSeries:
    """The MetricSeries whose matrix is H, for metrics the tests build by
    hand: each entry's keys in graded-lex order, each coefficient as its
    (numerator, denominator) pair, and its text str() of the series."""
    def entry(s):
        keys = tuple(sorted(s.coeffs, key=lambda k: (sum(k), k)))
        return keys, [s.coeffs[k].as_integer_ratio() for k in keys]
    return MetricSeries(
        tuple(tuple(map(entry, row)) for row in H.entries),
        tuple(tuple(map(str, row)) for row in H.entries),
        H.npairs, H.trunc, scale)


def gauge_conjugate(K: CurvatureTensor, A) -> CurvatureTensor:
    """Curvature of the gauge-transformed frame: every block goes to
    A^{-1} block A."""
    M = _check_square_rational(A, K.size)
    Minv = mat_inverse(M)
    blocks = tuple(tuple(tuple(map(tuple, mat_mul(mat_mul(Minv, block), M)))
                         for block in row) for row in K.blocks)
    return CurvatureTensor(K.size, blocks)


def gauge_equivalent(K1: CurvatureTensor, K2: CurvatureTensor):
    """Invertible rational A with A^{-1} K1 A = K2 blockwise, or None.

    The intertwining equations K1_b A = A K2_b are linear in A; an
    invertible element of their solution space is found, when one exists, by
    expanding the determinant of a generic combination as an exact
    polynomial and scanning a small deterministic grid (a nonzero polynomial
    of per-variable degree <= t cannot vanish on a grid with t+1 values per
    variable).
    """
    if K1.size != K2.size or len(K1.blocks) != len(K2.blocks):
        raise ShapeError("curvature tensors have different shapes")
    t = K1.size
    rows = []
    for i in range(len(K1.blocks)):
        for j in range(len(K1.blocks[i])):
            B1 = K1.blocks[i][j]
            B2 = K2.blocks[i][j]
            for r in range(t):
                for c in range(t):
                    row = [Fraction(0)] * (t * t)
                    for s in range(t):
                        row[s * t + c] += B1[r][s]
                        row[r * t + s] -= B2[s][c]
                    rows.append(row)
    if not rows:
        raise ShapeError("curvature tensors carry no blocks")
    basis = nullspace(rows)
    if not basis:
        return None
    r = len(basis)
    # det of sum x_i X_i as an exact polynomial in x_1..x_r
    entries = [[Poly(r) for _ in range(t)] for _ in range(t)]
    for idx, vec in enumerate(basis):
        xi = Poly.variable(r, idx)
        for a in range(t):
            for b in range(t):
                if vec[a * t + b] != 0:
                    entries[a][b] = entries[a][b] + xi * vec[a * t + b]
    detp = cofactor_det(entries)
    if detp.is_zero():
        return None
    for point in itertools.product(range(t + 1), repeat=r):
        if evaluate_poly(detp, [Fraction(x) for x in point]) != 0:
            A = [[Fraction(0)] * t for _ in range(t)]
            for idx, vec in enumerate(basis):
                if point[idx]:
                    for a in range(t):
                        for b in range(t):
                            A[a][b] += point[idx] * vec[a * t + b]
            return tuple(tuple(row) for row in A)
    return None  # unreachable for nonzero detp by the grid argument


def full_reconstruction_residual(frame: FrameSeries) -> dict:
    """The reconstruction residual by full series products: per kernel term
    alpha, sum_k ub_v^p F^k[alpha] minus c_alpha P(alpha), read from the
    frame vectors and the frame's table of recentered conjugate monomials.
    The same contract as frames.reconstruction_residual: only the nonzero
    residual series are returned."""
    m = frame.module.dim
    D = frame.trunc
    # conj(p_k)(base + u) = ub_v^p since the base vanishes there
    pbar = [TruncSeries.wbar(m, D, v, p)
            for v, p in zip(frame.gen_vars, frame.gen_powers)]
    vectors = frame.vectors
    residuals = {}
    for alpha, monomial in frame.recentered_monomials.items():
        if not any(alpha[v] >= p
                   for v, p in zip(frame.gen_vars, frame.gen_powers)):
            continue
        lhs = TruncSeries.zero(m, D)
        for k in range(frame.count):
            fk = vectors[k].get(alpha)
            if fk is not None:
                lhs = lhs + pbar[k] * fk
        diff = lhs - monomial.scale(diag_coeff(frame.module, alpha))
        if not diff.is_zero():
            residuals[alpha] = diff
    return residuals


def recentered_inverse_power(m, trunc, slot, center, weight) -> TruncSeries:
    """(1 - w w_bar)^(-weight) recentered at a real rational center,
    normalized by its value there, by Horner's scheme: the series of
    (1 - v)^(-weight) with v = (c*u + c*ub + u*ub) / (1 - c^2)."""
    c = Fraction(center)
    u = series_w(m, trunc, slot)
    ub = TruncSeries.wbar(m, trunc, slot)
    v = (u.scale(c) + ub.scale(c) + u * ub).scale(1 / (1 - c * c))
    acc = TruncSeries.constant(m, trunc, pochhammer(weight, trunc)
                               / math.factorial(trunc))
    for n in range(trunc - 1, -1, -1):
        acc = TruncSeries.constant(m, trunc,
                                   pochhammer(weight, n) / math.factorial(n)) \
            + v * acc
    return acc


@dataclass(frozen=True)
class PowerProduct:
    """Product of positive rational bases raised to rational exponents.

    Keeps quantities like (1 - |w|^2)^(-3/2) exact without evaluating the
    irrational power.  Factors with base 1 or exponent 0 are dropped.  The
    reference for the zero-set metric's scale: its text is the scale's.
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


def frame_vector_at_base(frame: FrameSeries, k: int) -> dict:
    """z-exponent -> Fraction coefficient of F^k frozen at the base point."""
    out = {}
    for a, s in frame.vectors[k].items():
        c = s.constant_term()
        if c != 0:
            out[a] = c
    return out


# ---------------------------------------------------------------------------
# Replaced exact routes: the references for the integer fast paths


def metric_by_fraction_shares(frame: FrameSeries) -> SeriesMatrix:
    """The coordinate-neighborhood Grammian that
    frames._metric_by_monomial_sum replaced: the same sum over the kernel
    terms with each share l_k a_k / sum_j l_j a_j a Fraction of the
    weights, c_a a product of Fractions, and every term s_i s_j c_a
    multiplied out in Fractions; the keys go in in the same order."""
    module = frame.module
    m = module.dim
    weights = module.weights
    terms = [[{} for _ in range(m)] for _ in range(m)]
    top = frame.trunc // 2 + 1
    slots = diag_coeff_slots(module, top)
    for a in iter_multiindices(m, top):
        support = [k for k in range(m) if a[k]]
        denom = sum(weights[k] * a[k] for k in support)
        c = math.prod(slots[k][a[k]] for k in support)
        shares = {k: weights[k] * a[k] / denom for k in support}
        downs = {k: tuple(e - (q == k) for q, e in enumerate(a))
                 for k in support}
        for x, i in enumerate(support):
            ci = shares[i] * c
            for j in support[x:]:
                v = ci * shares[j]
                terms[i][j][downs[i] + downs[j]] = v
                terms[j][i][downs[j] + downs[i]] = v
    return SeriesMatrix([[TruncSeries._trusted(m, frame.trunc, t)
                          for t in row] for row in terms])


def coordinate_tensor_by_fraction_shares(frame: FrameSeries) -> tuple:
    """The coordinate blocks that curvature.curvature_tensor replaced:
    block (k, q) has entry (i, j) s_i(a) s_j(a) c_a / l_i for
    a = e_i + e_k = e_j + e_q, with Fraction shares and weights, and 0
    where no such a exists."""
    module = frame.module
    m = module.dim
    t = frame.count
    weights = module.weights
    blocks = [[[[Fraction(0)] * t for _ in range(t)] for _ in range(m)]
              for _ in range(m)]
    slots = diag_coeff_slots(module, 2)
    for a in iter_multiindices(m, 2, 2):
        support = [k for k in range(m) if a[k]]
        denom = sum(weights[k] * a[k] for k in support)
        c = math.prod(slots[k][a[k]] for k in support)
        pairs = [(i, next(k for k in support if a[k] - (k == i)),
                  weights[i] * a[i] / denom) for i in support]
        for i, k, si in pairs:
            for j, q, sj in pairs:
                blocks[k][q][i][j] = si * sj * c / weights[i]
    return tuple(tuple(tuple(tuple(row) for row in block) for block in brow)
                 for brow in blocks)


def coordinate_terms_by_enumeration(frame: FrameSeries, low: int, top: int):
    """The frames.coordinate_terms walk that the cached exponent tuple and
    the one integer pass replaced: the exponents enumerated on every call,
    share_numerators per exponent, and num and den as two math.prod
    generators over its parts."""
    gens, _ = share_generators(frame)
    slots = diag_coeff_slots(frame.module, top)
    nums = [[c.numerator for c in row] for row in slots]
    dens = [[c.denominator for c in row] for row in slots]
    for a in multiindices_by_recursion(frame.module.dim, top, low):
        parts, denom = share_numerators(gens, a)
        num = math.prod(nums[v][a[v]] for _, v, _, _ in parts)
        den = math.prod(dens[v][a[v]] for _, v, _, _ in parts) * denom * denom
        yield num, den, [(k, x, a[:v] + (a[v] - 1,) + a[v + 1:])
                         for k, v, _, x in parts]


def coordinate_power_data_by_pair_scan(ideal: IdealSpec) -> list:
    """The zero-set frame data that IdealSpec.coordinate_powers reads in
    one pass: (var, power) per minimal generator, sorted, found by testing
    every distinct exponent against every other for divisibility.  A
    constant generator raises first, the first one named; then the first
    undivided exponent that mixes variables raises."""
    if ideal.family != MONOMIAL:
        raise UnsupportedIdealError(
            "zero-set frames need a monomial ideal of coordinate powers")
    gens = {}
    for g in ideal.generators:
        e = g.monomial_exponent()
        if not any(e):
            raise UnsupportedIdealError(
                f"generator {g} is a constant, so the ideal is the whole "
                "ring; no zero-set frame")
        gens.setdefault(e, g)
    data = []
    for e, g in gens.items():
        if any(f != e and all(a <= b for a, b in zip(f, e)) for f in gens):
            continue
        support = [i for i, x in enumerate(e) if x > 0]
        if len(support) != 1:
            raise UnsupportedIdealError(
                f"generator {g} mixes variables; no closed-form frame")
        data.append((support[0], e[support[0]]))
    return sorted(data)


def trace_by_fraction_sum(block) -> Fraction:
    """The curvature block trace that one Fraction over the lcm of the
    denominators replaced: the nonzero diagonal entries added pairwise."""
    diagonal = [row[k] for k, row in enumerate(block) if row[k]]
    return sum(diagonal[1:], diagonal[0]) if diagonal else Fraction(0)


def lambda_mu_equivalent(lam1, mu1, lam2, mu2) -> bool:
    """Whether the two weighted bidisc modules have matching coordinate-ideal
    curvature invariants (as an ordered pair): the decision the compare
    task's equivalent row made by this call, which computed both pairs
    again after the task had computed them for its rows."""
    a = lambda_mu_invariants(lam1, mu1)
    b = lambda_mu_invariants(lam2, mu2)
    return a.as_pair() == b.as_pair()


def module_weights_by_rat(dim, weights) -> tuple:
    """The weights WeightedPolydiscModule kept, and the errors it raised,
    before it kept a tuple of Fractions as it is and read each sign from
    the numerator: rat on every weight, then a Fraction comparison with 0."""
    if dim < 1:
        raise DomainError(f"polydisc dimension must be >= 1, got {dim}")
    ws = tuple(rat(x) for x in weights)
    if len(ws) != dim:
        raise DomainError(f"need {dim} weights, got {len(ws)}")
    if any(w <= 0 for w in ws):
        raise DomainError(f"weights must be positive, got {ws}")
    return ws


def polydisc_rigidity_report_by_modules(weights1, exponents, weights2,
                                        gen_vars=None) -> RigidityReport:
    """invariants.polydisc_rigidity_report as it checked both weight
    vectors, by building a WeightedPolydiscModule of each, before the
    battery read checked weights."""
    w1 = tuple(rat(x) for x in weights1)
    w2 = tuple(rat(x) for x in weights2)
    m = len(w1)
    if len(w2) != m:
        raise DomainError("weight vectors must share the dimension")
    exponents = exponent(exponents)
    if len(exponents) >= m:
        raise DomainError(
            "the battery needs a transverse direction: fewer exponents "
            "than variables")
    if not exponents or min(exponents) < 1:
        raise DomainError(f"need one or more generator exponents, each >= 1, "
                          f"got {exponents}")
    gen_vars = tuple(range(len(exponents)) if gen_vars is None else gen_vars)
    if len(gen_vars) != len(exponents):
        raise DomainError(f"need one generator variable per exponent, got "
                          f"{len(gen_vars)} for {len(exponents)} exponents")
    if not all(isinstance(v, int) and 0 <= v < m for v in gen_vars):
        raise DomainError(f"generator variables must be integers in "
                          f"0..{m - 1}, got {gen_vars}")
    if len(set(gen_vars)) != len(gen_vars):
        raise UnsupportedIdealError(
            "two generators share a variable; the generating set is redundant")
    data = sorted(zip(gen_vars, exponents))
    left = _curvature_battery(WeightedPolydiscModule(m, w1).weights, data)
    right = _curvature_battery(WeightedPolydiscModule(m, w2).weights, data)
    names = tuple(name for name, _ in left)
    equivalent = [v for _, v in left] == [v for _, v in right]
    return RigidityReport(equivalent, left, right, names)


def lambda_mu_by_fractions(lam, mu) -> tuple:
    """The (kappa_1, kappa_2) that invariants.lambda_mu_invariants formed
    before it wrote each as one Fraction of integers:
    (lam + 1)/2 + lam mu^2/(lam + mu)^2 and (mu + 1)/2 + lam^2 mu/(lam + mu)^2
    in Fraction arithmetic."""
    lam, mu = rat(lam), rat(mu)
    s2 = (lam + mu) ** 2
    return ((lam + 1) / 2 + lam * mu ** 2 / s2,
            (mu + 1) / 2 + lam ** 2 * mu / s2)


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__",
                      "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                      "__pow__", "__rpow__", "__neg__", "__abs__", "__lt__",
                      "__le__", "__gt__", "__ge__")


def forbid_fraction_arithmetic(monkeypatch):
    """Make every arithmetic and order operator of Fraction raise, so that a
    call that still runs forms its values from integers alone; reading
    numerator and denominator, testing truth and Fraction(n, d) still
    work.  monkeypatch.undo() restores them."""
    def refuse(*args):
        raise AssertionError("Fraction arithmetic")
    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, refuse)


def matrix_rows_by_fstring(name: str, rows) -> list:
    """The Report.add_matrix rows before the names were cached per shape:
    one f"{name}_{i}{j}" formatted per entry."""
    return [(f"{name}_{i}{j}", value)
            for i, row in enumerate(rows, 1)
            for j, value in enumerate(row, 1)]


def diagonal_tail_bound_by_fractions(total_weight: Fraction, rho: Fraction,
                                     N: int) -> Fraction:
    """The remainder bound that rkhs._diagonal_tail_bound writes in
    integers, in Fractions: exact terms poch(L, n)/n! rho^n are summed while
    the ratio rho (L + n)/(n + 1) is at least 1, and the tail closes as a
    geometric series in the largest ratio still to come, which is the
    current one for L >= 1 (the ratios fall) and rho for L < 1 (they rise
    toward rho)."""
    if rho == 0:
        return Fraction(0)
    if not 0 < rho < 1:
        raise DomainError(f"tail bound needs 0 <= rho < 1, got {rho}")
    n = N + 1
    term = pochhammer(total_weight, n) / math.factorial(n) * rho ** n
    if total_weight < 1:
        return term / (1 - rho)
    total = Fraction(0)
    while True:
        ratio = rho * (total_weight + n) / (n + 1)
        if ratio < 1:
            return total + term / (1 - ratio)
        total += term
        term *= ratio
        n += 1


def ambient_kernel_exact(module: WeightedPolydiscModule, z, w) -> Fraction:
    """prod (1 - z_i w_i)^(-l_i) at real rational points, integer weights
    only, as a product of Fraction powers: the reference for the integer
    closed form rkhs._diagonal_exact at the ambient corner 0."""
    z = _check_point(module, z, "z")
    w = _check_point(module, w, "w")
    if not module.has_integer_weights():
        raise DomainError("closed-form ambient kernel needs integer weights")
    out = Fraction(1)
    for l, zi, wi in zip(module.weights, z, w):
        out *= (1 - zi * wi) ** (-int(l))
    return out


def filtered_kernel_by_corner_loop(kernel: DiagonalFilteredKernel, z,
                                   w) -> Fraction:
    """DiagonalFilteredKernel.eval_exact one corner at a time: for every
    corner and slot, the head sum_{a < g} poch(l, a)/a! x^a by the ratio
    recurrence in Fractions, subtracted from (1 - x)^(-l)."""
    x = [rat(zi) * rat(wi) for zi, wi in zip(z, w)]
    total = Fraction(0)
    for gamma, sign in kernel.corners:
        term = Fraction(1)
        for l, xi, g in zip(kernel.module.weights, x, gamma):
            head, c = Fraction(0), Fraction(1)
            for a in range(g):
                head += c
                c = c * (l + a) * xi / (a + 1)
            term *= (1 - xi) ** (-int(l)) - head
        total += sign * term
    return total


def rank_one_by_four_calls(kernel: RankOneCorrectedKernel, z, w, N=None):
    """K(z, w) - K(z, a) K(a, w) / K(a, a) with four ambient evaluations,
    all made: the closed form when N is None, else the Bounded degree-N
    sums."""
    module, a = kernel.module, kernel.point
    z, w = tuple(map(rat, z)), tuple(map(rat, w))
    if N is None:
        def K(x, y):
            return ambient_kernel_exact(module, x, y)
    else:
        def K(x, y):
            return ambient_kernel_bounded(module, x, y, N)
    return K(z, w) - K(z, a) * K(a, w) / K(a, a)


def inverse_form(factor: BareissFactor, u, v) -> Fraction:
    """u^T A^{-1} v for the factored A, as u . X over d for (X, d) =
    factor.solve(v): the one Fraction the Gram form's blocks formed before
    eval_exact kept them as integers to its close."""
    X, d = factor.solve(v)
    if len(u) != len(X):
        raise ShapeError("vector has wrong length")
    U, gamma = _common_denominator([rat(x) for x in u])
    return Fraction(sum(a * b for a, b in zip(U, X)), d * gamma)


def gram_complement(K: GramFormKernel) -> list:
    """The complement f of a GramFormKernel as polynomials, from its
    integers: f_j has coefficient F_j[a] / (den D_j) at z^a."""
    return [Poly(K.module.dim, {a: Fraction(x, K.den * D) for a, x in F})
            for F, D in zip(K.terms, K.scales)]


def gram_blocks(K: GramFormKernel) -> list:
    """((indices, H_c), ...) of a GramFormKernel as Fraction matrices, from
    its integer blocks: H_jk = M_jk / (den D_j D_k)."""
    D = K.scales
    return [(block, [[Fraction(x, K.den * D[j] * D[k])
                      for k, x in zip(block, row)]
                     for j, row in zip(block, M)])
            for block, M in K.gram]


def parse_poly_by_poly_arithmetic(text: str, nvars: int) -> Poly:
    """The parse that polynomials.parse_poly replaced, on the same grammar
    and tokenizer: every atom is built through Poly.constant or
    Poly.variable, a leading sign multiplies the first term by -1 or 1,
    and a power multiplies up from the constant 1."""
    tk = _Tokenizer(text, nvars)

    def power(base: Poly, n: int) -> Poly:
        out = Poly.constant(nvars, 1)
        for _ in range(n):
            out = out * base
        return out

    def parse_expr() -> Poly:
        sign = 1
        c = tk.peek()
        if c in "+-":
            tk.pos += 1
            sign = -1 if c == "-" else 1
        out = parse_term() * sign
        while True:
            c = tk.peek()
            if c == "+":
                tk.pos += 1
                out = out + parse_term()
            elif c == "-":
                tk.pos += 1
                out = out - parse_term()
            else:
                return out

    def parse_term() -> Poly:
        out = parse_factor()
        while True:
            c = tk.peek()
            if c == "*":
                tk.pos += 1
                out = out * parse_factor()
            elif c.isdigit() or c == "z" or c == "(":
                out = out * parse_factor()
            else:
                return out

    def parse_factor() -> Poly:
        base = parse_atom()
        c = tk.peek()
        if c == "^":
            tk.pos += 1
            return power(base, tk.take_int())
        if c == "*" and tk.text[tk.pos:tk.pos + 2] == "**":
            tk.pos += 2
            return power(base, tk.take_int())
        return base

    def parse_atom() -> Poly:
        c = tk.peek()
        if c == "(":
            tk.pos += 1
            inner = parse_expr()
            if tk.peek() != ")":
                raise tk.error("expected ')'")
            tk.pos += 1
            return inner
        if c.isdigit():
            return Poly.constant(nvars, tk.take_number())
        if c == "z":
            tk.pos += 1
            start = tk.pos
            while tk.pos < len(tk.text) and tk.text[tk.pos].isdigit():
                tk.pos += 1
            if start == tk.pos:
                raise tk.error("expected a variable index after 'z'")
            idx = int(tk.text[start:tk.pos])
            if not 1 <= idx <= nvars:
                raise InputError(
                    f"variable z{idx} out of range for {nvars} variables",
                    column=start)
            return Poly.variable(nvars, idx - 1)
        if c == "":
            raise tk.error("unexpected end of input")
        raise tk.error(f"unexpected character {c!r}")

    result = parse_expr()
    if tk.peek() != "":
        raise tk.error(f"trailing input {tk.text[tk.pos:]!r}")
    return result


def centre_by_eval_terms(g: Poly, point) -> Poly:
    """The centring g(w + x) that the two-span localization route uses and
    ideals.localization_dim no longer needs, by evaluating g's terms at the
    polynomials x_i + w_i with Poly products (Poly(m) + keeps a constant
    generator a Poly)."""
    m = g.nvars
    xs = [Poly.variable(m, i) + rat(w) for i, w in enumerate(point)]
    return Poly(m) + eval_terms(g.coeffs, xs)


def format_terms_by_fraction_str(coeffs: dict, names) -> str:
    """The format_terms that the integer route replaced: each coefficient
    written by str(Fraction) and compared as text with "1" and "-1", each
    monomial's factor text built again for every term."""
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


def parse_rational_by_fraction_str(text: str, fieldname: str) -> Fraction:
    """The rational parse of cli._parse_rational without its memo: every
    spelling through Fraction(str), and a value that str() cannot write
    (more digits than sys.get_int_max_str_digits()) refused as it is."""
    try:
        value = Fraction(text.strip())
        str(value)
        return value
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"not a rational number: {text.strip()!r} ({e})",
                         field=fieldname)


def parse_vector_by_fraction_str(text: str, fieldname: str) -> tuple:
    parts = text.replace(",", " ").split()
    if not parts:
        raise InputError("empty vector", field=fieldname)
    return tuple(parse_rational_by_fraction_str(p, fieldname) for p in parts)


def _parse_points(text: str, fieldname: str) -> tuple:
    return tuple(parse_vector_by_fraction_str(chunk, fieldname)
                 for chunk in text.split(";") if chunk.strip())


def _parse_int(text: str, fieldname: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise InputError(f"not an integer: {text.strip()!r}", field=fieldname)


def _parse_name(text: str, fieldname: str) -> str:
    return text.strip()


def _parse_generators(text: str, fieldname: str) -> tuple:
    return tuple(g.strip() for g in text.split(",") if g.strip())


def _parse_catalogue(text: str, fieldname: str) -> str:
    name = text.strip()
    if name not in CATALOGUE:
        raise InputError(f"unknown catalogue ideal {name!r}; known: "
                         f"{', '.join(sorted(CATALOGUE))}", field=fieldname)
    return name


def _checked(parse, ok, message):
    """parse, then reject a value for which ok(value) is false."""
    def parser(text, fieldname):
        value = parse(text, fieldname)
        if not ok(value):
            raise InputError(message, field=fieldname)
        return value
    return parser


def _positive(vector) -> bool:
    return all(x > 0 for x in vector)


# cli.SCHEMA as it was before each parser checked its own value and wrote
# its echo: one parser per key, a _checked closure around those that check
SCHEMA_OF_CHECKED_PARSERS = {
    "module": {
        "dimension": _checked(_parse_int, lambda n: n >= 1,
                              "dimension must be >= 1"),
        "weights": _checked(parse_vector_by_fraction_str, _positive,
                            "weights must be positive"),
    },
    "ideal": {
        "generators": _checked(_parse_generators, bool,
                               "empty generator list"),
        "catalogue": _parse_catalogue,
    },
    "task": {
        "name": _parse_name,
        "points": _parse_points,
        "base_point": parse_vector_by_fraction_str,
        "trunc_degree": _parse_int,
        "ideal_degree": _parse_int,
        "alpha": parse_rational_by_fraction_str,
        "compare_weights": _checked(parse_vector_by_fraction_str, _positive,
                                    "compare_weights must be positive"),
        "output": _parse_name,
    },
}


def parse_sections_by_schema_walk(sections, args=None) -> JobConfig:
    """The checks parse_config made before it parsed only the keys given:
    every SCHEMA_OF_CHECKED_PARSERS entry of a section walked in order,
    over sections read from a config text (section -> {key: value})."""
    for section in sections:
        if section not in SCHEMA_OF_CHECKED_PARSERS:
            raise InputError(f"unknown section [{section}]", field=section)

    fields = {}
    for section, parsers in SCHEMA_OF_CHECKED_PARSERS.items():
        sec = sections.get(section)
        if not sec:
            continue
        for key in sec:
            if key not in parsers:
                raise InputError(f"unknown key {key!r} in [{section}]",
                                 field=key)
        if "catalogue" in sec and "generators" in sec:
            raise InputError("give either generators or a catalogue name, "
                             "not both", field="ideal")
        for key, parse in parsers.items():
            if key in sec:
                fields[key] = parse(sec[key], f"{section}.{key}")
        if ("dimension" in fields) != ("weights" in fields):
            raise InputError("[module] needs both dimension and weights",
                             field="module")
        if len(fields.get("weights", ())) != fields.get("dimension", 0):
            raise InputError(
                f"got {len(fields['weights'])} weights for dimension "
                f"{fields['dimension']}", field="module.weights")
        for key, message in (
                ("compare_weights", "compare_weights must match the dimension"),
                ("base_point", "base point arity does not match dimension")):
            if ("dimension" in fields and key in fields
                    and len(fields[key]) != fields["dimension"]):
                raise InputError(message, field=f"task.{key}")

    task = fields.pop("name", None)
    if task is None:
        raise InputError("missing task name ([task] name = ...)",
                         field="task.name")
    if task not in TASKS:
        raise InputError(f"unknown task {task!r}; choose from "
                         f"{', '.join(TASKS)}", field="task.name")
    labels = {key: f"task.{key}"
              for key in SCHEMA_OF_CHECKED_PARSERS["task"]}
    if args is not None:
        task = args.task
        flags = {"output": args.output, "trunc_degree": args.trunc_degree,
                 "ideal_degree": args.ideal_degree}
        if args.point is not None:
            point_tasks = [name for name in TASKS
                           if "points" in TASKS[name].reads]
            if task not in point_tasks:
                raise InputError(
                    f"task {task!r} reads no points; --point applies "
                    f"only to the {' and '.join(point_tasks)} tasks",
                    field="--point")
            flags["points"] = (parse_vector_by_fraction_str(args.point,
                                                            "--point"),)
        for key, value in flags.items():
            if value is not None:
                fields[key] = value
                labels[key] = FLAG_LABELS[key]
    _check_fields(fields, labels)
    return JobConfig(task=task, **fields)


def parse_config_by_schema_walk(text: str, args=None) -> JobConfig:
    """The reference for parse_config's checks: cli's read of the text,
    then the schema walk of parse_sections_by_schema_walk."""
    return parse_sections_by_schema_walk(_read_config(text), args)


@functools.cache
def _config_reader() -> configparser.ConfigParser:
    """The config reader, built on the first parse_config call and reused
    by every later one: building one costs more than a job's read."""
    # ';' separates points, so only '#' opens an inline comment; a line
    # that starts with ';' is still a comment.  Values are read verbatim:
    # with interpolation a '%' would raise while the value is read
    return configparser.ConfigParser(inline_comment_prefixes=("#",),
                                     interpolation=None)


def parse_config_by_configparser(text: str, args=None) -> JobConfig:
    """The reference for parse_config: the schema walk over a
    ConfigParser's read of the text, with configparser's own default
    section.  That reader spreads a [DEFAULT] section over the others,
    where parse_config's reads it as an ordinary section and refuses it
    as unknown, so the two agree on texts without one.

    Every call empties and reuses the process's one config reader, so
    calls must not run in concurrent threads.
    """
    cp = _config_reader()
    # clear() keeps [DEFAULT]; emptying first also drops what a read that
    # raised part-way left behind
    cp.clear()
    cp.defaults().clear()
    try:
        cp.read_string(text)
    except configparser.ParsingError as e:
        line = e.errors[0][0] if getattr(e, "errors", None) else None
        raise InputError(f"config syntax: {e.message.splitlines()[0]}",
                         line=line)
    except configparser.Error as e:
        raise InputError(f"config syntax: {e}")
    # each section read once: its own keys first, then [DEFAULT]'s
    return parse_sections_by_schema_walk(
        {section: {key: cp.get(section, key) for key in cp.options(section)}
         for section in cp.sections()}, args)


def sections_by_configparser(text):
    """configparser's read of the text as a section -> {key: value} view,
    or its error: the reference for cli._read_plain_config."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        return type(e), str(e)
    return {section: {key: cp.get(section, key)
                      for key in cp.options(section)}
            for section in cp.sections()}


def _echo_value(value):
    if type(value) is tuple:
        return [_echo_value(v) for v in value]
    return str(value) if type(value) is Fraction else value


def input_echo_by_fraction_str(cfg: JobConfig) -> dict:
    """The report's input section as cli._input_echo wrote it before the
    echo came from the text: str() of every Fraction, tuples as lists."""
    return {key: _echo_value(value)
            for key, value in zip(cfg._fields, cfg._values())
            if key != "output" and value not in (None, ())}


def render_value_by_recursion(value):
    if type(value) is str:
        return value
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(render_value_by_recursion(v)
                               for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {render_value_by_recursion(v)}"
                               for k, v in sorted(value.items())) + "}"
    return str(value)


def render_text_by_recursion(report: Report) -> str:
    """cli.render_report's text report as each echo and diagnostics row's
    render_value_by_recursion, line by line."""
    lines = [f"task: {report.task}", "input:"]
    for k in sorted(report.input_echo):
        lines.append(f"  {k} = "
                     f"{render_value_by_recursion(report.input_echo[k])}")
    lines.append("results:")
    lines += ["  %s = %s" % (name, render_value_by_recursion(value))
              for name, value in report.results]
    lines.append("diagnostics:")
    for k in sorted(report.diagnostics):
        lines.append(f"  {k} = "
                     f"{render_value_by_recursion(report.diagnostics[k])}")
    lines.append(f"convention: {CONVENTION}")
    return "\n".join(lines) + "\n"


def is_hermitian_by_pair_loop(matrix: SeriesMatrix) -> bool:
    """Whether entry (i, j) of a series matrix is the conjugate of entry
    (j, i): a length test, then each coefficient of (j, i) looked up at the
    key-swapped monomial of (i, j).  Both Grammian builders write H_ji as
    the key-swapped H_ij, so frames.grammian does not check it."""
    m = matrix.npairs
    for i in range(matrix.n):
        for j in range(i, matrix.n):
            a = matrix.entries[i][j].coeffs
            b = matrix.entries[j][i].coeffs
            if len(a) != len(b) or any(a.get(k[m:] + k[:m]) != v
                                       for k, v in b.items()):
                return False
    return True


def _rref(M):
    """Reduced row echelon form over Fraction, the Gauss-Jordan elimination
    that linalg's solves and inverses used before its one pivoting
    Bareiss sweep; returns (rref, pivot columns)."""
    R = [row[:] for row in M]
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if R[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        R[row], R[piv] = R[piv], R[row]
        inv = Fraction(1) / R[row][col]
        R[row] = [x * inv for x in R[row]]
        for r in range(nrows):
            if r != row and R[r][col] != 0:
                f = R[r][col]
                R[r] = [a - f * b for a, b in zip(R[r], R[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return R, pivots


class FractionRowEchelon:
    """The Fraction echelon form that linalg.RowEchelon replaced: every kept
    row is scaled so that its smallest column holds 1, and a new row is
    reduced by the rows leading at its successive smallest columns."""

    def __init__(self):
        self.rows = {}  # leading column -> row

    def add(self, row) -> bool:
        r = {c: Fraction(x) for c, x in row.items() if x}
        while r:
            lead = min(r)
            pivot_row = self.rows.get(lead)
            if pivot_row is None:
                inv = 1 / r[lead]
                self.rows[lead] = {c: x * inv for c, x in r.items()}
                return True
            f = r[lead]
            for c, x in pivot_row.items():
                rest = r.get(c, 0) - f * x
                if rest:
                    r[c] = rest
                else:
                    del r[c]
        return False


def localization_dim_two_spans(ideal: IdealSpec, point,
                               max_degree: int = 8) -> LocalizationResult:
    """The localization route that ideals.localization_dim replaced: every
    multiple x^beta q_j goes into J_N, those with |beta| >= 1 also into
    J'_N, two Fraction echelon forms keyed by exponent tuples, and
    d_N = rank J_N - rank J'_N, with the same checks and stopping rule."""
    m = ideal.nvars
    w = [rat(x) for x in point]
    if len(w) != m:
        raise DomainError(
            f"point has arity {len(w)}, ideal lives in {m} variables")
    dmax = ideal.max_degree
    if max_degree < dmax + 1:
        raise DomainError(
            f"max_degree {max_degree} too small; need at least {dmax + 1}")
    centred = [(g.degree, centre_by_eval_terms(g, w))
               for g in ideal.generators]
    j_span, jp_span = FractionRowEchelon(), FractionRowEchelon()
    dims = []
    stabilized_at = None
    for N in range(dmax, max_degree + 1):
        for dg, q in centred:
            low = N - dg if N > dmax else 0
            for beta in iter_multiindices(m, N - dg, low):
                row = q.shift_by_monomial(beta).coeffs
                j_span.add(row)
                if any(beta):
                    jp_span.add(row)
        dims.append((N, len(j_span.rows) - len(jp_span.rows)))
        if len(dims) >= 2 and dims[-1][1] == dims[-2][1]:
            stabilized_at = N
            break
    return LocalizationResult(dims[-1][1], stabilized_at, tuple(dims),
                              conditional=(ideal.family == GENERAL))


# Univariate polynomials are dense coefficient tuples, ascending order.  The
# cubic's isolating intervals are refined below this width.
_REFINE_WIDTH = Fraction(1, 16)


def upoly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def upoly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def upoly_deriv(p):
    return upoly_trim(tuple(k * p[k] for k in range(1, len(p))))


def upoly_divmod(a, b):
    """Quotient and remainder of a by b over the rationals."""
    a = list(a)
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    while len(a) >= len(b):
        f = a[-1] / lb
        shift = len(a) - 1 - db
        q[shift] = f
        for k in range(len(b)):
            a[shift + k] -= f * b[k]
        a.pop()
    return upoly_trim(q), upoly_trim(a)


def upoly_gcd(a, b):
    a, b = upoly_trim(a), upoly_trim(b)
    while b:
        a, b = b, upoly_divmod(a, b)[1]
    if not a:
        return ()
    return tuple(c / a[-1] for c in a)  # monic


def squarefree_part(p):
    p = upoly_trim(p)
    if len(p) <= 2:
        return p
    g = upoly_gcd(p, upoly_deriv(p))
    if len(g) <= 1:
        return p
    q, r = upoly_divmod(p, g)
    if r:
        raise DomainError("inexact polynomial division")
    return q


def sturm_chain(p):
    """Canonical Sturm chain of a squarefree polynomial."""
    p = upoly_trim(p)
    chain = [p, upoly_trim(upoly_deriv(p))]
    while chain[-1] and len(chain[-1]) > 1:
        r = upoly_divmod(chain[-2], chain[-1])[1]
        chain.append(tuple(-c for c in r))
        if not chain[-1]:
            chain.pop()
            break
    return [c for c in chain if c]


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def variations_at(chain, x: Fraction) -> int:
    return _sign_variations([upoly_eval(c, x) for c in chain])


def count_roots_between(chain, a: Fraction, b: Fraction) -> int:
    """Distinct real roots in the open interval (a, b); the endpoints must
    not be roots of the chain's first polynomial."""
    p = chain[0]
    if upoly_eval(p, a) == 0 or upoly_eval(p, b) == 0:
        raise DomainError("Sturm endpoints must not be roots")
    return variations_at(chain, a) - variations_at(chain, b)


def refine_by_chain_count(chain, a, b):
    """The bisection that counts Sturm-chain sign variations on (a, mid) at
    every step, in Fractions."""
    p = chain[0]
    while b - a > _REFINE_WIDTH:
        mid = (a + b) / 2
        if upoly_eval(p, mid) == 0:
            return (mid, mid)
        if count_roots_between(chain, a, mid) == 1:
            b = mid
        else:
            a = mid
    return (a, b)


def _isolate(chain, a: Fraction, b: Fraction, out):
    """Split (a, b) until each piece holds exactly one root of chain[0]."""
    n = count_roots_between(chain, a, b)
    if n == 0:
        return
    if n == 1:
        out.append(refine_by_chain_count(chain, a, b))
        return
    p = chain[0]
    mid = (a + b) / 2
    if upoly_eval(p, mid) == 0:
        # an exact rational root: record it and recurse on a punctured
        # window whose radius shrinks until it separates mid from the rest
        out.append((mid, mid))
        eps = (b - a) / 16
        while (upoly_eval(p, mid - eps) == 0 or upoly_eval(p, mid + eps) == 0
               or count_roots_between(chain, mid - eps, mid + eps) != 1):
            eps /= 2
        _isolate(chain, a, mid - eps, out)
        _isolate(chain, mid + eps, b, out)
        return
    _isolate(chain, a, mid, out)
    _isolate(chain, mid, b, out)


def cauchy_root_bound(p) -> Fraction:
    """1 + max |c_i / c_n|: every root of p lies strictly inside it."""
    lead = p[-1]
    return 1 + max((abs(c / lead) for c in p[:-1]), default=Fraction(0))


def cubic_positive_roots_by_sturm(alpha) -> CubicReport:
    """The cubic's reference: the squarefree part, its Sturm chain, the
    root count on (0, Cauchy bound) and isolation by chain counts, for any
    alpha > 0."""
    a = rat(alpha)
    if a <= 0:
        raise DomainError(
            f"the cubic family is parametrized by alpha > 0, got {a}")
    coeffs = (-a, -(2 * a - 3), -(3 * a - 2), Fraction(1))
    sf = squarefree_part(coeffs)
    chain = sturm_chain(sf)
    bound = cauchy_root_bound(sf)
    count = count_roots_between(chain, Fraction(0), bound)
    intervals = []
    _isolate(chain, Fraction(0), bound, intervals)
    intervals.sort()
    return CubicReport(a, coeffs, count, tuple(intervals))


# ---------------------------------------------------------------------------
# Reduced Groebner basis: one presentation per ideal (ROADMAP item 15)


def _grevlex(exps) -> tuple:
    """Sort key of a monomial in graded reverse lex, z1 > z2 > ... ."""
    return sum(exps), tuple(-e for e in reversed(exps))


def _lead(terms: dict) -> tuple:
    return max(terms, key=_grevlex)


def _monic(terms: dict) -> dict:
    c = terms[_lead(terms)]
    return {e: v / c for e, v in terms.items()}


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _sub_multiple(f: dict, c, shift, g: dict):
    """f -= c z^shift g, in place."""
    for e, v in g.items():
        key = tuple(map(sum, zip(e, shift)))
        value = f.get(key, 0) - c * v
        if value:
            f[key] = value
        else:
            f.pop(key, None)


def _remainder(f: dict, basis: list) -> dict:
    """The remainder of f on division by the monic term maps of basis: no
    term of it is divisible by the lead of any of them."""
    f, rest = dict(f), {}
    leads = [(_lead(g), g) for g in basis]
    while f:
        top = _lead(f)
        for lead, g in leads:
            if _divides(lead, top):
                _sub_multiple(f, f[top],
                              tuple(x - y for x, y in zip(top, lead)), g)
                break
        else:
            rest[top] = f.pop(top)
    return rest


def reduced_groebner_basis(generators, nvars: int) -> tuple:
    """The reduced Groebner basis, for graded reverse lex, of the ideal
    the polynomial sources generate in nvars variables: monic, each
    element reduced by the others, as Polys by descending lead.

    Buchberger's algorithm in Fractions; a pair whose leads are coprime
    is skipped, its S-polynomial reducing to 0 (Buchberger's first
    criterion; Cox, Little and O'Shea, Ideals, Varieties, and
    Algorithms, ch. 2).
    """
    basis = [_monic(p.coeffs) for p in
             (parse_poly(src, nvars) for src in generators) if p.coeffs]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        a, b = _lead(basis[i]), _lead(basis[j])
        if not any(x and y for x, y in zip(a, b)):
            continue
        lcm = tuple(map(max, a, b))
        s = {}
        _sub_multiple(s, -1, tuple(x - y for x, y in zip(lcm, a)), basis[i])
        _sub_multiple(s, 1, tuple(x - y for x, y in zip(lcm, b)), basis[j])
        r = _remainder(s, basis)
        if r:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(_monic(r))
    minimal = []
    for g in sorted(basis, key=lambda g: _grevlex(_lead(g))):
        if not any(_divides(_lead(h), _lead(g)) for h in minimal):
            minimal.append(g)
    reduced = [_remainder(g, minimal[:k] + minimal[k + 1:])
               for k, g in enumerate(minimal)]
    return tuple(Poly(nvars, g) for g in reversed(reduced))


# ---------------------------------------------------------------------------
# Floating-point finite-difference oracle


def fd_mixed_hessian(f: Callable, point, i: int, j: int, h: float = 1e-3):
    """Central finite-difference estimate of d_i dbar_j f at a point.

    f maps a tuple of complex numbers to a real float.  The diagonal uses
    the five-point quarter-Laplacian; off-diagonal terms combine four-point
    mixed stencils through the Wirtinger identities.  Truncation error is
    O(h^2) against the analytic value.
    """
    pt = [complex(x) for x in point]

    def at(*shifts):
        q = list(pt)
        for slot, dz in shifts:
            q[slot] = q[slot] + dz
        return f(tuple(q))

    if i == j:
        lap = (at((i, h)) + at((i, -h)) + at((i, 1j * h)) + at((i, -1j * h))
               - 4.0 * at())
        return lap / (4.0 * h * h)

    def mixed(di, dj):
        return (at((i, di), (j, dj)) - at((i, di), (j, -dj))
                - at((i, -di), (j, dj)) + at((i, -di), (j, -dj))) / (4.0 * h * h)

    dxx = mixed(h, h)
    dyy = mixed(1j * h, 1j * h)
    dxy = mixed(h, 1j * h)
    dyx = mixed(1j * h, h)
    return 0.25 * (dxx + dyy) + 0.25j * (dxy - dyx)


def fd_log_hessian(f: Callable, point, i: int, j: int, h: float = 1e-3):
    """Finite-difference mixed Hessian of log f, for positive real f."""
    return fd_mixed_hessian(lambda w: math.log(f(w)), point, i, j, h)


def zero_set_metric_fn(module: WeightedPolydiscModule, ideal: IdealSpec,
                       k: int = 0) -> Callable:
    """Float evaluator of the squared norm of the k-th zero-variety frame
    vector as a function of the variety point: the closed product form
    evaluated directly in floating point.

    Independent of the exact series machinery by construction.
    """
    data = ideal.coordinate_powers
    gen_vars = [v for v, _ in data]
    v, p = data[k]
    lead = float(pochhammer(module.weights[v], p) / math.factorial(p))
    free = [i for i in range(module.dim) if i not in gen_vars]
    weights = [float(w) for w in module.weights]

    def f(w):
        out = lead
        for i in free:
            out *= (1.0 - (w[i] * w[i].conjugate()).real) ** (-weights[i])
        return out
    return f


# kernel terms summed by coordinate_det_fn: the tail beyond this degree is
# far below double precision for |w| << 1
FLOAT_DEGREE_CAP = 24


def coordinate_det_fn(module: WeightedPolydiscModule) -> Callable:
    """Float evaluator of det H(w) for the coordinate-ideal frame Grammian,
    summed termwise in complex floats from the definition
    H_ij = sum_a s_i s_j c_a w^(a - e_i) conj(w)^(a - e_j) over the kernel
    terms of degree <= FLOAT_DEGREE_CAP.

    No truncated-series arithmetic is involved, so this serves as an
    independent cross-check of the exact pipeline near the origin.
    """
    m = module.dim
    weights = module.weights
    terms = []
    for alpha in iter_multiindices(m, FLOAT_DEGREE_CAP):
        if not any(alpha):
            continue
        denom = sum(weights[k] * alpha[k] for k in range(m))
        c = diag_coeff(module, alpha)
        svals = [float(weights[k] * alpha[k] / denom * c) if alpha[k] else 0.0
                 for k in range(m)]
        terms.append((tuple(alpha), svals, c))

    def f(w):
        H = [[0.0 + 0.0j for _ in range(m)] for _ in range(m)]
        for alpha, svals, c in terms:
            zpows = []
            cpows = []
            for i in range(m):
                if svals[i] == 0.0:
                    zpows.append(0.0)
                    cpows.append(0.0)
                    continue
                zp = 1.0 + 0.0j
                cp = 1.0 + 0.0j
                for k, e in enumerate(alpha):
                    ek = e - (1 if k == i else 0)
                    if ek:
                        zp *= w[k] ** ek
                        cp *= w[k].conjugate() ** ek
                zpows.append(zp)
                cpows.append(cp)
            for i in range(m):
                if svals[i] == 0.0:
                    continue
                si_c = svals[i]
                for j in range(m):
                    if svals[j] == 0.0:
                        continue
                    # one factor of c_a total: s_i s_j c_a with svals = s*c
                    H[i][j] += si_c * svals[j] / float(c) * zpows[i] * cpows[j]
        return cofactor_det(H).real
    return f
