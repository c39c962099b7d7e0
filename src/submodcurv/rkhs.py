"""Weighted analytic modules on the polydisc and submodule kernels.

The ambient module with weight vector (l_1, ..., l_m), all positive
rationals, has reproducing kernel prod_i (1 - z_i conj(w_i))^(-l_i); the
monomials are orthogonal with ||z^alpha||^2 = 1 / diag_coeff(alpha) where
diag_coeff(alpha) = prod_i poch(l_i, alpha_i) / alpha_i!.  Weight 1 in every
slot is the Hardy module, weight 2 the unweighted Bergman module.  The
factors poch(l_i, n)/n! have one table, diag_coeff_rows, integer rows in
lowest terms: diag_coeff and every caller in the package read it, and
cleared_row puts a row over one denominator where a caller multiplies
entries as integers (the Gram form here, the zero-set metric in frames).

Submodules generated by polynomial ideals get one of three kernel
representations, chosen by the family that IdealSpec reads off the
generators:

  DiagonalFilteredKernel   monomial ideals: the ambient diagonal restricted
                           to exponents divisible by some generator
  RankOneCorrectedKernel   vanishing ideals of a point: the ambient kernel
                           minus one rank-one correction at the point
  GramFormKernel           anything else: the degree-N ambient sum minus
                           the kernel of the orthogonal complement of the
                           degree-N generator multiples

Exact evaluation works at real rational points of the open polydisc.  At
integer weights the monomial and point kernels have one rational closed
form; everything else goes through partial sums that carry an explicit
rational remainder bound.  The bound is integer arithmetic with one
Fraction at its close, and it is computed only where a report prints it:
by ambient_kernel_bounded and the eval_truncated of the monomial and
point kernels.  The Gram form, whose value is the degree-N kernel itself,
reads the partial sum alone.  Each public call checks its points once;
the rank-one kernel computes K(a, a) once per degree, and at w = z takes
K(a, w) to be K(z, a), the same value at real points.

A degree-N diagonal sum is never enumerated by multi-index.  Restricted to
the exponents alpha >= gamma it factors over the coordinates, so it is the
sum of the coefficients of t^0..t^N in a product of m univariate series
sum_{a >= gamma_i} poch(l_i, a)/a! x_i^a t^a, whose coefficients follow the
ratio recurrence c_{a+1} = c_a (l + a)/(a + 1); a monomial ideal's sum is an
inclusion-exclusion of such products over the corners gamma_S of generator
subsets S, and the ambient sum has the one corner 0.  Both closed-form
kernels go through the same two corner functions: _diagonal_sum to degree
N with its bound, and its exact twin _diagonal_exact, the full sum in
closed form, which needs integer weights: each public eval_exact checks
them once, before its corner calls.

The Gram-form kernel works on the side the ideal removes, in integers
throughout (fraction-free, as E. Bareiss, Math. Comp. 22, 1968).  The
monomials are orthogonal, so it splits along the components of the graph
linking the monomials of each generator multiple of degree <= N, each an
integer row on the column keys of linalg.key_units.  Per component, an
echelon form picks a basis of V_N, the span of those multiples, and
back-substitution a basis of the orthogonal complement in the polynomials
of degree <= N: 2 of them for product_difference at every N, 49 against
35 in V_N for a principal ideal in three variables at N = 6.  K(z, w) is
the ambient degree-N sum minus the kernel of that complement, one integer
Gram block per component and one Fraction per value (GramFormKernel).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import getitem, mul

from .algebra import Record, exponent, iter_multiindices, rats
from .errors import DomainError, ShapeError, TruncationError
from .ideals import COORDINATE_VANISHING, MONOMIAL, IdealSpec
from .linalg import BareissFactor, RowEchelon, key_units, keyed_terms
import math


class WeightedPolydiscModule(Record):
    """The weighted analytic Hilbert module on the polydisc of dimension dim."""

    _fields = ("dim", "weights")

    def __init__(self, dim: int, weights: tuple):
        if dim < 1:
            raise DomainError(f"polydisc dimension must be >= 1, got {dim}")
        ws = rats(weights)
        if len(ws) != dim:
            raise DomainError(
                f"need {dim} weights, got {len(ws)}")
        check_positive_weights(ws)
        self.__dict__.update(dim=dim, weights=ws)

    def has_integer_weights(self) -> bool:
        return all(w.denominator == 1 for w in self.weights)


def check_positive_weights(weights):
    """Raise DomainError unless every weight, a Fraction, is positive.  Its
    sign is its numerator's, the denominator being positive, so no Fraction
    is compared."""
    if not all(w.numerator > 0 for w in weights):
        raise DomainError(f"weights must be positive, got {weights}")


def diag_coeff(module: WeightedPolydiscModule, alpha) -> Fraction:
    """Kernel diagonal coefficient c_alpha = prod poch(l_i, a_i) / a_i!,
    the product of the diag_coeff_rows entries of alpha."""
    a = exponent(alpha)
    if len(a) != module.dim:
        raise ShapeError(f"multi-index arity {len(a)} != dimension {module.dim}")
    nums, dens = zip(*diag_coeff_rows(module.weights, max(a)))
    return Fraction(math.prod(map(getitem, nums, a)),
                    math.prod(map(getitem, dens, a)))


def diag_coeff_rows(weights, N: int) -> tuple:
    """Per-slot factors of diag_coeff in integers, for positive rational
    weights l_i (a module's, or some of them): rows[i] = (nums, dens) with
    poch(l_i, n)/n! = nums[n]/dens[n] in lowest terms, n = 0..N, by the
    ratio recurrence c_{n+1} = c_n (l_i + n)/(n + 1): with l_i = p/q each
    step multiplies by (p + n q) / (q (n + 1)) and divides out the gcd.
    This is the one table of poch(l, n)/n! outside the diagonal sums and
    the tail bound, which run the recurrence in integers of their own;
    cleared_row puts one row over one denominator."""
    rows = []
    for l in weights:
        p, q = l.numerator, l.denominator
        num = den = 1
        nums, dens = [1], [1]
        for n in range(N):
            num, den = num * (p + n * q), den * q * (n + 1)
            g = math.gcd(num, den)
            num //= g
            den //= g
            nums.append(num)
            dens.append(den)
        rows.append((nums, dens))
    return tuple(rows)


def cleared_row(row) -> tuple:
    """(R, S): a diag_coeff_rows row (nums, dens) over S, the lcm of its
    denominators, with poch(l, n)/n! = R[n] / S for integers R[n]."""
    nums, dens = row
    S = math.lcm(*dens)
    return [x * (S // d) for x, d in zip(nums, dens)], S


def in_open_polydisc(point) -> bool:
    """Whether every coordinate x of a rational point has |x| < 1, compared
    in integers as |numerator| < denominator."""
    return all(abs(x.numerator) < x.denominator for x in point)


def _check_point(module, point, label="point"):
    pt = rats(point)
    if len(pt) != module.dim:
        raise ShapeError(f"{label} has arity {len(pt)}, expected {module.dim}")
    if not in_open_polydisc(pt):
        raise DomainError(f"{label} {pt} is not inside the open polydisc")
    return pt


class Bounded(Record):
    """An exact partial-sum value together with a rational remainder bound:
    the true value lies in [value - bound, value + bound]."""

    _fields = ("value", "bound")

    def __sub__(self, other):
        return Bounded(self.value - other.value, self.bound + other.bound)

    def __mul__(self, other):
        return Bounded(self.value * other.value,
                       abs(self.value) * other.bound
                       + abs(other.value) * self.bound
                       + self.bound * other.bound)

    def __truediv__(self, other):
        if abs(other.value) <= other.bound:
            raise DomainError(
                "division by a bounded quantity whose interval contains zero")
        lo = abs(other.value) - other.bound
        err = (self.bound * abs(other.value) + abs(self.value) * other.bound) \
            / (lo * abs(other.value))
        return Bounded(self.value / other.value, err)


def _diagonal_tail_bound(total_weight: Fraction, rho: Fraction, N: int) -> Fraction:
    """Upper bound for sum_{n > N} poch(L, n)/n! rho^n with 0 <= rho < 1.

    It covers the diagonal sums of every kernel on the m-variable module:
    sum_{|alpha| = n} prod_i poch(l_i, alpha_i)/alpha_i! = poch(L, n)/n!
    for L = l_1 + ... + l_m (the t^n coefficients of
    prod_i (1 - t)^(-l_i) = (1 - t)^(-L)), so with rho = max_i |z_i w_i|
    the degree-n part of the ambient diagonal, and of any filtered one,
    is at most poch(L, n)/n! rho^n in absolute value.

    The term ratio is rho (L + n)/(n + 1).  For L >= 1 it falls with n:
    exact terms are summed until it drops below 1, and a geometric tail
    in that ratio closes the sum.  For L < 1 it rises toward rho, so the
    first term closes with ratio rho.  In integers, with L = P/Q and
    rho = r/s, term n is num/den for num = prod_{k<n} (P + kQ) r^n and
    den = Q^n n! s^n, the ratio is up/down = r (P + nQ) / (s Q (n + 1)),
    and the running sum is kept over the running denominator: one
    Fraction is formed, at the close.
    """
    if rho == 0:
        return Fraction(0)
    if not 0 < rho < 1:
        raise DomainError(f"tail bound needs 0 <= rho < 1, got {rho}")
    P, Q = total_weight.numerator, total_weight.denominator
    r, s = rho.numerator, rho.denominator
    n = N + 1
    num = math.prod(range(P, P + n * Q, Q)) * r ** n
    den = Q ** n * math.factorial(n) * s ** n
    if P < Q:
        return Fraction(num * s, den * (s - r))
    total = 0
    while True:
        up, down = r * (P + n * Q), s * Q * (n + 1)
        if up < down:
            return Fraction(total * (down - up) + num * down,
                            den * (down - up))
        total = (total + num) * down
        num *= up
        den *= down
        n += 1


def _slot_series(l: Fraction, x: Fraction, N: int):
    """poch(l, a)/a! x^a for a = 0..N, as integers T_a over the common
    denominator T_0 = N! (q d)^N, where l = p/q and x = n/d.

    T_a = N!/a! (q d)^(N-a) n^a prod_{j<a} (p + j q) is an integer, and
    T_{a+1} = T_a (p + a q) n / ((a + 1) q d) exactly.
    """
    p, q, n, d = l.numerator, l.denominator, x.numerator, x.denominator
    term = math.factorial(N) * (q * d) ** N
    series = [term]
    for a in range(N):
        term = term * (p + a * q) * n // ((a + 1) * q * d)
        series.append(term)
    return series


def _graded_sum(series, gamma, N: int) -> int:
    """sum over |alpha| <= N, alpha >= gamma of prod_i series_i[alpha_i]:
    the coefficients of t^0..t^N of the product of the slot series, each
    cut below its corner entry.  All slots but the last are convolved; the
    last enters through its prefix sums."""
    acc = [1] + [0] * N
    for s, g in zip(series[:-1], gamma[:-1]):
        out = [0] * (N + 1)
        for a, ca in enumerate(acc):
            if ca:
                for b in range(g, N + 1 - a):
                    out[a + b] += ca * s[b]
        acc = out
    prefix, run = [], 0
    last, g = series[-1], gamma[-1]
    for b in range(N + 1):
        if b >= g:
            run += last[b]
        prefix.append(run)
    return sum(ca * prefix[N - a] for a, ca in enumerate(acc) if ca)


def _diagonal_integers(module, corners, x, N: int):
    """Degree-N diagonal sum at x_i = z_i w_i over the exponents above some
    corner, by inclusion-exclusion with the given signs, as (total, den)
    for the integers total and den > 0 with the sum total / den."""
    series = [_slot_series(l, xi, N) for l, xi in zip(module.weights, x)]
    total = sum(sign * _graded_sum(series, gamma, N) for gamma, sign in corners)
    return total, math.prod(s[0] for s in series)


def _diagonal_sum(module, corners, z, w, N: int) -> Bounded:
    """The degree-N diagonal sum and its remainder bound: the filtered
    diagonal is dominated termwise by the full one."""
    x = [zi * wi for zi, wi in zip(z, w)]
    return Bounded(Fraction(*_diagonal_integers(module, corners, x, N)),
                   _diagonal_tail_bound(sum(module.weights),
                                        max(map(abs, x)), N))


def _diagonal_exact(module, corners, z, w) -> Fraction:
    """The full diagonal sum over the exponents above some corner, in closed
    form: the exact twin of _diagonal_sum, at integer weights, which each
    public caller checks once (_require_integer_weights).

    Over the exponents a >= g in one slot, sum poch(l, a)/a! x^a is the
    binomial series (1 - x)^(-l) minus a polynomial, which is rational iff
    the weight is a positive integer.  Each slot's tails are written once,
    for g up to the slot's largest corner exponent G: with x = n/d and
    C_a = poch(l, a)/a!, the tail at g is T_g / ((d - n)^l d^G) for the
    integer T_g = d^(l+G) - (d - n)^l sum_{a<g} C_a n^a d^(G-a).  A corner
    is then one product of integers, and the sum one Fraction.  At the
    ambient corner 0 it is prod_i d_i^l_i / (d_i - n_i)^l_i.
    """
    reach = map(max, zip(*(g for g, _ in corners)))
    tails, denominator = [], 1
    for l, zi, wi, G in zip(module.weights, z, w, reach):
        l = l.numerator
        n, d = zi.numerator * wi.numerator, zi.denominator * wi.denominator
        full, rest = d ** (l + G), (d - n) ** l
        row, head, c = [full], 0, 1
        for a in range(G):
            head += c * n ** a * d ** (G - a)
            c = c * (l + a) // (a + 1)
            row.append(full - rest * head)
        tails.append(row)
        denominator *= rest * d ** G
    total = sum(sign * math.prod(row[g] for row, g in zip(tails, gamma))
                for gamma, sign in corners)
    return Fraction(total, denominator)


def _require_integer_weights(module):
    """_diagonal_exact's precondition, checked once per public eval_exact."""
    if not module.has_integer_weights():
        raise DomainError(
            "closed-form evaluation needs integer weights; "
            "use eval_truncated for fractional weights")


def _ambient_corners(module):
    """The one corner, 0, whose filter keeps every exponent."""
    return (((0,) * module.dim, 1),)


def ambient_kernel_bounded(module: WeightedPolydiscModule, z, w, N: int) -> Bounded:
    """Degree-N partial sum of the ambient kernel with a remainder bound."""
    z = _check_point(module, z, "z")
    w = _check_point(module, w, "w")
    return _diagonal_sum(module, _ambient_corners(module), z, w, N)


# ---------------------------------------------------------------------------
# Kernel representations


class DiagonalFilteredKernel:
    """Submodule kernel of a monomial ideal: the ambient diagonal sum
    restricted to exponents divisible by some generator."""

    variant = "diagonal_filtered"
    default_trunc = 30

    def __init__(self, module: WeightedPolydiscModule, generator_exponents):
        self.module = module
        self.generator_exponents = tuple(exponent(e) for e in generator_exponents)
        if not self.generator_exponents:
            raise DomainError("need at least one generator exponent")
        for e in self.generator_exponents:
            if len(e) != module.dim:
                raise ShapeError("generator exponent arity mismatch")
            if sum(e) == 0:
                raise DomainError("the unit monomial generates the whole module")
        self.corners = self._corners()

    def _corners(self):
        """((gamma_S, sign), ...) for the inclusion-exclusion over nonempty
        generator subsets S, where gamma_S is the componentwise max of the
        exponents in S and sign = (-1)^(|S|+1).  Subsets sharing a corner
        are merged and corners whose signs cancel are dropped."""
        gens = self.generator_exponents
        signs = {}
        for mask in range(1, 1 << len(gens)):
            chosen = [g for i, g in enumerate(gens) if mask >> i & 1]
            gamma = tuple(max(col) for col in zip(*chosen))
            sign = 1 if len(chosen) % 2 else -1
            signs[gamma] = signs.get(gamma, 0) + sign
        return tuple((g, c) for g, c in signs.items() if c)

    def eval_exact(self, z, w) -> Fraction:
        """Closed form by inclusion-exclusion over generator subsets,
        integer weights only."""
        z = _check_point(self.module, z, "z")
        w = _check_point(self.module, w, "w")
        _require_integer_weights(self.module)
        return _diagonal_exact(self.module, self.corners, z, w)

    def eval_truncated(self, z, w, N: int | None = None) -> Bounded:
        z = _check_point(self.module, z, "z")
        w = _check_point(self.module, w, "w")
        if N is None:
            N = self.default_trunc
        return _diagonal_sum(self.module, self.corners, z, w, N)


class RankOneCorrectedKernel:
    """Ambient kernel minus one rank-one correction at a point a:
    K(z, w) - K(z, a) K(a, w) / K(a, a), the kernel of the functions that
    vanish at a."""

    variant = "rank_one_corrected"
    default_trunc = 30

    def __init__(self, module: WeightedPolydiscModule, point):
        self.module = module
        self.point = _check_point(module, point, "correction point")
        self.corners = _ambient_corners(module)
        self._at_point = {}  # K(a, a) by truncation degree, None for exact

    def _eval(self, z, w, base_eval, key):
        a = self.point
        kza = base_eval(z, a)
        kaw = kza if w == z else base_eval(a, w)
        kaa = self._at_point.get(key)
        if kaa is None:
            kaa = self._at_point[key] = base_eval(a, a)
        return base_eval(z, w) - kza * kaw / kaa

    def eval_exact(self, z, w) -> Fraction:
        z = _check_point(self.module, z, "z")
        w = _check_point(self.module, w, "w")
        _require_integer_weights(self.module)
        return self._eval(z, w, lambda x, y: _diagonal_exact(
            self.module, self.corners, x, y), None)

    def eval_truncated(self, z, w, N: int | None = None) -> Bounded:
        z = _check_point(self.module, z, "z")
        w = _check_point(self.module, w, "w")
        if N is None:
            N = self.default_trunc
        return self._eval(z, w, lambda x, y: _diagonal_sum(
            self.module, self.corners, x, y, N), N)


def _components(columns, groups):
    """The components of the columns (given in increasing order) once the
    columns of each group are joined, each in increasing order, ordered by
    their least column (union-find)."""
    parent = {k: k for k in columns}

    def find(k):
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k
    for group in groups:
        root, *rest = map(find, group)
        for r in rest:
            parent[r] = root
    out = {}
    for k in columns:
        out.setdefault(find(k), []).append(k)
    return list(out.values())


@lru_cache(maxsize=64)
def _gram_columns(m: int, N: int):
    """(monomials, keys, exponent_of, units): the exponents of degree <= N
    in iter_multiindices order, their column keys, the exponent of each key
    and the keys of the unit exponents, linalg.key_units with B = N + 1.
    Cached per (m, N); callers only read the result."""
    units = key_units(m, N + 1)
    monomials = iter_multiindices(m, N)
    keys = tuple(sum(map(mul, a, units)) for a in monomials)
    return monomials, keys, dict(zip(keys, monomials)), units


class GramFormKernel:
    """Reproducing kernel of V_N, the span of the generator multiples of
    degree <= N = trunc_degree, inside P_N, the polynomials of degree <= N.

    P_N is the orthogonal sum of V_N and its complement W_N, so
    K_{V_N} = K_{P_N} - K_{W_N}: the ambient degree-N diagonal sum minus
    the kernel f(z)^T H^{-1} f(w) of W_N, where f is a basis of W_N and H
    its exact Gram matrix.  For product_difference W_N has two
    polynomials at any N, against C(N+2, 2) - 2 in V_N.

    All of it is kept in integers.  With g_j = G_j / D_j the j-th null
    vector and c_a = C_a / den, f_j = C G_j / (den D_j) coefficientwise:
    ``terms[j]`` holds F_j, the integer terms (a, C_a G_j[a]), and
    ``scales[j]`` is D_j.  ``gram`` holds one integer block (indices, M_c)
    per component, whose f are orthogonal to every other block's, with
    M_jk = sum_a C_a G_j[a] G_k[a] = den D_j D_k H_jk.  So
    f(z)^T H^{-1} f(w) = F(z)^T M^{-1} F(w) / den: evaluation reads the
    integers as they are and forms one Fraction, at its close.  Each M_c
    must be positive definite, as H_c is, since its leading minors are
    those of H_c times den^k prod D_j^2: a 1x1 block needs M_jj > 0, each
    larger one gets one Bareiss sweep, whose pivots give its check and
    whose factors eval_exact uses.

    ``basis`` holds a maximal independent subset of {z^beta p_j} with
    deg <= N, picked greedily in a deterministic order, as the pairs
    (p_j, beta): it spans V_N, and len(basis) = dim V_N.
    """

    variant = "gram_form"

    def __init__(self, module: WeightedPolydiscModule, basis, terms, scales,
                 gram, den: int, trunc_degree: int):
        self.module = module
        self.basis = tuple(basis)
        self.trunc_degree = trunc_degree
        self.terms, self.scales = tuple(terms), tuple(scales)
        self.gram, self.den = tuple(gram), den
        self._exponents = {a for F in self.terms for a, _ in F}
        singles, self._factors = [], []
        for block, M in self.gram:
            if len(block) == 1:
                minors = [M[0][0]]
                singles.append((block[0], M[0][0]))
            else:
                factor = BareissFactor(M)
                minors = factor.leading_minors()
                self._factors.append((block, factor))
            if any(d <= 0 for d in minors):
                raise DomainError("Gram matrix is not positive definite")
        # 1 / M_jj over the 1x1 blocks, as integer multiples of 1 / _single_den
        self._single_den = math.lcm(*(h for _, h in singles))
        self._singles = [(j, self._single_den // h) for j, h in singles]

    @staticmethod
    def from_ideal(module: WeightedPolydiscModule, ideal: IdealSpec,
                   trunc_degree: int) -> "GramFormKernel":
        if trunc_degree < ideal.max_degree:
            raise TruncationError(
                f"truncation degree {trunc_degree} is below the maximal "
                f"generator degree {ideal.max_degree}")
        m, N = module.dim, trunc_degree
        monomials, keys, exponent_of, units = _gram_columns(m, N)
        pairs, rows = [], []
        for g in ideal.generators:
            terms = keyed_terms(g.coeffs, units)
            # the shifts beta, |beta| <= N - deg p_j, lead the column order
            shifts = math.comb(N - g.degree + m, m)
            for beta, shift in zip(monomials[:shifts], keys):
                pairs.append((g, beta))
                rows.append({k + shift: c for k, c in terms})
        # the monomials are orthogonal, so P_N, V_N and W_N split along the
        # components of the graph linking the monomials of each candidate:
        # one echelon form per component, together the one over all rows
        components = _components(keys, rows)
        echelon_of = {k: e for cols in components
                      for e in [RowEchelon()] for k in cols}
        # greedy maximal independent subset, deterministic given the order:
        # a candidate is kept iff it leaves a residual against those kept
        chosen = [pair for pair, row in zip(pairs, rows)
                  if echelon_of[next(iter(row))].add(row)]
        # f is in the complement iff <f, v> = sum_a f_a v_a / c_a = 0 for
        # every row v, i.e. g = f / c is a null vector of the echelon rows;
        # one g per free column, the complement in free-column order
        position = {k: j for j, k in enumerate(
            k for k in keys if k not in echelon_of[k].rows)}
        # c_a = prod_i slots[i][a_i] / den from the cleared rows
        slots, dens = zip(*map(cleared_row,
                               diag_coeff_rows(module.weights, N)))
        den = math.prod(dens)
        n = len(position)
        terms, scales, gram = [None] * n, [None] * n, []
        for cols in components:
            block = [k for k in cols if k in position]
            if not block:
                continue
            nulls = [echelon_of[k].null_vector(k) for k in block]
            # C_a only where some G of the component is nonzero
            coeff = {a: math.prod(map(getitem, slots, exponent_of[a]))
                     for a in set().union(*(G for G, _ in nulls))}
            fs = [{a: coeff[a] * x for a, x in G.items()} for G, _ in nulls]
            for k, F, (_, D) in zip(block, fs, nulls):
                j = position[k]
                terms[j] = [(exponent_of[a], x) for a, x in F.items()]
                scales[j] = D
            # M_c[j][k] = sum_a C_a G_j[a] G_k[a] = sum_a F_j[a] G_k[a]
            gram.append((tuple(position[k] for k in block),
                         [[sum(x * G[a] for a, x in F.items() if a in G)
                           for G, _ in nulls] for F in fs]))
        return GramFormKernel(module, chosen, terms, scales, gram, den, N)

    def _complement_at(self, point):
        """(F, scale) with F(point) = F / scale for integers F, from one table
        of per-slot powers: with point_i = n_i/d_i, row i holds
        n_i^e d_i^(N-e), so that z^a is prod_i row_i[a_i] / prod_i d_i^N,
        taken once per exponent of the terms."""
        N = self.trunc_degree
        table = [[n ** e * d ** (N - e) for e in range(N + 1)]
                 for n, d in (x.as_integer_ratio() for x in point)]
        scale = math.prod(x.denominator for x in point) ** N
        power = {a: math.prod(map(getitem, table, a))
                 for a in self._exponents}
        return [sum(c * power[a] for a, c in terms)
                for terms in self.terms], scale

    def eval_exact(self, z, w) -> Fraction:
        """sum_{|a|<=N} c_a (zw)^a - F(z)^T M^{-1} F(w) / den; exact for
        every rational weight vector."""
        z = _check_point(self.module, z, "z")
        w = _check_point(self.module, w, "w")
        total, value_den = _diagonal_integers(
            self.module, _ambient_corners(self.module),
            [zi * wi for zi, wi in zip(z, w)], self.trunc_degree)
        fz, sz = self._complement_at(z)
        fw, sw = (fz, sz) if w == z else self._complement_at(w)
        # F(z)^T M^{-1} F(w) = num / form_den, block by block
        num = sum(fz[j] * fw[j] * c for j, c in self._singles)
        form_den = self._single_den
        for block, factor in self._factors:
            X, d = factor.solve([fw[j] for j in block])
            num = num * d + form_den * sum(fz[j] * x for j, x in zip(block, X))
            form_den *= d
        scale = form_den * self.den * sz * sw
        return Fraction(total * scale - num * value_den, value_den * scale)

    def eval_truncated(self, z, w, N: int | None = None) -> Bounded:
        # the Gram form *is* the degree-truncated kernel; no analytic tail
        # is claimed beyond the construction degree
        return Bounded(self.eval_exact(z, w), Fraction(0))


def submodule_kernel(module: WeightedPolydiscModule, ideal: IdealSpec,
                     trunc_degree: int = 6):
    """Kernel representation of the submodule generated by the ideal.

    Dispatches on the ideal family; the returned object exposes
    eval_exact / eval_truncated plus a .variant tag for reports.
    """
    if ideal.nvars != module.dim:
        raise ShapeError("ideal and module live in different dimensions")
    if trunc_degree < 1:
        raise TruncationError("truncation degree must be >= 1")
    if ideal.family == COORDINATE_VANISHING:
        return RankOneCorrectedKernel(module, ideal.point)
    if ideal.family == MONOMIAL:
        exps = [g.monomial_exponent() for g in ideal.generators]
        return DiagonalFilteredKernel(module, exps)
    return GramFormKernel.from_ideal(module, ideal, trunc_degree)
