import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv.algebra import iter_multiindices
from submodcurv.errors import DomainError, TruncationError
from submodcurv.ideals import IdealSpec
from submodcurv.linalg import leading_principal_minors, mat_rank, mat_solve
from submodcurv.polynomials import Poly, parse_poly
from submodcurv.rkhs import (Bounded, DiagonalFilteredKernel, GramFormKernel,
                             RankOneCorrectedKernel, WeightedPolydiscModule,
                             _ambient_corners, _diagonal_exact,
                             _diagonal_tail_bound, ambient_kernel_bounded,
                             cleared_row, diag_coeff, diag_coeff_rows,
                             in_open_polydisc, submodule_kernel)

import oracles
from oracles import (ambient_kernel_exact, diag_coeff_slots, eval_terms,
                     evaluate_poly, monomial_norm_sq, pochhammer, poly_inner)


def _ideal(m, *srcs):
    return IdealSpec(m, tuple(parse_poly(g, m) for g in srcs))


def _basis_polys(K):
    """K.basis as polynomials: z^beta p_j for each pair (p_j, beta)."""
    return [p.shift_by_monomial(beta) for p, beta in K.basis]


def _assembled_gram(K):
    """The full Gram matrix of K's complement, zero outside its blocks."""
    n = len(K.terms)
    H = [[F(0)] * n for _ in range(n)]
    for block, Hc in oracles.gram_blocks(K):
        for j, row in zip(block, Hc):
            for k, x in zip(block, row):
                H[j][k] = x
    return H


def test_module_validation():
    m = WeightedPolydiscModule(2, (1, 2))
    assert m.weights == (F(1), F(2))
    assert m.has_integer_weights()
    assert not WeightedPolydiscModule(2, (F(1, 2), 1)).has_integer_weights()
    for dim, weights, message in (
            (0, (), "polydisc dimension must be >= 1, got 0"),
            (2, (1, 1, 1), "need 2 weights, got 3"),
            (2, (1, 0), "weights must be positive, got "
                        "(Fraction(1, 1), Fraction(0, 1))")):
        with pytest.raises(DomainError) as exc:
            WeightedPolydiscModule(dim, weights)
        assert str(exc.value) == message
    assert oracles.hardy(3).weights == (F(1),) * 3


def test_diag_coeff_values():
    hardy = oracles.hardy(2)
    assert diag_coeff(hardy, (3, 5)) == 1
    m = WeightedPolydiscModule(2, (2, 1))
    # poch(2, a)/a! = a + 1 in the first slot
    assert diag_coeff(m, (0, 0)) == 1
    assert diag_coeff(m, (1, 0)) == 2
    assert diag_coeff(m, (2, 0)) == 3
    assert diag_coeff(m, (2, 4)) == 3
    assert monomial_norm_sq(m, (2, 0)) == F(1, 3)


def test_poly_inner_orthogonality():
    m = WeightedPolydiscModule(2, (2, 3))
    z1 = Poly.variable(2, 0)
    z2 = Poly.variable(2, 1)
    assert poly_inner(m, z1, z2) == 0
    assert poly_inner(m, z1, z1) == F(1, 2)
    assert poly_inner(m, z1 + z2, z1) == F(1, 2)
    p = parse_poly("z1 z2", 2)
    assert poly_inner(m, p, p) == F(1, 6)


def test_ambient_kernel_product_form():
    hardy = oracles.hardy(2)
    z = (F(1, 3), F(1, 5))
    w = (F(1, 7), F(1, 2))
    want = 1 / ((1 - F(1, 3) * F(1, 7)) * (1 - F(1, 5) * F(1, 2)))
    assert ambient_kernel_exact(hardy, z, w) == want
    m = WeightedPolydiscModule(2, (2, 1))
    want2 = (1 - F(1, 21)) ** (-2) * (1 - F(1, 10)) ** (-1)
    assert ambient_kernel_exact(m, z, w) == want2
    with pytest.raises(DomainError):
        ambient_kernel_exact(hardy, (F(1), F(0)), (F(0), F(0)))


def test_single_variable_filtered_kernel():
    # <z1>: the z1-divisible part of the Hardy kernel
    hardy = oracles.hardy(2)
    ideal = IdealSpec.monomial(2, [(1, 0)])
    K = submodule_kernel(hardy, ideal)
    assert K.variant == "diagonal_filtered"
    z = (F(1, 5), F(1, 3))
    w = (F(1, 7), F(1, 2))
    x1, x2 = F(1, 5) * F(1, 7), F(1, 3) * F(1, 2)
    want = x1 / ((1 - x1) * (1 - x2))
    assert K.eval_exact(z, w) == want


def test_maximal_ideal_kernel_is_full_minus_one():
    hardy = oracles.hardy(2)
    ideal = IdealSpec.monomial(2, [(1, 0), (0, 1)])
    K = submodule_kernel(hardy, ideal)
    z = (F(1, 4), F(-1, 3))
    w = (F(2, 5), F(1, 6))
    assert K.eval_exact(z, w) == ambient_kernel_exact(hardy, z, w) - 1


def test_filtered_truncated_brackets_exact():
    m = WeightedPolydiscModule(2, (1, 2))
    ideal = IdealSpec.monomial(2, [(2, 1), (0, 3)])
    K = submodule_kernel(m, ideal)
    z = (F(1, 3), F(-1, 4))
    w = (F(1, 5), F(2, 7))
    exact = K.eval_exact(z, w)
    for N in (6, 10, 14):
        b = K.eval_truncated(z, w, N)
        assert abs(exact - b.value) <= b.bound


def test_fractional_weights_need_truncation():
    m = WeightedPolydiscModule(2, (F(1, 2), F(3, 2)))
    ideal = IdealSpec.monomial(2, [(1, 0)])
    K = submodule_kernel(m, ideal)
    z = (F(1, 3), F(1, 5))
    with pytest.raises(DomainError):
        K.eval_exact(z, z)
    b1 = K.eval_truncated(z, z, 10)
    b2 = K.eval_truncated(z, z, 20)
    assert b2.bound < b1.bound
    assert abs(b1.value - b2.value) <= b1.bound + b2.bound


def test_rank_one_corrected_kernel():
    hardy = oracles.hardy(2)
    g1 = parse_poly("z1 - 1/3", 2)
    g2 = parse_poly("z2", 2)
    ideal = IdealSpec(2, (g1, g2))
    assert ideal.family == "coordinate_vanishing"
    K = submodule_kernel(hardy, ideal)
    assert K.variant == "rank_one_corrected"
    a = (F(1, 3), F(0))
    z = (F(1, 5), F(1, 3))
    w = (F(1, 7), F(1, 2))
    assert K.eval_exact(a, a) == 0
    assert K.eval_exact(z, a) == 0
    full = ambient_kernel_exact(hardy, z, w)
    corr = (ambient_kernel_exact(hardy, z, a)
            * ambient_kernel_exact(hardy, a, w)
            / ambient_kernel_exact(hardy, a, a))
    assert K.eval_exact(z, w) == full - corr


def test_rank_one_bounded_correction():
    # fractional weights: the truncated correction is Bounded arithmetic in
    # the order K(z,w) - K(z,a) K(a,w) / K(a,a), so its remainder bound too
    mod = WeightedPolydiscModule(2, (F(1, 2), F(3, 2)))
    a = (F(1, 4), F(-1, 3))
    K = RankOneCorrectedKernel(mod, a)
    z = (F(1, 5), F(1, 3))
    w = (F(-1, 7), F(1, 2))
    N = 12
    b = [ambient_kernel_bounded(mod, x, y, N)
         for x, y in ((z, w), (z, a), (a, w), (a, a))]
    assert K.eval_truncated(z, w, N) == b[0] - b[1] * b[2] / b[3]
    hardy = oracles.hardy(1)
    assert RankOneCorrectedKernel(hardy, (F(1, 2),)).eval_exact(
        (F(1, 2),), (F(1, 2),)) == 0


def _candidates(ideal, degree):
    """Every monomial multiple z^beta p_j of degree <= N, in the order
    from_ideal scans them."""
    return [g.shift_by_monomial(beta) for g in ideal.generators
            for beta in iter_multiindices(ideal.nvars, degree - g.degree)]


def _gram_schmidt_kernel(module, polys):
    """The Gram form's reference: the kernel (z, w) -> sum_i o_i(z) o_i(w)
    / <o_i, o_i> of the span of polys, over an unnormalized Gram-Schmidt
    run in the monomial inner product <z^a, z^a> = 1 / c_a, for real
    rational points.  It shares no echelon form, null vector or Bareiss
    sweep with GramFormKernel."""
    norm = {}

    def inner(p, q):
        return sum(x * q[a] * norm[a] for a, x in p.items() if a in q)
    basis = []
    for poly in polys:
        p = dict(poly.coeffs)
        for a in p:
            if a not in norm:
                norm[a] = 1 / diag_coeff(module, a)
        for q, qq in basis:
            c = inner(p, q) / qq
            for a, x in q.items():
                p[a] = p.get(a, 0) - c * x
        p = {a: x for a, x in p.items() if x}
        if p:
            basis.append((p, inner(p, p)))

    def kernel(z, w):
        return sum(eval_terms(q, z) * eval_terms(q, w) / qq
                   for q, qq in basis)
    return kernel


def test_gram_form_matches_gram_schmidt_oracle():
    m = WeightedPolydiscModule(2, (1, 2))
    ideal = IdealSpec.catalogued("product_difference", 2)
    gf = GramFormKernel.from_ideal(m, ideal, 4)
    z = (F(1, 3), F(1, 7))
    w = (F(-1, 4), F(2, 5))
    want = _gram_schmidt_kernel(m, _candidates(ideal, 4))(z, w)
    assert gf.eval_exact(z, w) == want


def test_gram_form_needs_enough_degree():
    m = oracles.hardy(2)
    ideal = IdealSpec.monomial(2, [(3, 0)])
    with pytest.raises(TruncationError):
        GramFormKernel.from_ideal(m, ideal, 2)


def test_kernel_symmetry_and_positivity():
    m = WeightedPolydiscModule(2, (1, 2))
    ideal = IdealSpec.monomial(2, [(1, 1)])
    K = submodule_kernel(m, ideal)
    pts = [(F(1, 3), F(1, 4)), (F(-1, 5), F(1, 2)), (F(2, 7), F(-1, 3))]
    # real rational points: conjugate symmetry reads as plain symmetry
    for p in pts:
        for q in pts:
            assert K.eval_exact(p, q) == K.eval_exact(q, p)
    gram = [[K.eval_exact(p, q) for q in pts] for p in pts]
    assert all(d > 0 for d in leading_principal_minors(gram))


# ---------------------------------------------------------------------------
# The fast paths against the direct computations they replace


def _reference_diagonal(module, gens, z, w, N):
    """Degree-N diagonal sum by enumerating every multi-index alpha with
    |alpha| <= N (kept iff some generator exponent divides it, or always
    when gens is None), with c_alpha from pochhammer and factorials."""
    x = [zi * wi for zi, wi in zip(z, w)]
    # per-slot terms poch(l, a)/a! x^a, tabulated so that m = 4, N = 30
    # (46k multi-indices) stays quick
    slot = [[pochhammer(l, a) / math.factorial(a) * xi ** a
             for a in range(N + 1)] for l, xi in zip(module.weights, x)]
    value = F(0)
    for alpha in iter_multiindices(module.dim, N):
        if gens is not None and not any(
                all(e <= a for e, a in zip(g, alpha)) for g in gens):
            continue
        term = F(1)
        for table, a in zip(slot, alpha):
            term *= table[a]
        value += term
    rho = max(abs(xi) for xi in x)
    return Bounded(value, oracles.diagonal_tail_bound_by_fractions(
        sum(module.weights), rho, N))


# generator exponent sets per dimension: one generator, nested, overlapping,
# and one with a zero exponent slot
_DIAGONAL_CASES = {
    1: [[(2,)], [(1,), (3,)]],
    2: [[(1, 1)], [(2, 1), (1, 2)], [(1, 0), (2, 3)], [(2, 0), (0, 3), (1, 1)]],
    3: [[(1, 0, 2)], [(2, 1, 0), (0, 1, 1), (1, 1, 1)], [(1, 0, 0), (1, 2, 0)]],
    4: [[(1, 0, 1, 0)], [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 2)]],
}
_WEIGHTS = {  # integer and half-integer weights
    1: [(F(2),), (F(1, 2),)],
    2: [(F(1), F(3)), (F(3, 2), F(1))],
    3: [(F(1), F(2), F(2)), (F(1, 2), F(2), F(5, 2))],
    4: [(F(1), F(1), F(3), F(2)), (F(3, 2), F(1), F(1, 2), F(2))],
}
_POINTS = [(F(1, 3), F(-1, 2), F(2, 5), F(1, 4)),
           (F(0), F(1, 5), F(-3, 7), F(0))]  # with zero coordinates


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [0, 1, 5, 30])
def test_diagonal_sums_match_multiindex_loop(m, N):
    z, w = (p[:m] for p in _POINTS)
    for ws in _WEIGHTS[m]:
        module = WeightedPolydiscModule(m, ws)
        for zz, ww in ((z, w), (w, w)):
            want = _reference_diagonal(module, None, zz, ww, N)
            assert ambient_kernel_bounded(module, zz, ww, N) == want
        if m == 4 and N == 30:
            continue  # one 46k-term reference per weight vector is enough
        for gens in _DIAGONAL_CASES[m]:
            K = DiagonalFilteredKernel(module, gens)
            for zz, ww in ((z, w), (w, w)):
                want = _reference_diagonal(module, gens, zz, ww, N)
                assert K.eval_truncated(zz, ww, N) == want


def test_diagonal_sum_m4_degree30_filtered():
    module = WeightedPolydiscModule(4, _WEIGHTS[4][1])
    gens = _DIAGONAL_CASES[4][1]
    z, w = _POINTS
    K = DiagonalFilteredKernel(module, gens)
    assert K.eval_truncated(z, w, 30) == _reference_diagonal(
        module, gens, z, w, 30)


def _reference_gram_basis(module, ideal, degree):
    """The greedy scan: a candidate is kept iff it raises the rank of the
    coefficient rows kept so far."""
    m = module.dim
    index = {a: k for k, a in enumerate(iter_multiindices(m, degree))}
    chosen, rows = [], []
    for g in ideal.generators:
        for beta in iter_multiindices(m, degree - g.degree):
            p = g.shift_by_monomial(beta)
            row = [F(0)] * len(index)
            for k, v in p.coeffs.items():
                row[index[k]] = v
            if mat_rank(rows + [row]) > len(chosen):
                chosen.append(p)
                rows.append(row)
    return chosen


_GRAM_IDEALS = [
    (WeightedPolydiscModule(2, (F(3, 2), F(2))),
     IdealSpec.catalogued("product_difference", 2)),
    (WeightedPolydiscModule(2, (F(1), F(2))),
     _ideal(2, "z1^2 - z2", "z1*z2")),
    (WeightedPolydiscModule(2, (F(2), F(1, 2))),
     _ideal(2, "z1^3 - z2^2")),
    (WeightedPolydiscModule(3, (F(1), F(3, 2), F(2))),
     _ideal(3, "z1*z2 - z3^2")),
    (WeightedPolydiscModule(3, (F(2, 3), F(3), F(5, 2))),
     _ideal(3, "z1 - z2*z3")),
    # Gram blocks larger than 1x1: the golden kernel/gram-blocks ideal, with
    # 2x2 blocks, and a unit at the origin whose complement is one block of
    # N + 1 polynomials
    (WeightedPolydiscModule(2, (F(1), F(3, 2))),
     _ideal(2, "z1^2 + z1*z2 + z2^2")),
    (WeightedPolydiscModule(2, (F(2), F(1, 2))),
     _ideal(2, "z1 + z2 + 1")),
]
_GRAM_DEGREES = {2: [4, 5, 6, 7, 8], 3: [4, 5, 6]}
_GRAM_CASES = [(degree, case) for case, (module, _) in enumerate(_GRAM_IDEALS)
               for degree in _GRAM_DEGREES[module.dim]]
_GRAM_POINTS = {2: [(F(1, 3), F(1, 7)), (F(-1, 4), F(2, 5)), (F(0), F(-1, 2))],
                3: [(F(1, 3), F(1, 7), F(-2, 5)), (F(-1, 4), F(2, 5), F(0)),
                    (F(0), F(-1, 2), F(3, 8))]}


@pytest.mark.parametrize("degree,case", _GRAM_CASES)
def test_gram_form_matches_rank_scan_and_solve(degree, case):
    """The direct Gram form b(z)^T G^{-1} b(w) over the chosen basis, with G
    built here by poly_inner, is the reference for the ambient sum minus
    the complement correction."""
    module, ideal = _GRAM_IDEALS[case]
    K = GramFormKernel.from_ideal(module, ideal, degree)
    basis = _basis_polys(K)
    assert basis == _reference_gram_basis(module, ideal, degree)
    G = [[poly_inner(module, p, q) for q in basis] for p in basis]
    points = _GRAM_POINTS[module.dim]
    for w in points:
        x = mat_solve(G, [evaluate_poly(p, w) for p in basis])
        for z in points:
            bz = [evaluate_poly(p, z) for p in basis]
            assert K.eval_exact(z, w) == sum(a * b for a, b in zip(bz, x))


@pytest.mark.parametrize("case", range(len(_GRAM_IDEALS)))
def test_gram_form_complement_fills_degree_n(case):
    """basis and complement split the C(N+m, m) polynomials of degree <= N
    into orthogonal parts, and the blocks make up the complement's Gram
    matrix."""
    module, ideal = _GRAM_IDEALS[case]
    m = module.dim
    for degree in _GRAM_DEGREES[m]:
        K = GramFormKernel.from_ideal(module, ideal, degree)
        basis, complement = _basis_polys(K), oracles.gram_complement(K)
        assert len(K.basis) + len(complement) == math.comb(degree + m, m)
        assert all(poly_inner(module, f, b) == 0
                   for f in complement for b in basis)
        assert _assembled_gram(K) == [
            [poly_inner(module, f, g) for g in complement]
            for f in complement]


def test_product_difference_complement_is_two():
    """The complement of product_difference has the size of the localization
    dimension at the origin, whatever the degree."""
    module = WeightedPolydiscModule(2, (F(1), F(5, 2)))
    ideal = IdealSpec.catalogued("product_difference", 2)
    for degree in range(2, 11):
        K = GramFormKernel.from_ideal(module, ideal, degree)
        assert len(K.terms) == 2


def test_gram_form_rejects_indefinite_gram():
    m = oracles.hardy(2)
    # the complement z1, z2, z1*z2 in integers: D_j = 1 and den = 1
    terms = [[((1, 0), 1)], [((0, 1), 1)], [((1, 1), 1)]]
    for blocks in ((((0, 1), [[1, 2], [2, 1]]), ((2,), [[1]])),
                   (((0, 1), [[1, 1], [1, 1]]), ((2,), [[1]])),
                   (((0, 1), [[0, 1], [1, 2]]), ((2,), [[1]])),
                   (((0,), [[1]]), ((1,), [[2]]), ((2,), [[-1]])),
                   (((0,), [[1]]), ((1,), [[0]]), ((2,), [[1]])),
                   # block {0, 2} with determinant -3 around the 1x1 block {1}
                   (((0, 2), [[1, 2], [2, 1]]), ((1,), [[1]]))):
        with pytest.raises(DomainError):
            GramFormKernel(m, (), terms, (1, 1, 1), blocks, 1, 2)


def test_gram_form_interleaved_blocks():
    """A positive definite H whose blocks {0, 2} and {1} interleave: the
    block correction is f(z)^T H^{-1} f(w) by a dense solve."""
    m = WeightedPolydiscModule(2, (F(3, 2), F(1)))
    complement = [parse_poly("z1", 2), parse_poly("z2", 2),
                  parse_poly("1/2*z1*z2 - z2^2", 2)]
    H = [[F(2), F(0), F(1, 3)], [F(0), F(3, 4), F(0)], [F(1, 3), F(0), F(5)]]
    # in integers, with D = (1, 1, 2) and den = 12: F_j = den D_j f_j and
    # M_jk = den D_j D_k H_jk
    K = GramFormKernel(m, (), [[((1, 0), 12)], [((0, 1), 12)],
                               [((1, 1), 12), ((0, 2), -24)]], (1, 1, 2),
                       [((0, 2), [[24, 8], [8, 240]]), ((1,), [[9]])], 12, 2)
    assert _assembled_gram(K) == H
    z, w = (F(1, 3), F(-2, 5)), (F(1, 2), F(1, 7))
    x = mat_solve(H, [evaluate_poly(f, w) for f in complement])
    form = sum(evaluate_poly(f, z) * y for f, y in zip(complement, x))
    assert K.eval_exact(z, w) == (ambient_kernel_bounded(m, z, w, 2).value
                                  - form)


def _assert_matches_gram_schmidt(module, ideal, degree, points):
    K = GramFormKernel.from_ideal(module, ideal, degree)
    kernel = _gram_schmidt_kernel(module, _candidates(ideal, degree))
    for z in points:
        for w in points:
            assert K.eval_exact(z, w) == kernel(z, w)
    return K


@pytest.mark.parametrize("degree,case", _GRAM_CASES)
def test_gram_form_by_components_matches_full_sweep(degree, case):
    """The basis picked component by component spans V_N: its own
    Gram-Schmidt kernel is the Gram form."""
    module, ideal = _GRAM_IDEALS[case]
    K = GramFormKernel.from_ideal(module, ideal, degree)
    kernel = _gram_schmidt_kernel(module, _basis_polys(K))
    points = _GRAM_POINTS[module.dim][:2]
    assert [K.eval_exact(z, w) for z in points for w in points] == \
        [kernel(z, w) for z in points for w in points]


# ideals whose components hold several complement polynomials, so that H
# has blocks larger than 1x1: up to 6 for the pair at N = 5, 6, and one
# block of 21 out of 30 for the cubic at N = 10
_MULTI_BLOCK = [
    (3, ("z1 - z2*z3 + z1^2", "z2^2 - z1*z3"), 5),
    (3, ("z1 - z2*z3 + z1^2", "z2^2 - z1*z3"), 6),
    (2, ("z1^3 - z2^2 + z1*z2",), 8),
    (2, ("z1^3 - z2^2 + z1*z2",), 10),
]
_weight = st.fractions(min_value=F(1, 3), max_value=F(4), max_denominator=3)
_coord = st.fractions(min_value=F(-3, 4), max_value=F(3, 4),
                      max_denominator=8)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_MULTI_BLOCK), st.lists(_weight, min_size=3,
                                               max_size=3),
       st.lists(st.lists(_coord, min_size=3, max_size=3), min_size=2,
                max_size=2))
def test_multi_block_gram_form_matches_full_sweep(case, weights, points):
    m, gens, degree = case
    module = WeightedPolydiscModule(m, weights[:m])
    ideal = _ideal(m, *gens)
    K = _assert_matches_gram_schmidt(module, ideal, degree,
                                     [tuple(p[:m]) for p in points])
    assert any(len(block) > 1 for block, _ in K.gram)


@pytest.mark.parametrize("module,ideal,degree", [
    *((module, ideal, degree) for degree, case in _GRAM_CASES
      for module, ideal in [_GRAM_IDEALS[case]]),
    *((WeightedPolydiscModule(m, (F(3, 2), F(1, 3), F(2))[:m]),
       _ideal(m, *gens), degree) for m, gens, degree in _MULTI_BLOCK)])
def test_gram_blocks_partition_the_complement_orthogonally(module, ideal,
                                                           degree):
    """The blocks' indices partition range(len(complement)), and every
    inner product between the f of two different blocks is 0."""
    K = GramFormKernel.from_ideal(module, ideal, degree)
    blocks, complement = oracles.gram_blocks(K), oracles.gram_complement(K)
    indices = [j for block, _ in blocks for j in block]
    assert sorted(indices) == list(range(len(complement)))
    for b, (block, _) in enumerate(blocks):
        for other, _ in blocks[b + 1:]:
            assert all(poly_inner(module, complement[j], complement[k]) == 0
                       for j in block for k in other)


@pytest.mark.parametrize("exponents", [
    [(2, 0, 0), (0, 1, 1)],
    [(1, 1, 0), (0, 2, 1), (0, 0, 3)],
    [(1, 0, 2)],
])
def test_gram_form_of_monomial_ideal_is_the_diagonal_sum(exponents):
    """For a monomial ideal every component is one monomial, so H is
    diagonal and the Gram form is DiagonalFilteredKernel's degree-N partial
    sum, at fractional weights too."""
    module = WeightedPolydiscModule(3, (F(1, 2), F(5, 3), F(3, 2)))
    ideal = IdealSpec.monomial(3, exponents)
    diagonal = DiagonalFilteredKernel(module, exponents)
    points = _GRAM_POINTS[3]
    for degree in (4, 6):
        K = GramFormKernel.from_ideal(module, ideal, degree)
        assert all(len(block) == 1 for block, _ in K.gram)
        for z in points:
            for w in points:
                assert K.eval_exact(z, w) == diagonal.eval_truncated(
                    z, w, degree).value


@pytest.mark.parametrize("weights", [(F(1), F(2)), (F(1, 2), F(3, 2), F(2)),
                                     (F(3), F(1, 3))])
def test_gram_form_of_point_ideal_is_the_rank_one_sum(weights):
    """V_N for <z_i - a_i> is the polynomials of degree <= N vanishing at a,
    whose complement in P_N is spanned by K_N(., a): the Gram form is the
    rank-one correction of the degree-N ambient sums, exactly."""
    m = len(weights)
    module = WeightedPolydiscModule(m, weights)
    a = (F(1, 4), F(-1, 3), F(2, 5))[:m]
    ideal = IdealSpec(m, tuple(Poly.variable(m, i) - x
                               for i, x in enumerate(a)))
    rank_one = RankOneCorrectedKernel(module, a)
    points = [(F(1, 3), F(1, 7), F(-2, 5))[:m], (F(-1, 2), F(0), F(3, 8))[:m]]
    for N in (3, 5):
        K = GramFormKernel.from_ideal(module, ideal, N)
        for z in points:
            for w in points:
                assert K.eval_exact(z, w) == \
                    rank_one.eval_truncated(z, w, N).value


@pytest.mark.parametrize("case", range(len(_GRAM_IDEALS)))
def test_gram_form_diagonal_never_decreases_in_degree(case):
    """V_N lies in V_(N+1), so K_N(z, z), the largest |f(z)|^2/||f||^2 over
    f in V_N, cannot fall as N grows."""
    module, ideal = _GRAM_IDEALS[case]
    for z in _GRAM_POINTS[module.dim]:
        values = [GramFormKernel.from_ideal(module, ideal, N).eval_exact(z, z)
                  for N in range(ideal.max_degree, 8)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def _homogeneous(ideal):
    return all(len({sum(k) for k in g.coeffs}) == 1
               for g in ideal.generators)


# the _GRAM_IDEALS cases whose generators are homogeneous, and one more
# module for z1*z2 - z3^2
_HOMOGENEOUS_GRAM_IDEALS = [
    case for case in _GRAM_IDEALS if _homogeneous(case[1])] + [
    (WeightedPolydiscModule(3, (F(1), F(2), F(1, 2))),
     _ideal(3, "z1*z2 - z3^2"))]


@pytest.mark.parametrize("case", range(len(_HOMOGENEOUS_GRAM_IDEALS)))
def test_gram_form_diagonal_bracket_for_homogeneous_ideals(case):
    """Monomials are orthogonal, so for homogeneous generators [I] is the
    orthogonal sum of its graded pieces.  Between degrees N and 9 the
    diagonal then gains the kernel of the pieces of degree N+1..9: at
    least 0, and at most the ambient K_9(z, z) - K_N(z, z)."""
    module, ideal = _HOMOGENEOUS_GRAM_IDEALS[case]
    top = 9
    for z in _GRAM_POINTS[module.dim]:
        high = GramFormKernel.from_ideal(module, ideal, top).eval_exact(z, z)
        ambient_high = ambient_kernel_bounded(module, z, z, top).value
        for N in range(ideal.max_degree, 8):
            low = GramFormKernel.from_ideal(module, ideal, N).eval_exact(z, z)
            tail = ambient_high - ambient_kernel_bounded(module, z, z, N).value
            assert low <= high <= low + tail, (N, z)


def test_homogeneous_gram_cases():
    # the bracket covers the named ideals, and skips inhomogeneous ones
    cases = [(module.weights, ideal.generators)
             for module, ideal in _HOMOGENEOUS_GRAM_IDEALS]
    assert ((F(1), F(3, 2)),
            _ideal(2, "z1^2 + z1*z2 + z2^2").generators) in cases
    assert ((F(1), F(2), F(1, 2)),
            _ideal(3, "z1*z2 - z3^2").generators) in cases
    assert not _homogeneous(_ideal(2, "z1^2 - z2", "z1*z2"))


# ---------------------------------------------------------------------------
# The integer kernel routes against their references in tests/oracles.py,
# and the remainder bound against the tail it bounds


def _poch_terms(L, rho, start, stop):
    """poch(L, n)/n! rho^n for start <= n < stop, in Fractions."""
    term = pochhammer(L, start) / math.factorial(start) * rho ** start
    for n in range(start, stop):
        yield term
        term *= rho * (L + n) / (n + 1)


_total_weight = st.fractions(min_value=F(1, 6), max_value=F(24),
                             max_denominator=6)
_rho_near_one = st.one_of(
    st.integers(2, 20).map(lambda k: 1 - F(1, k)),
    st.fractions(min_value=F(1, 2), max_value=F(19, 20),
                 max_denominator=60))
# L > 1, N and j >= 0 with rho chosen so that the term ratio
# rho (L + n)/(n + 1) is exactly 1 at n = N + 1 + j
_unit_ratio_draw = st.builds(
    lambda L, N, j: (L, (N + 2 + j) / (L + N + 1 + j), N),
    st.fractions(min_value=F(7, 6), max_value=F(24), max_denominator=6),
    st.integers(0, 6), st.integers(0, 20))


def test_tail_bound_integer_route_equals_fraction_route():
    """Small N, rho near 1 and large L, so that most draws sum exact terms
    before the geometric close; some hit a term ratio of exactly 1."""
    looped, unit_ratio = [], []

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(_total_weight, _rho_near_one,
                               st.integers(0, 6)), _unit_ratio_draw))
    def check(draw):
        L, rho, N = draw
        assert _diagonal_tail_bound(L, rho, N) == \
            oracles.diagonal_tail_bound_by_fractions(L, rho, N)
        n = N + 1
        ratio = rho * (L + n) / (n + 1)
        if ratio >= 1:
            looped.append(draw)
        while ratio > 1:
            n += 1
            ratio = rho * (L + n) / (n + 1)
        if ratio == 1:
            unit_ratio.append(draw)

    check()
    assert len(looped) >= 120
    assert len(unit_ratio) >= 40


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), _rho_near_one, st.integers(0, 8))
def test_tail_bound_covers_the_integer_weight_tail(L, rho, N):
    """(1 - rho)^(-L) - sum_{n <= N} poch(L, n)/n! rho^n <= bound."""
    head = sum(_poch_terms(F(L), rho, 0, N + 1))
    assert 0 < (1 - rho) ** (-L) - head <= _diagonal_tail_bound(F(L), rho, N)


@settings(max_examples=60, deadline=None)
@given(st.fractions(min_value=F(1, 6), max_value=F(6), max_denominator=6),
       st.fractions(min_value=F(1, 10), max_value=F(9, 10),
                    max_denominator=10),
       st.integers(0, 4))
def test_tail_bound_exceeds_every_partial_tail(L, rho, N):
    """At fractional L, L < 1 included, where the term ratios rise toward
    rho: the bound is above 120 terms of the tail."""
    assert sum(_poch_terms(L, rho, N + 1, N + 121)) <= \
        _diagonal_tail_bound(L, rho, N)


def test_bounded_sum_contains_the_kernel_below_unit_weight():
    """Weight 1/2 in one variable: K(z, z) = (1 - z^2)^(-1/2) = 4/sqrt(7) at
    z = 3/4 lies in [value - bound, value + bound] (compared by squares)."""
    module = WeightedPolydiscModule(1, (F(1, 2),))
    for N in (0, 5, 20):
        b = ambient_kernel_bounded(module, (F(3, 4),), (F(3, 4),), N)
        assert (b.value - b.bound) ** 2 <= F(16, 7) <= (b.value + b.bound) ** 2


def test_bounded_has_no_tuple_arithmetic():
    """A Bounded defines -, * and / on intervals only: + and a repeat by an
    int raise rather than concatenate, and it equals no tuple."""
    b = Bounded(F(1, 2), F(1, 8))
    for op in (lambda: b + b, lambda: 2 * b):
        with pytest.raises(TypeError):
            op()
    assert b != (F(1, 2), F(1, 8))
    assert b == Bounded(F(1, 2), F(1, 8))
    assert b - b == Bounded(F(0), F(1, 4))


def test_integer_ambient_kernel_equals_fraction_powers():
    for m in (1, 2, 3, 4):
        for ws in (_WEIGHTS[m][0], tuple(F(k) for k in (3, 1, 4, 2)[:m])):
            module = WeightedPolydiscModule(m, ws)
            for z in (p[:m] for p in _POINTS):
                for w in (p[:m] for p in _POINTS):
                    assert _diagonal_exact(module, _ambient_corners(module),
                                           z, w) == \
                        ambient_kernel_exact(module, z, w)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_filtered_closed_form_equals_corner_loop(m):
    points = [p[:m] for p in _POINTS] + [(F(-2, 3), F(5, 6), F(-1, 9),
                                          F(3, 4))[:m]]
    for ws in (_WEIGHTS[m][0], tuple(F(k) for k in (3, 1, 4, 2)[:m])):
        module = WeightedPolydiscModule(m, ws)
        for gens in _DIAGONAL_CASES[m]:
            K = DiagonalFilteredKernel(module, gens)
            for z in points:
                for w in points:
                    assert K.eval_exact(z, w) == \
                        oracles.filtered_kernel_by_corner_loop(K, z, w)


@pytest.mark.parametrize("weights", [(F(1), F(2)), (F(1, 2), F(3, 2))])
def test_rank_one_reuse_equals_four_calls(weights):
    """K(a, a) kept per degree, K(a, z) read as K(z, a) at w = z: the same
    values as four ambient evaluations, across degrees and at the point."""
    module = WeightedPolydiscModule(2, weights)
    a = (F(1, 4), F(-1, 3))
    K = RankOneCorrectedKernel(module, a)
    points = [(F(1, 5), F(1, 3)), (F(-1, 7), F(1, 2)), a, (F(0), F(2, 3))]
    for N in (12, 5, 12):
        for z in points:
            for w in points:
                assert K.eval_truncated(z, w, N) == \
                    oracles.rank_one_by_four_calls(K, z, w, N)
    for z in points:
        for w in points:
            if module.has_integer_weights():
                assert K.eval_exact(z, w) == \
                    oracles.rank_one_by_four_calls(K, z, w)
            else:
                with pytest.raises(DomainError):
                    K.eval_exact(z, w)


def test_rank_one_sums_each_kernel_value_once(monkeypatch):
    from submodcurv import rkhs
    calls = []
    diagonal_sum = rkhs._diagonal_sum
    monkeypatch.setattr(rkhs, "_diagonal_sum",
                        lambda *args: calls.append(args) or diagonal_sum(*args))
    K = RankOneCorrectedKernel(WeightedPolydiscModule(2, (F(1, 2), F(3, 2))),
                               (F(1, 4), F(-1, 3)))
    z, w = (F(1, 5), F(1, 3)), (F(-1, 7), F(1, 2))
    counts = []
    for args in ((z, z, 12), (z, z, 12), (z, w, 12), (z, z, 8)):
        K.eval_truncated(*args)
        counts.append(len(calls))
    # K(z, a), K(a, a), K(z, z); then K(a, a) is kept; K(a, w) is one more;
    # a new degree sums its own K(a, a)
    assert counts == [3, 5, 8, 11]


_PRINCIPAL_M3 = (WeightedPolydiscModule(3, (F(5, 2), F(1, 3), F(2))),
                 _ideal(3, "z1*z2*z3 - z1^2 + z2"))


@pytest.mark.parametrize("degree,case",
                         _GRAM_CASES + [(6, len(_GRAM_IDEALS))])
def test_gram_complement_from_restricted_table_equals_full_table(degree,
                                                                  case):
    """The complement f, with c_a read only where a null vector is
    nonzero, spans the orthogonal complement of V_N in P_N: its
    Gram-Schmidt kernel is the ambient degree-N sum minus K."""
    module, ideal = [*_GRAM_IDEALS, _PRINCIPAL_M3][case]
    K = GramFormKernel.from_ideal(module, ideal, degree)
    kernel = _gram_schmidt_kernel(module, oracles.gram_complement(K))
    z, w = _GRAM_POINTS[module.dim][:2]
    assert kernel(z, w) == \
        ambient_kernel_bounded(module, z, w, degree).value - K.eval_exact(z, w)


@pytest.mark.parametrize("degree,case", _GRAM_CASES)
def test_gram_form_integer_route_equals_fraction_route(degree, case):
    """The integer Gram form at every pair of the three points, against
    the Gram-Schmidt kernel of the candidates."""
    module, ideal = _GRAM_IDEALS[case]
    _assert_matches_gram_schmidt(module, ideal, degree,
                                 _GRAM_POINTS[module.dim])


_SMALL_EXPONENTS = list(iter_multiindices(2, 3))
_small_generator = st.dictionaries(
    st.sampled_from(_SMALL_EXPONENTS), st.integers(-3, 3).filter(bool),
    min_size=1, max_size=4).map(lambda coeffs: Poly(2, coeffs))
_small_weight = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(3)])


@settings(max_examples=100, deadline=None)
@given(st.lists(_small_generator, min_size=1, max_size=2),
       st.lists(_small_weight, min_size=2, max_size=2),
       st.lists(st.lists(_coord, min_size=2, max_size=2), min_size=2,
                max_size=2),
       st.data())
def test_drawn_gram_forms_agree_on_both_routes(gens, weights, points, data):
    """One or two generators of degree <= 3 in two variables with small
    integer coefficients (a constant among them makes the unit ideal,
    whose complement is empty), at N <= 6."""
    ideal = IdealSpec(2, tuple(gens))
    degree = data.draw(st.integers(max(ideal.max_degree, 1), 6))
    _assert_matches_gram_schmidt(WeightedPolydiscModule(2, weights), ideal,
                                 degree, [tuple(p) for p in points])


# ---------------------------------------------------------------------------
# K_[I] = K_N^I + (K - K_N) for an ideal that holds every monomial of some
# degree k, with K_[I] = K - K_C built here without GramFormKernel


def _kernel_by_orthocomplement(module, ideal, k, z):
    """(K(z, z) - K_C(z, z), dim C) for C = [I]^perp, given that I holds
    every monomial of degree k.  Then C lies in P_(k-1), and f = sum_a
    c_a phi_a z^a is orthogonal to I iff phi is orthogonal to the terms of
    degree < k of every multiple z^beta p_j, of which only |beta| < k have
    any: phi runs over a nullspace, and K_C over a Gram-Schmidt basis."""
    m = module.dim
    low = list(iter_multiindices(m, k - 1))
    rows = [[q.coeffs.get(a, F(0)) for a in low]
            for g in ideal.generators for beta in iter_multiindices(m, k - 1)
            for q in [g.shift_by_monomial(beta)]]
    C = [Poly(m, {a: diag_coeff(module, a) * x for a, x in zip(low, phi)})
         for phi in oracles.nullspace(rows)]
    return (ambient_kernel_exact(module, z, z)
            - _gram_schmidt_kernel(module, C)(z, z)), len(C)


_CERTIFIED_MODULE = WeightedPolydiscModule(2, (F(1), F(2)))
_CERTIFIED_POINT = (F(1, 3), F(1, 5))


@pytest.mark.parametrize("gens,k,colength,value,degrees", [
    (("z1*z2", "z1 - z2"), 2, 2, F(14323, 345600), (2, 4, 6, 8, 10)),
    # an H-basis: its multiples of degree <= N span I cap P_N from N = 3
    (("z1 - z2^2", "z2^3", "z1^2"), 3, 3, F(257257, 2880000), range(3, 11)),
])
def test_gram_form_misses_exactly_the_ambient_tail(gens, k, colength, value,
                                                   degrees):
    module, z = _CERTIFIED_MODULE, _CERTIFIED_POINT
    ideal = _ideal(2, *gens)
    exact, size = _kernel_by_orthocomplement(module, ideal, k, z)
    assert (exact, size) == (value, colength)
    ambient = ambient_kernel_exact(module, z, z)
    for N in degrees:
        tail = ambient - ambient_kernel_bounded(module, z, z, N).value
        assert GramFormKernel.from_ideal(module, ideal, N).eval_exact(
            z, z) + tail == exact, N


def test_gram_form_of_a_non_h_basis_misses_more_than_the_tail():
    """<z1 - z2^2, z2^3> is the ideal above, so K_[I] is the same, but its
    multiples of degree <= N span 3 dimensions less than I cap P_N for
    N = 3..10 (gram basis 4 against 7 at N = 3): the Gram form plus the
    ambient tail stays below K_[I]."""
    module, z = _CERTIFIED_MODULE, _CERTIFIED_POINT
    ideal = _ideal(2, "z1 - z2^2", "z2^3")
    exact, _ = _kernel_by_orthocomplement(module, ideal, 3, z)
    assert exact == F(257257, 2880000)
    ambient = ambient_kernel_exact(module, z, z)
    for N in range(3, 11):
        tail = ambient - ambient_kernel_bounded(module, z, z, N).value
        assert GramFormKernel.from_ideal(module, ideal, N).eval_exact(
            z, z) + tail < exact, N


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=F(1, 7), max_value=6,
                             max_denominator=12), min_size=1, max_size=4),
       st.integers(0, 9))
def test_diag_coeff_rows_are_the_slots_in_lowest_terms(weights, N):
    """The integer rows hold the Fraction slots poch(l, n)/n! in lowest
    terms, and cleared_row puts each row over the lcm S of its
    denominators as the integers R[n] = S poch(l, n)/n!."""
    module = WeightedPolydiscModule(len(weights), weights)
    rows = diag_coeff_rows(module.weights, N)
    for (nums, dens), row in zip(rows, diag_coeff_slots(module, N)):
        assert all(math.gcd(x, d) == 1 and d > 0 for x, d in zip(nums, dens))
        assert [F(x, d) for x, d in zip(nums, dens)] == list(row)
        R, S = cleared_row((nums, dens))
        assert S == math.lcm(*(x.denominator for x in row))
        assert all(type(x) is int for x in R)
        assert [F(x, S) for x in R] == list(row)


@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=9)
                | st.sampled_from((F(1), F(-1), F(0))), min_size=1,
                max_size=4))
def test_in_open_polydisc_compares_in_integers(point):
    """The integer test |numerator| < denominator that the point checks of
    rkhs, cli and frames share is |x| < 1, on the boundary +-1 too."""
    assert in_open_polydisc(point) == all(abs(x) < 1 for x in point)
