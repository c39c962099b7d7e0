import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv.algebra import iter_multiindices, pochhammer
from submodcurv.errors import DomainError, ShapeError, TruncationError
from submodcurv.ideals import IdealSpec
from submodcurv.linalg import (BareissFactor, RowEchelon,
                               leading_principal_minors, mat_det, mat_rank,
                               mat_solve)
from submodcurv.polynomials import Poly, parse_poly
from submodcurv.rkhs import (Bounded, DiagonalFilteredKernel, GramFormKernel,
                             RankOneCorrectedKernel, WeightedPolydiscModule,
                             _ambient_exact, _diagonal_tail_bound,
                             ambient_kernel_bounded, diag_coeff,
                             submodule_kernel)

import oracles
from oracles import ambient_kernel_exact, monomial_norm_sq, poly_inner


def test_module_validation():
    m = WeightedPolydiscModule(2, (1, 2))
    assert m.weights == (F(1), F(2))
    assert m.has_integer_weights()
    assert not WeightedPolydiscModule(2, (F(1, 2), 1)).has_integer_weights()
    with pytest.raises(DomainError):
        WeightedPolydiscModule(2, (1, 0))
    with pytest.raises(DomainError):
        WeightedPolydiscModule(2, (1, 1, 1))
    assert WeightedPolydiscModule.hardy(3).weights == (F(1),) * 3


def test_diag_coeff_values():
    hardy = WeightedPolydiscModule.hardy(2)
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
    hardy = WeightedPolydiscModule.hardy(2)
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
    hardy = WeightedPolydiscModule.hardy(2)
    ideal = IdealSpec.monomial(2, [(1, 0)])
    K = submodule_kernel(hardy, ideal)
    assert K.variant == "diagonal_filtered"
    z = (F(1, 5), F(1, 3))
    w = (F(1, 7), F(1, 2))
    x1, x2 = F(1, 5) * F(1, 7), F(1, 3) * F(1, 2)
    want = x1 / ((1 - x1) * (1 - x2))
    assert K.eval_exact(z, w) == want


def test_maximal_ideal_kernel_is_full_minus_one():
    hardy = WeightedPolydiscModule.hardy(2)
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
    hardy = WeightedPolydiscModule.hardy(2)
    g1 = parse_poly("z1 - 1/3", 2)
    g2 = parse_poly("z2", 2)
    ideal = IdealSpec.from_generators(2, [g1, g2])
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
    hardy = WeightedPolydiscModule.hardy(1)
    assert RankOneCorrectedKernel(hardy, (F(1, 2),)).eval_exact(
        (F(1, 2),), (F(1, 2),)) == 0


def _gram_schmidt_kernel(module, polys, z, w):
    """Orthogonal-basis oracle: K(z, w) = sum o_i(z) o_i(w) / <o_i, o_i>
    over an unnormalized Gram-Schmidt run, for real rational points."""
    basis = []
    for p in polys:
        for q in basis:
            p = p - q * Poly.constant(
                module.dim, poly_inner(module, p, q) / poly_inner(module, q, q))
        if not p.is_zero():
            basis.append(p)
    total = F(0)
    for q in basis:
        total += q.evaluate(z) * q.evaluate(w) / poly_inner(module, q, q)
    return total


def test_gram_form_matches_gram_schmidt_oracle():
    m = WeightedPolydiscModule(2, (1, 2))
    ideal = IdealSpec.catalogued("product_difference", 2)
    gf = GramFormKernel.from_ideal(m, ideal, 4)
    # candidate list: all monomial multiples z^beta p_j with degree <= 4
    polys = []
    from submodcurv.algebra import iter_multiindices
    for g in ideal.generators:
        for beta in iter_multiindices(2, 4 - g.degree):
            polys.append(g.shift_by_monomial(beta))
    z = (F(1, 3), F(1, 7))
    w = (F(-1, 4), F(2, 5))
    want = _gram_schmidt_kernel(m, polys, z, w)
    assert gf.eval_exact(z, w) == want


def test_gram_form_needs_enough_degree():
    m = WeightedPolydiscModule.hardy(2)
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
     IdealSpec.from_generators(2, [parse_poly("z1^2 - z2", 2),
                                   parse_poly("z1*z2", 2)])),
    (WeightedPolydiscModule(2, (F(2), F(1, 2))),
     IdealSpec.from_generators(2, [parse_poly("z1^3 - z2^2", 2)])),
    (WeightedPolydiscModule(3, (F(1), F(3, 2), F(2))),
     IdealSpec.from_generators(3, [parse_poly("z1*z2 - z3^2", 3)])),
    (WeightedPolydiscModule(3, (F(2, 3), F(3), F(5, 2))),
     IdealSpec.from_generators(3, [parse_poly("z1 - z2*z3", 3)])),
    # Gram blocks larger than 1x1: the golden kernel/gram-blocks ideal, with
    # 2x2 blocks, and a unit at the origin whose complement is one block of
    # N + 1 polynomials
    (WeightedPolydiscModule(2, (F(1), F(3, 2))),
     IdealSpec.from_generators(2, [parse_poly("z1^2 + z1*z2 + z2^2", 2)])),
    (WeightedPolydiscModule(2, (F(2), F(1, 2))),
     IdealSpec.from_generators(2, [parse_poly("z1 + z2 + 1", 2)])),
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
    assert list(K.basis) == _reference_gram_basis(module, ideal, degree)
    H = K.gram
    assert K.gram_minors == [mat_det([row[:k] for row in H[:k]])
                             for k in range(1, len(H) + 1)]
    G = [[poly_inner(module, p, q) for q in K.basis] for p in K.basis]
    points = _GRAM_POINTS[module.dim]
    for w in points:
        x = mat_solve(G, [p.evaluate(w) for p in K.basis])
        for z in points:
            bz = [p.evaluate(z) for p in K.basis]
            assert K.eval_exact(z, w) == sum(a * b for a, b in zip(bz, x))


@pytest.mark.parametrize("case", range(len(_GRAM_IDEALS)))
def test_gram_form_complement_fills_degree_n(case):
    """basis and complement split the C(N+m, m) polynomials of degree <= N
    into orthogonal parts, and gram is the complement's Gram matrix."""
    module, ideal = _GRAM_IDEALS[case]
    m = module.dim
    for degree in _GRAM_DEGREES[m]:
        K = GramFormKernel.from_ideal(module, ideal, degree)
        assert len(K.basis) + len(K.complement) == math.comb(degree + m, m)
        assert all(poly_inner(module, f, b) == 0
                   for f in K.complement for b in K.basis)
        assert K.gram == [[poly_inner(module, f, g) for g in K.complement]
                          for f in K.complement]


def test_product_difference_complement_is_two():
    """The complement of product_difference has the size of the localization
    dimension at the origin, whatever the degree."""
    module = WeightedPolydiscModule(2, (F(1), F(5, 2)))
    ideal = IdealSpec.catalogued("product_difference", 2)
    for degree in range(2, 11):
        K = GramFormKernel.from_ideal(module, ideal, degree)
        assert len(K.complement) == 2


def test_gram_form_rejects_indefinite_gram():
    m = WeightedPolydiscModule.hardy(2)
    complement = [parse_poly("z1", 2), parse_poly("z2", 2),
                  parse_poly("z1*z2", 2)]
    for gram in ([[F(1), F(2), F(0)], [F(2), F(1), F(0)], [F(0), F(0), F(1)]],
                 [[F(1), F(1), F(0)], [F(1), F(1), F(0)], [F(0), F(0), F(1)]],
                 [[F(0), F(1), F(0)], [F(1), F(2), F(0)], [F(0), F(0), F(1)]],
                 [[F(1), F(0), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(-1)]],
                 [[F(1), F(0), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(1)]],
                 # block {0, 2} with determinant -3 around the 1x1 block {1}
                 [[F(1), F(0), F(2)], [F(0), F(1), F(0)], [F(2), F(0), F(1)]]):
        with pytest.raises(DomainError):
            GramFormKernel(m, [], complement, gram, 2)


def test_gram_form_needs_one_gram_row_per_complement():
    m = WeightedPolydiscModule.hardy(2)
    complement = [parse_poly("z1", 2), parse_poly("z2", 2)]
    for gram in ([[F(1)]], [[F(1), F(0)], [F(0)]],
                 [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]):
        with pytest.raises(ShapeError):
            GramFormKernel(m, [], complement, gram, 2)


def test_gram_form_interleaved_blocks():
    """A positive definite H whose blocks {0, 2} and {1} interleave: the
    leading minors in the original order are those of mat_det, and the
    block correction is f(z)^T H^{-1} f(w) by a dense solve."""
    m = WeightedPolydiscModule(2, (F(3, 2), F(1)))
    complement = [parse_poly("z1", 2), parse_poly("z2", 2),
                  parse_poly("1/2*z1*z2 - z2^2", 2)]
    H = [[F(2), F(0), F(1, 3)], [F(0), F(3, 4), F(0)], [F(1, 3), F(0), F(5)]]
    K = GramFormKernel(m, [], complement, H, 2)
    assert K.gram_minors == [mat_det([row[:k] for row in H[:k]])
                             for k in (1, 2, 3)]
    assert K.gram_minors == leading_principal_minors(H)
    z, w = (F(1, 3), F(-2, 5)), (F(1, 2), F(1, 7))
    x = mat_solve(H, [f.evaluate(w) for f in complement])
    form = sum(f.evaluate(z) * y for f, y in zip(complement, x))
    assert K.eval_exact(z, w) == (ambient_kernel_bounded(m, z, w, 2).value
                                  - form)


def _gram_form_by_full_sweep(module, ideal, degree):
    """The Gram form as one global computation: one echelon form over every
    candidate, one null vector per free column over all columns, the full
    Gram matrix by poly_inner and one BareissFactor sweep over all of it.
    Returns (basis, complement, gram, gram_minors, evaluate), where
    evaluate(z, w) is the ambient degree-N sum minus f(z)^T H^{-1} f(w)."""
    m = module.dim
    monomials = list(iter_multiindices(m, degree))
    index = {a: k for k, a in enumerate(monomials)}
    echelon = RowEchelon()
    basis = [p for g in ideal.generators
             for p in (g.shift_by_monomial(beta)
                       for beta in iter_multiindices(m, degree - g.degree))
             if echelon.add({index[a]: v for a, v in p.coeffs.items()})]
    nulls = [echelon.null_vector(k) for k in range(len(monomials))
             if k not in echelon.rows]
    complement = [Poly(m, {monomials[k]: diag_coeff(module, monomials[k]) * x
                           for k, x in g.items()}) for g in nulls]
    gram = [[poly_inner(module, f, g) for g in complement] for f in complement]
    factor = BareissFactor(gram)

    def evaluate(z, w):
        return (ambient_kernel_bounded(module, z, w, degree).value
                - factor.inverse_form([f.evaluate(z) for f in complement],
                                      [f.evaluate(w) for f in complement]))
    return basis, complement, gram, factor.leading_minors(), evaluate


def _assert_matches_full_sweep(module, ideal, degree, points):
    K = GramFormKernel.from_ideal(module, ideal, degree)
    basis, complement, gram, minors, evaluate = _gram_form_by_full_sweep(
        module, ideal, degree)
    assert list(K.basis) == basis
    assert list(K.complement) == complement
    assert K.gram == gram
    assert K.gram_minors == minors
    for z in points:
        for w in points:
            assert K.eval_exact(z, w) == evaluate(z, w)
    return K


@pytest.mark.parametrize("degree,case", _GRAM_CASES)
def test_gram_form_by_components_matches_full_sweep(degree, case):
    module, ideal = _GRAM_IDEALS[case]
    _assert_matches_full_sweep(module, ideal, degree,
                               _GRAM_POINTS[module.dim][:2])


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
    ideal = IdealSpec.from_generators(m, [parse_poly(g, m) for g in gens])
    K = _assert_matches_full_sweep(module, ideal, degree,
                                   [tuple(p[:m]) for p in points])
    assert K._factors  # the blocks larger than 1x1


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
        assert K._factors == []
        assert all(K.gram[j][k] == 0 for j in range(len(K.gram))
                   for k in range(len(K.gram)) if j != k)
        for z in points:
            for w in points:
                assert K.eval_exact(z, w) == diagonal.eval_truncated(
                    z, w, degree).value


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


def test_integer_ambient_kernel_equals_fraction_powers():
    for m in (1, 2, 3, 4):
        for ws in (_WEIGHTS[m][0], tuple(F(k) for k in (3, 1, 4, 2)[:m])):
            module = WeightedPolydiscModule(m, ws)
            for z in (p[:m] for p in _POINTS):
                for w in (p[:m] for p in _POINTS):
                    assert _ambient_exact(module, z, w) == \
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
                 IdealSpec.from_generators(
                     3, [parse_poly("z1*z2*z3 - z1^2 + z2", 3)]))


@pytest.mark.parametrize("degree,case",
                         _GRAM_CASES + [(6, len(_GRAM_IDEALS))])
def test_gram_complement_from_restricted_table_equals_full_table(degree,
                                                                  case):
    module, ideal = [*_GRAM_IDEALS, _PRINCIPAL_M3][case]
    K = GramFormKernel.from_ideal(module, ideal, degree)
    complement, gram = oracles.gram_complement_by_full_table(
        module, ideal, degree)
    assert list(K.complement) == complement
    assert [list(f.coeffs) for f in K.complement] == \
        [list(f.coeffs) for f in complement]
    assert K.gram == gram
