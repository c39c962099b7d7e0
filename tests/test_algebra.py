import operator
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv import algebra
from submodcurv.algebra import (SeriesMatrix, TruncSeries,
                                clean_terms, cofactor_det, format_ratios,
                                format_terms,
                                iter_multiindices, rat, series_inverse,
                                series_log)
from submodcurv.cli import parse_config
from submodcurv.curvature import curvature_tensor, principal_curvature_pair
from submodcurv.errors import (DomainError, ShapeError, SingularityError,
                               TruncationError)
from submodcurv.frames import decompose_coordinate_ideal, grammian
from submodcurv.ideals import IdealSpec, localization_dim
from submodcurv.invariants import (cubic_positive_roots, lambda_mu_invariants,
                                   polydisc_rigidity_report)
from submodcurv.linalg import mat_det, mat_solve
from submodcurv.polynomials import Poly
from submodcurv.rkhs import (DiagonalFilteredKernel, WeightedPolydiscModule,
                             ambient_kernel_bounded, diag_coeff)

from oracles import (coefficient, conj, evaluate_poly, evaluate_series,
                     format_terms_by_fraction_str, geometric_sum,
                     is_hermitian_by_pair_loop, mixed_hessian,
                     multiindices_by_recursion, pochhammer, series_exp,
                     series_identity, series_matmul, series_w)


def test_rat_coercion():
    assert rat(3) == F(3)
    assert rat(F(2, 7)) == F(2, 7)
    assert rat("5/3") == F(5, 3)
    with pytest.raises(DomainError):
        rat(0.5)


def test_pochhammer_values():
    assert pochhammer(F(1), 0) == 1
    assert pochhammer(F(1), 3) == 6
    assert pochhammer(F(2), 3) == 24
    assert pochhammer(F(1, 2), 2) == F(3, 4)
    assert pochhammer(F(3, 2), 1) == F(3, 2)


def test_multiindex_graded_lex_order():
    # ascending degree; within a degree the first coordinate runs down
    idx = list(iter_multiindices(2, 2))
    assert idx == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert all(type(a) is tuple for a in idx)
    assert list(iter_multiindices(3, 3, 3)) == \
        sorted((a for a in iter_multiindices(3, 3) if sum(a) == 3),
               reverse=True)


def test_multiindices_equal_the_recursive_walk_and_are_cached():
    """The cached tuple is the recursive walk it replaced, for every
    m <= 4, N <= 6 and lower degree, and a repeated call returns the same
    tuple object."""
    for m in range(1, 5):
        for top in range(7):
            for low in range(top + 2):
                walk = iter_multiindices(m, top, low)
                assert type(walk) is tuple
                assert walk == tuple(multiindices_by_recursion(m, top, low))
                assert iter_multiindices(m, top, low) is walk


_MODULE = WeightedPolydiscModule(2, (1, 2))

# where an exponent enters from outside the term arithmetic, with the
# message each gives for an exponent of the wrong width (1, 0, 0)
EXPONENT_ENTRIES = {
    "Poly": (lambda e: Poly(2, {e: 1}),
             "exponent (1, 0, 0) has length 3, expected 2"),
    "Poly.monomial": (lambda e: Poly.monomial(2, e),
                      "exponent (1, 0, 0) has length 3, expected 2"),
    "Poly.shift_by_monomial": (
        lambda e: Poly.variable(2, 0).shift_by_monomial(e),
        "multi-index length mismatch in +"),
    "TruncSeries": (lambda e: TruncSeries(1, 3, {e: 1}),
                    "exponent (1, 0, 0) has length 3, expected 2"),
    "DiagonalFilteredKernel": (lambda e: DiagonalFilteredKernel(_MODULE, [e]),
                               "generator exponent arity mismatch"),
    "diag_coeff": (lambda e: diag_coeff(_MODULE, e),
                   "multi-index arity 3 != dimension 2"),
}


@pytest.mark.parametrize("entry", EXPONENT_ENTRIES)
def test_exponent_entries_reject_bad_exponents(entry):
    build, width_message = EXPONENT_ENTRIES[entry]
    for exps, error, message in [
            ((-1, 0), DomainError, "negative exponent in multi-index (-1, 0)"),
            # an exponent that is not an int is rejected, not truncated
            ((F(1, 2), 0), DomainError,
             "non-integer exponent in multi-index (Fraction(1, 2), 0)"),
            ((F(2), 0), DomainError,
             "non-integer exponent in multi-index (Fraction(2, 1), 0)"),
            ((1.7, 0), DomainError,
             "non-integer exponent in multi-index (1.7, 0)"),
            (("x", 0), DomainError,
             "non-integer exponent in multi-index ('x', 0)"),
            (("1", 0), DomainError,
             "non-integer exponent in multi-index ('1', 0)"),
            ((None, 1), DomainError,
             "non-integer exponent in multi-index (None, 1)"),
            ((1, 0, 0), ShapeError, width_message)]:
        with pytest.raises(error, match=re.escape(message)):
            build(exps)
    # a valid exponent is stored as a plain tuple of ints
    built = build((True, 2))
    if isinstance(built, (Poly, TruncSeries)):
        assert all(type(k) is tuple and all(type(e) is int for e in k)
                   for k in built.coeffs)


def test_series_inverse_affine():
    # 1/(2 + w1) = 1/2 - w1/4 + O(2)
    s = TruncSeries.constant(1, 1, F(2)) + series_w(1, 1, 0)
    inv = series_inverse(s)
    assert inv.constant_term() == F(1, 2)
    assert coefficient(inv, (1,), (0,)) == F(-1, 4)
    assert (s * inv) == TruncSeries.one(1, 1)


def test_series_inverse_needs_unit():
    with pytest.raises(SingularityError):
        series_inverse(series_w(1, 2, 0))


def test_series_log_mercator():
    # log(1 + w1) = w1 - w1^2/2 + w1^3/3 + O(4)
    s = TruncSeries.one(1, 3) + series_w(1, 3, 0)
    ls = series_log(s)
    assert ls.scale == 1
    e = lambda k: coefficient(ls.series, (k,), (0,))
    assert e(1) == 1 and e(2) == F(-1, 2) and e(3) == F(1, 3)
    assert ls.series.constant_term() == 0


def test_series_exp_round_trip():
    s = (TruncSeries.one(2, 3) + series_w(2, 3, 0).scale(F(1, 3))
         + TruncSeries.wbar(2, 3, 1).scale(F(-2, 5)))
    back = series_exp(series_log(s).series)
    assert back == s  # scale 1 here


def test_mixed_hessian_szego_log():
    # -log(1 - w1 wb1) has mixed Hessian 1 at the origin
    x = series_w(1, 4, 0) * TruncSeries.wbar(1, 4, 0)
    k = geometric_sum(x)  # 1/(1 - x)
    assert mixed_hessian(series_log(k).series, 0, 0) == 1
    with pytest.raises(ShapeError):
        mixed_hessian(k, 1, 0)


def test_mixed_hessian_needs_degree_two():
    s = TruncSeries.one(1, 1)
    with pytest.raises(TruncationError):
        mixed_hessian(s, 0, 0)


def test_conj_swaps_halves():
    s = series_w(2, 2, 0) + TruncSeries.wbar(2, 2, 1).scale(F(3))
    c = conj(s)
    assert coefficient(c, (0, 0), (1, 0)) == 1
    assert coefficient(c, (0, 1), (0, 0)) == 3
    assert conj(c) == s


def test_evaluate():
    s = TruncSeries.one(2, 2) + series_w(2, 2, 1).scale(F(1, 2))
    assert evaluate_series(s, (F(0), F(1, 3)), (F(0), F(0))) == F(7, 6)


# -- property suite ----------------------------------------------------------

_coef = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4)


def _series_keys(npairs=2, trunc=3):
    # coefficient keys concatenate the w-half and the wbar-half
    return [w + wb
            for w in iter_multiindices(npairs, trunc)
            for wb in iter_multiindices(npairs, trunc)
            if sum(w) + sum(wb) <= trunc]


def _series_strategy(npairs=2, trunc=3):
    keys = _series_keys(npairs, trunc)

    def build(pairs):
        coeffs = {}
        for key, c in pairs:
            if c:
                coeffs[key] = c
        return TruncSeries(npairs, trunc, coeffs)

    return st.lists(
        st.tuples(st.sampled_from(keys), _coef), max_size=5).map(build)


@settings(max_examples=60, deadline=None)
@given(_series_strategy(), _series_strategy(), _series_strategy())
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert (a - b) + b == a


def test_mixed_term_maps_raise_shape_error():
    """A polynomial and a series, in either order, or two term maps of one
    type with different shapes, do not combine: +, - and * raise
    ShapeError, the library's own error, through the one shape check."""
    p, s = Poly.variable(2, 0), TruncSeries.one(1, 4)
    for a, b in [(p, s), (s, p), (p, Poly.variable(3, 0)),
                 (s, TruncSeries.one(1, 3)), (s, TruncSeries.one(2, 4))]:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ShapeError):
                op(a, b)


@settings(max_examples=60, deadline=None)
@given(_series_strategy(trunc=4), _series_strategy(trunc=4))
def test_series_and_poly_share_term_arithmetic(a, b):
    """A series in (w, wb) and the polynomial in 4 variables with the same
    terms multiply alike, up to the series dropping degrees above 4; both
    match a product of plain tuples, and evaluate and print alike."""
    naive = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            naive[k] = naive.get(k, F(0)) + va * vb
    naive = {k: v for k, v in naive.items() if v}
    pa, pb = Poly(4, a.coeffs), Poly(4, b.coeffs)
    assert (pa * pb).coeffs == naive
    assert (a * b).coeffs == {k: v for k, v in naive.items() if sum(k) <= 4}
    assert (pa + pb).coeffs == (a + b).coeffs
    point = (F(1, 2), F(-1, 3), F(2, 5), F(3, 7))
    assert evaluate_poly(pa, point) == evaluate_series(a, point[:2], point[2:])
    renamed = str(pa)
    for old, new in (("z1", "w1"), ("z2", "w2"), ("z3", "wb1"), ("z4", "wb2")):
        renamed = renamed.replace(old, new)
    assert renamed == str(a)


# coefficients near the unit ones, where the text leaves out "1*"
_coefficient = st.sampled_from([F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-3),
                                F(11, 1), F(-1, 10), F(10**20, 3)]) \
    | st.fractions(max_denominator=50).filter(bool)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.dictionaries(
        st.tuples(*[st.integers(0, 11)] * n), _coefficient, max_size=8))))
def test_format_terms_matches_fraction_text(case):
    """format_terms writes each coefficient from its integers and reuses
    each monomial's text; the bytes are those of the str(Fraction) route,
    for names of one or more characters."""
    n, coeffs = case
    for names in (tuple(f"z{i+1}" for i in range(n)),
                  tuple("xyzt"[:n]), tuple(f"wb{i+11}" for i in range(n))):
        assert format_terms(coeffs, names) == \
            format_terms_by_fraction_str(coeffs, names)
    poly = Poly(n, coeffs)
    assert str(poly) == format_terms_by_fraction_str(
        coeffs, [f"z{i+1}" for i in range(n)])
    if n % 2 == 0:
        series = TruncSeries(n // 2, 44, coeffs)
        m = n // 2
        assert str(series) == format_terms_by_fraction_str(
            coeffs, [f"w{i+1}" for i in range(m)]
            + [f"wb{i+1}" for i in range(m)])


@st.composite
def _tables_over_one_key_set(draw):
    """Three coefficient tables over one key set in n <= 4 variables, each
    inserted in the same drawn order, as a builder writes them on every
    job of one shape; the constant key is in about half of the sets, and
    the coefficients are often 1, -1 or integers."""
    n = draw(st.integers(1, 4))
    keys = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1,
                         max_size=8, unique=True))
    if draw(st.booleans()) and (0,) * n not in keys:
        keys.append((0,) * n)
    keys = draw(st.permutations(keys))
    return n, [{k: draw(_coefficient).as_integer_ratio() for k in keys}
               for _ in range(3)]


@settings(max_examples=200, deadline=None)
@given(_tables_over_one_key_set())
def test_format_ratios_lays_out_each_key_set_once(case):
    """format_ratios writes what the str(Fraction) route writes, for every
    table over a key set it has laid out before, with new coefficients;
    the later tables reuse the layout."""
    n, tables = case
    names = tuple(f"w{i+1}" for i in range(n))
    algebra._term_layout.cache_clear()
    for table in tables:
        assert format_ratios(table, names) == format_terms_by_fraction_str(
            {k: F(*v) for k, v in table.items()}, names)
    info = algebra._term_layout.cache_info()
    assert (info.misses, info.hits) == (1, len(tables) - 1)


@pytest.mark.parametrize("table,text", [
    ({}, "0"),
    ({(0, 0): (1, 1)}, "1"),
    ({(0, 0): (-1, 1)}, "-1"),
    ({(0, 0): (-1, 2)}, "-1/2"),
    ({(1, 0): (1, 1)}, "w1"),
    ({(1, 0): (-1, 1), (0, 0): (1, 1)}, "1 - w1"),
    ({(0, 2): (-1, 1), (1, 1): (3, 1), (0, 0): (-7, 3)},
     "-7/3 - w2^2 + 3*w1*w2"),
    ({(1, 0): (-1, 2), (0, 1): (1, 2)}, "1/2*w2 - 1/2*w1"),
])
def test_format_ratios_writes_unit_integer_and_constant_terms(table, text):
    assert format_ratios(table, ("w1", "w2")) == text


def _assert_clean(coeffs, width, cap=None):
    """The term map is its own clean_terms: plain tuple keys, nonzero
    Fraction values, no degree above the cap."""
    assert all(type(k) is tuple for k in coeffs)
    assert all(type(v) is F for v in coeffs.values())
    assert clean_terms(coeffs, width, cap) == coeffs


@settings(max_examples=60, deadline=None)
@given(_series_strategy(), _series_strategy(), _coef)
def test_term_arithmetic_results_are_clean(a, b, c):
    """Sums, negations, scalings (by 0 too), products and conjugates skip
    the constructor's clean-up, so they must build clean term maps; so do
    the Poly sums, products and shifts over the same terms."""
    for r in (a + b, a - b, -a, a.scale(c), a.scale(0), a * b, a * c,
              conj(a)):
        _assert_clean(r.coeffs, 4, 3)
    assert a.scale(0).is_zero() and (a * 0).is_zero()
    pa, pb = Poly(4, a.coeffs), Poly(4, b.coeffs)
    for r in (pa + pb, pa - pb, -pa, pa * pb, pa * c, pa * 0,
              pa.shift_by_monomial((1, 0, 2, 0))):
        _assert_clean(r.coeffs, 4)
    assert (pa * 0).is_zero()


@settings(max_examples=40, deadline=None)
@given(_series_strategy(), st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4))
def test_inverse_property(s, c):
    u = s + TruncSeries.constant(2, 3, c + 7)  # force a nonzero constant
    assert u * series_inverse(u) == TruncSeries.one(2, 3)


@settings(max_examples=40, deadline=None)
@given(_series_strategy(),
       st.fractions(min_value=F(1, 4), max_value=F(5), max_denominator=4))
def test_log_drops_constant_factors(s, c):
    u = s + TruncSeries.constant(2, 3, abs(s.constant_term()) + 1)
    assert series_log(u.scale(c)).series == series_log(u).series


@settings(max_examples=30, deadline=None)
@given(_series_strategy())
def test_exp_log_round_trip(s):
    u = s + TruncSeries.constant(2, 3, abs(s.constant_term()) + 2)
    c = u.constant_term()
    assert series_exp(series_log(u).series) == u.scale(1 / c)


def test_series_matrix_identity_and_inverse():
    one = TruncSeries.one(2, 3)
    w1 = series_w(2, 3, 0)
    m = SeriesMatrix([[one + w1, w1.scale(F(1, 2))],
                      [TruncSeries.zero(2, 3), one.scale(F(2))]])
    inv = m.inverse()
    prod = series_matmul(m, inv)
    eye = series_identity(2, 2, 3)
    for i in range(2):
        for j in range(2):
            assert prod[i, j] == eye[i, j]


def test_series_matrix_det_triangular():
    one = TruncSeries.one(2, 3)
    w2 = series_w(2, 3, 1)
    m = SeriesMatrix([[one + w2, TruncSeries.zero(2, 3)],
                      [w2, one.scale(F(3))]])
    assert m.det() == (one + w2) * one.scale(F(3))


def test_series_matrix_hermitian_check():
    """The pair-loop oracle that the Grammian tests rely on, on hand-built
    matrices: entry (i, j) must be the key-swapped entry (j, i)."""
    one = TruncSeries.one(2, 3)
    w1 = series_w(2, 3, 0)
    wb1 = TruncSeries.wbar(2, 3, 0)
    h = SeriesMatrix([[one, w1.scale(F(2))], [wb1.scale(F(2)), one]])
    assert is_hermitian_by_pair_loop(h)
    g = SeriesMatrix([[one, w1], [wb1.scale(F(3)), one]])
    assert not is_hermitian_by_pair_loop(g)
    # off-diagonal entries conjugate, only the (2, 2) entry is not real
    d = SeriesMatrix([[one, w1.scale(F(2))], [wb1.scale(F(2)), one + w1]])
    assert not is_hermitian_by_pair_loop(d)
    assert is_hermitian_by_pair_loop(
        SeriesMatrix([[one + w1 * wb1 + w1 + wb1]]))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_hermitian_check_matches_pair_loop(data):
    """Mirrored term maps pass the pair loop.  One mutation of an entry (a
    changed value, a dropped key, an extra key) breaks the mirror, unless it
    hits a diagonal entry at a key that is its own swap (w^b wbar^b)."""
    n = data.draw(st.integers(1, 3))
    upper = {(i, j): data.draw(_series_strategy())
             for i in range(n) for j in range(i, n)}
    entries = [[None] * n for _ in range(n)]
    for (i, j), s in upper.items():
        if i == j:
            s = s + conj(s)
        entries[i][j], entries[j][i] = s, conj(s)
    h = SeriesMatrix(entries)
    assert is_hermitian_by_pair_loop(h)
    i, j = data.draw(st.sampled_from(sorted(upper)))
    i, j = data.draw(st.sampled_from([(i, j), (j, i)]))
    coeffs = dict(entries[i][j].coeffs)
    mutation = data.draw(st.sampled_from(["value", "drop", "extra"]))
    if mutation == "extra" or not coeffs:
        key = data.draw(st.sampled_from(list(_series_keys())))
        coeffs[key] = coeffs.get(key, F(0)) + data.draw(_coef.filter(bool))
    else:
        key = data.draw(st.sampled_from(sorted(coeffs)))
        if mutation == "drop":
            del coeffs[key]
        else:
            coeffs[key] += data.draw(_coef.filter(bool))
    entries[i][j] = TruncSeries(h.npairs, h.trunc, coeffs)
    g = SeriesMatrix(entries)
    m = h.npairs
    assert is_hermitian_by_pair_loop(g) == (i == j and
                                            key == key[m:] + key[:m])


def test_series_matrix_inverse_sizes_one_and_three():
    one = TruncSeries.one(2, 3)
    w1 = series_w(2, 3, 0)
    wb2 = TruncSeries.wbar(2, 3, 1)
    single = SeriesMatrix([[one.scale(F(2)) + w1]])
    assert single.inverse()[0, 0] == series_inverse(single[0, 0])
    m = SeriesMatrix([[one + w1, wb2, TruncSeries.zero(2, 3)],
                      [w1.scale(F(1, 2)), one.scale(F(3)), w1 * wb2],
                      [wb2, TruncSeries.zero(2, 3), one - wb2]])
    prod = series_matmul(m, m.inverse())
    eye = series_identity(3, 2, 3)
    assert all(prod[i, j] == eye[i, j] for i in range(3) for j in range(3))


# -- cofactor_det against Bareiss --------------------------------------------

_entry = st.one_of(st.just(F(0)), st.fractions(min_value=F(-5), max_value=F(5),
                                               max_denominator=4))


@st.composite
def _rational_square(draw):
    n = draw(st.integers(1, 5))
    rows = [[draw(_entry) for _ in range(n)] for _ in range(n)]
    zero_row = draw(st.none() | st.integers(0, n - 1))
    zero_col = draw(st.none() | st.integers(0, n - 1))
    if zero_row is not None:
        rows[zero_row] = [F(0)] * n
    if zero_col is not None:
        for row in rows:
            row[zero_col] = F(0)
    return rows


@settings(max_examples=100, deadline=None)
@given(_rational_square())
def test_cofactor_det_matches_bareiss(rows):
    assert cofactor_det(rows) == mat_det(rows)


def test_cofactor_det_shape_checks():
    with pytest.raises(ShapeError):
        cofactor_det([])
    with pytest.raises(ShapeError):
        cofactor_det([[F(1), F(2)]])
    assert cofactor_det([[F(0), F(0)], [F(1), F(2)]]) == 0


_point = st.tuples(*[st.fractions(min_value=F(-2), max_value=F(2),
                                  max_denominator=5)] * 2)


@st.composite
def _poly_square(draw):
    """Square matrices of bivariate polynomials of degree <= 2, many zero."""
    n = draw(st.integers(1, 4))
    monomials = list(iter_multiindices(2, 2))

    def entry():
        terms = draw(st.lists(st.tuples(st.sampled_from(monomials), _entry),
                              max_size=3))
        return Poly(2, dict(terms))
    return [[entry() for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(_poly_square(), _point)
def test_cofactor_det_of_polys_commutes_with_evaluation(rows, point):
    value = cofactor_det(rows)
    assert isinstance(value, Poly)
    assert evaluate_poly(value, point) == mat_det(
        [[evaluate_poly(p, point) for p in row] for row in rows])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
           lambda n: st.lists(st.lists(_series_strategy(2, 1), min_size=n,
                                       max_size=n), min_size=n, max_size=n)),
       _point, _point)
def test_cofactor_det_of_series_commutes_with_evaluation(rows, w, wb):
    # entries of degree <= 1 and a determinant of degree <= 4: raising the
    # truncation to 4 drops no term, so evaluation is a ring map here
    rows = [[TruncSeries(2, 4, s.coeffs) for s in row] for row in rows]
    value = cofactor_det(rows)
    assert isinstance(value, TruncSeries)
    assert evaluate_series(value, w, wb) == mat_det(
        [[evaluate_series(s, w, wb) for s in row] for row in rows])


def _det_at_i(re_rows, im_rows):
    """det(A + iB) for rational A, B without complex arithmetic: interpolate
    p(t) = det(A + tB) from Bareiss values at t = 0..n, then read off p(i)."""
    n = len(re_rows)
    ts = range(n + 1)
    values = [mat_det([[a + t * b for a, b in zip(ra, rb)]
                       for ra, rb in zip(re_rows, im_rows)]) for t in ts]
    coeffs = mat_solve([[F(t) ** k for k in range(n + 1)] for t in ts], values)
    real = sum(c * (-1) ** (k // 2) for k, c in enumerate(coeffs) if k % 2 == 0)
    imag = sum(c * (-1) ** (k // 2) for k, c in enumerate(coeffs) if k % 2 == 1)
    return real, imag


def test_cofactor_det_of_complex_matrices():
    assert cofactor_det([[1 + 1j, 2], [3, 1j]]) == -7 + 1j
    rng = random.Random(7)
    for n in range(1, 6):
        for _ in range(5):
            re_rows = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(n)]
                       for _ in range(n)]
            im_rows = [[rng.choice((0, 1, -1, 2)) for _ in range(n)]
                       for _ in range(n)]
            # small Gaussian integers: the float expansion is exact
            value = cofactor_det([[complex(a, b) for a, b in zip(ra, rb)]
                                  for ra, rb in zip(re_rows, im_rows)])
            real, imag = _det_at_i(re_rows, im_rows)
            assert (value.real, value.imag) == (real, imag)


# -- the package's records -----------------------------------------------------

_MODULE = WeightedPolydiscModule(2, (1, F(1, 2)))
_FRAME = decompose_coordinate_ideal(_MODULE, 4)
_IDEAL = IdealSpec.catalogued("product_difference", 2)
# one record of each immutable record type, as the package builds it, and
# a valid change of one of its fields
RECORDS = {
    "LogSeries": (lambda: series_log(TruncSeries.one(1, 2) + series_w(1, 2, 0)),
                  {"scale": F(2)}),
    "JobConfig": (lambda: parse_config("[task]\nname = cubic\nalpha = 2\n"),
                  {"alpha": F(3)}),
    "CurvatureTensor": (lambda: curvature_tensor(_FRAME), {"size": 3}),
    "PrincipalCurvaturePair": (lambda: principal_curvature_pair(_MODULE, 2),
                               {"note": ""}),
    "FrameSeries": (lambda: _FRAME, {"trunc": 5}),
    "MetricSeries": (lambda: grammian(_FRAME), {"minors": ()}),
    "IdealSpec": (lambda: _IDEAL, {"generators": _IDEAL.generators[:1]}),
    "LocalizationResult": (lambda: localization_dim(_IDEAL, (0, 0), 4),
                           {"conditional": None}),
    "LambdaMuInvariant": (lambda: lambda_mu_invariants(1, 2), {"kappa1": 0}),
    "CubicReport": (lambda: cubic_positive_roots(F(7, 3)),
                    {"positive_roots": 0}),
    "RigidityReport": (lambda: polydisc_rigidity_report((1, 2), (1,), (1, 2)),
                       {"equivalent": False}),
    "WeightedPolydiscModule": (lambda: _MODULE, {"weights": (1, 1)}),
    "Bounded": (lambda: ambient_kernel_bounded(
        _MODULE, (F(1, 3), 0), (F(1, 3), 0), 4), {"bound": F(1)}),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_values(name):
    """No field of a record is assigned or deleted; _replace copies one,
    equal to it and of its type, and a changed field makes it unequal."""
    build, change = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    for field in record._fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    copy = record._replace()
    assert copy == record and copy is not record
    assert type(copy) is type(record)
    assert record._replace(**change) != record
