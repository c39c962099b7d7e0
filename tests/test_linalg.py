import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv.algebra import iter_multiindices
from submodcurv.errors import ShapeError, SingularityError
from submodcurv.linalg import (BareissFactor, RowEchelon, key_units,
                               keyed_terms, leading_principal_minors, mat_det,
                               mat_inverse, mat_mul, mat_rank, mat_solve)

from oracles import (_rref, cleared_row, inverse_form, is_positive_definite,
                     leading_minors_by_sweep, mat_identity, nullspace)


def _brute_det(m):
    n = len(m)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = F(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def _random_matrix(rng, n, m=None):
    m = m or n
    return [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
            for _ in range(n)]


def test_det_against_permanent_expansion():
    rng = random.Random(11)
    for _ in range(25):
        a = _random_matrix(rng, 3)
        assert mat_det(a) == _brute_det(a)
    for _ in range(10):
        a = _random_matrix(rng, 4)
        assert mat_det(a) == _brute_det(a)


def test_det_small_cases():
    assert mat_det([[F(5)]]) == 5
    assert mat_det([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert mat_det(mat_identity(4)) == 1


def test_rank_and_nullspace():
    a = [[F(1), F(2), F(3)],
         [F(2), F(4), F(6)],
         [F(1), F(0), F(1)]]
    assert mat_rank(a) == 2
    ns = nullspace(a)
    assert len(ns) == 1
    v = ns[0]
    for row in a:
        assert sum(x * y for x, y in zip(row, v)) == 0

    rng = random.Random(5)
    for _ in range(15):
        b = _random_matrix(rng, 3, 4)
        r = mat_rank(b)
        ns = nullspace(b)
        assert len(ns) == 4 - r
        for v in ns:
            for row in b:
                assert sum(x * y for x, y in zip(row, v)) == 0


def test_solve_round_trip():
    rng = random.Random(3)
    for _ in range(15):
        a = _random_matrix(rng, 3)
        if mat_det(a) == 0:
            continue
        x = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        b = [sum(a[i][j] * x[j] for j in range(3)) for i in range(3)]
        assert mat_solve(a, b) == x


def test_solve_singular():
    a = [[F(1), F(2)], [F(2), F(4)]]
    with pytest.raises(SingularityError):
        mat_solve(a, [F(1), F(1)])


def test_inverse():
    rng = random.Random(9)
    eye = mat_identity(3)
    for _ in range(10):
        a = _random_matrix(rng, 3)
        if mat_det(a) == 0:
            continue
        assert mat_mul(a, mat_inverse(a)) == eye
        assert mat_mul(mat_inverse(a), a) == eye


def test_solve_and_inverse_with_a_row_swap():
    """A zero in the pivot position: the sweep swaps rows first."""
    swap = [[F(0), F(1)], [F(1), F(0)]]
    assert mat_solve(swap, [F(2), F(-1, 3)]) == [F(-1, 3), F(2)]
    assert mat_inverse(swap) == swap
    a = [[F(0), F(2), F(1)], [F(0), F(1, 2), F(3)], [F(-3, 4), F(1), F(0)]]
    assert mat_mul(a, mat_inverse(a)) == mat_identity(3)
    x = [F(1, 2), F(-2), F(5, 3)]
    assert mat_solve(a, [sum(p * q for p, q in zip(row, x))
                         for row in a]) == x


def test_solve_and_inverse_singular():
    for a in ([[F(0), F(0)], [F(0), F(0)]],
              [[F(0), F(1)], [F(0), F(2)]],  # a column with no pivot
              [[F(1), F(2), F(3)], [F(1, 2), F(1), F(3, 2)],
               [F(0), F(1), F(1)]]):
        assert mat_det(a) == 0
        with pytest.raises(SingularityError):
            mat_solve(a, [F(1)] * len(a))
        with pytest.raises(SingularityError):
            mat_inverse(a)


def test_principal_minors_and_definiteness():
    a = [[F(2), F(1)], [F(1), F(2)]]
    assert leading_principal_minors(a) == [F(2), F(3)]
    assert is_positive_definite(a)
    assert not is_positive_definite([[F(1), F(2)], [F(2), F(1)]])
    assert is_positive_definite([[F(1), F(0)], [F(0), F(3)]])


_ENTRIES = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 4),
                            F(5, 3)])


@st.composite
def _matrices_with_zero_minors(draw):
    """Small rational matrices; the leading k-by-k block is made singular
    (a repeated row, or a zero corner) in about half of the draws."""
    n = draw(st.integers(1, 5))
    a = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    k = draw(st.integers(0, n))
    if 2 <= k:
        a[k - 1][:k] = a[0][:k]
    elif k == 1:
        a[0][0] = F(0)
    return a


@settings(max_examples=150, deadline=None)
@given(_matrices_with_zero_minors())
def test_leading_minors_match_blockwise_det(a):
    want = [mat_det([row[:k] for row in a[:k]]) for k in range(1, len(a) + 1)]
    assert leading_principal_minors(a) == want


@settings(max_examples=150, deadline=None)
@given(_matrices_with_zero_minors())
def test_solve_and_inverse_match_gauss_jordan(a):
    """The pivoting sweep against the Gauss-Jordan reference, on matrices
    whose leading blocks are often singular, so rows are swapped."""
    n = len(a)
    R, pivots = _rref([row + [F(i == j) for j in range(n)]
                       for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        with pytest.raises(SingularityError):
            mat_inverse(a)
        with pytest.raises(SingularityError):
            mat_solve(a, [F(1)] * n)
        return
    assert mat_inverse(a) == [row[n:] for row in R]
    assert mat_solve(a, [row[0] for row in a]) == \
        [F(i == 0) for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(_matrices_with_zero_minors(), st.data())
def test_inverse_form_matches_gauss_jordan(a, data):
    """u^T A^{-1} v against the Gauss-Jordan solve, on matrices whose
    leading blocks are often singular, so the sweep moves rows."""
    n = len(a)
    u = data.draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    v = data.draw(st.lists(_ENTRIES, min_size=n, max_size=n))
    R, pivots = _rref([row + [x] for row, x in zip(a, v)])
    factor = BareissFactor(a)
    if pivots[:n] != list(range(n)):
        assert factor.singular
        with pytest.raises(SingularityError):
            inverse_form(factor, u, v)
        return
    x = [row[n] for row in R]
    assert inverse_form(factor, u, v) == sum(p * q for p, q in zip(u, x))


@settings(max_examples=150, deadline=None)
@given(_matrices_with_zero_minors())
def test_leading_minors_are_the_brute_minors_to_the_first_zero(a):
    brute = [_brute_det([row[:k] for row in a[:k]])
             for k in range(1, len(a) + 1)]
    stop = next((k + 1 for k, d in enumerate(brute) if d == 0), len(brute))
    assert BareissFactor(a).leading_minors() == brute[:stop]


@settings(max_examples=150, deadline=None)
@given(_matrices_with_zero_minors())
def test_rank_matches_gauss_jordan(a):
    assert mat_rank(a) == len(_rref([list(row) for row in a])[1])


@st.composite
def _diagonal_matrices(draw):
    """Small diagonal matrices of Fractions or of ints, entries <= 0
    included, and in about half of the draws one nonzero entry off the
    diagonal, which sends them through the sweep."""
    n = draw(st.integers(1, 5))
    a = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = draw(_ENTRIES)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        a[i][j] = draw(_ENTRIES.filter(bool))
    if draw(st.booleans()):
        a = [[int(x) if x.denominator == 1 else x for x in row] for row in a]
    return a


@settings(max_examples=200, deadline=None)
@given(_diagonal_matrices())
def test_leading_minors_of_diagonal_matrices_match_the_sweep(a):
    """The running products of a diagonal are the minors of the Bareiss
    sweep and of mat_det on each block, with the same types, so an error
    that prints them prints the same text."""
    got = leading_principal_minors(a)
    assert got == [mat_det([row[:k] for row in a[:k]])
                   for k in range(1, len(a) + 1)]
    assert repr(got) == repr(leading_minors_by_sweep(a))


def test_leading_minors_past_a_zero_pivot():
    assert leading_principal_minors([[0, 1], [1, 0]]) == [0, -1]
    assert leading_principal_minors([[1, 1, 1], [1, 1, 2], [1, 2, 3]]) == \
        [1, 0, -1]


def test_bareiss_inverse_form_matches_solve():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n)
        factor = BareissFactor(a)
        if factor.singular:
            with pytest.raises(SingularityError):
                inverse_form(factor, [F(1)] * n, [F(1)] * n)
            continue
        u = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
        v = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
        x = mat_solve(a, v)
        assert inverse_form(factor, u, v) == sum(p * q for p, q in zip(u, x))


def _is_primitive_integer_row(row):
    values = list(row.values())
    return (all(type(x) is int and x for x in values)
            and math.gcd(*values) == 1)


def _echelon_rank_case(rng, kind):
    """Rows of Fractions, of ints, or of both, some combinations of
    earlier rows."""
    ncols = rng.randint(1, 6)
    rows = []
    for _ in range(rng.randint(1, 8)):
        if rows and rng.random() < 0.4:  # a combination of earlier rows
            p, q = rng.choice(rows), rng.choice(rows)
            c = rng.randint(-3, 3) if kind == "int" else \
                F(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append([x + c * y for x, y in zip(p, q)])
        elif kind == "int":
            rows.append([rng.choice((0, 0, 1, -2, 3, 6)) * rng.randint(1, 3)
                         for _ in range(ncols)])
        else:
            rows.append([F(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 3))
                         for _ in range(ncols)])
    if kind == "mixed":  # whole Fractions as ints, the rest as given
        rows = [[int(x) if x.denominator == 1 else x for x in row]
                for row in rows]
    return rows


def test_row_echelon_keeps_what_raises_the_rank():
    rng = random.Random(23)
    for kind in ("fraction", "int", "mixed"):
        for _ in range(20):
            rows = _echelon_rank_case(rng, kind)
            echelon, kept = RowEchelon(), []
            for row in rows:
                independent = mat_rank(kept + [row]) > len(kept)
                assert echelon.add(cleared_row(dict(enumerate(row)))) == \
                    independent
                if independent:
                    kept.append(row)
            assert len(echelon.rows) == mat_rank(rows)
            assert all(_is_primitive_integer_row(r) and min(r) == lead
                       for lead, r in echelon.rows.items())


def test_row_echelon_copy_shares_rows_without_growing_them():
    echelon = RowEchelon()
    echelon.add({0: 2, 1: 4, 2: 6})
    echelon.add(cleared_row({1: F(3, 2), 2: 9}))
    before = {lead: dict(r) for lead, r in echelon.rows.items()}
    probe = RowEchelon(echelon.rows)
    assert not probe.add(cleared_row({0: 1, 1: F(7, 2), 2: 12}))
    assert probe.add({2: 5}) and len(probe.rows) == 3
    assert echelon.rows == before and len(echelon.rows) == 2


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_column_keys_order_separate_and_add(m):
    """Below degree B = N + 1 the keys of key_units follow the
    iter_multiindices order, are distinct, and add: key(a) + key(b) =
    key(a + b) whenever |a + b| <= N."""
    for N in range(9):
        units = key_units(m, N + 1)
        monomials = list(iter_multiindices(m, N))
        key = {a: k for (k, _), a in zip(
            keyed_terms(dict.fromkeys(monomials, F(1)), units), monomials)}
        keys = [key[a] for a in monomials]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for a in monomials:
            for b in iter_multiindices(m, N - sum(a)):
                assert key[a] + key[b] == key[tuple(map(sum, zip(a, b)))]


def test_keyed_terms_clear_a_polynomial_once():
    units = key_units(2, 3)
    assert keyed_terms({(1, 0): F(1, 2), (0, 1): F(-1, 3), (0, 0): F(2)},
                       units) == [(units[0], 3), (units[1], -2), (0, 12)]


def test_null_vector_with_non_unit_leads_matches_rref_reference():
    rng = random.Random(29)
    seen_non_unit = 0
    for _ in range(40):
        nrows, ncols = rng.randint(1, 5), rng.randint(2, 7)
        a = [[F(rng.choice((0, 0, 2, -3, 4, 6, -9)), rng.choice((1, 1, 5)))
              for _ in range(ncols)] for _ in range(nrows)]
        echelon = RowEchelon()
        for row in a:
            echelon.add(cleared_row(dict(enumerate(row))))
        seen_non_unit += any(abs(r[lead]) != 1
                             for lead, r in echelon.rows.items())
        free = [c for c in range(ncols) if c not in echelon.rows]
        vectors = [echelon.null_vector(c) for c in free]
        assert all(D > 0 for _, D in vectors)
        got = [[F(G.get(c, 0), D) for c in range(ncols)] for G, D in vectors]
        assert got == _rref_nullspace(a)
        for v in got:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    assert seen_non_unit > 10


def _rref_nullspace(a):
    """Reference: Gauss-Jordan RREF, each free column set to 1 in turn and
    the pivot columns read off the reduced rows."""
    ncols = len(a[0])
    R, pivots = _rref([list(row) for row in a])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for rowi, pc in enumerate(pivots):
            v[pc] = -R[rowi][fc]
        basis.append(v)
    return basis


@st.composite
def _rational_rectangles(draw):
    """Small rational matrices, some with a repeated row or a zero column."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    a = [[draw(_ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        a[-1] = list(a[0])
    if draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for row in a:
            row[col] = F(0)
    return a


@settings(max_examples=200, deadline=None)
@given(_rational_rectangles())
def test_nullspace_matches_rref_reference(a):
    assert nullspace(a) == _rref_nullspace(a)


def test_shape_checks():
    with pytest.raises(ShapeError):
        mat_det([[F(1), F(2)]])
