import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv.errors import ShapeError, SingularityError
from submodcurv.linalg import (BareissFactor, RowEchelon, _rref,
                               leading_principal_minors, mat_det, mat_inverse,
                               mat_mul, mat_rank, mat_solve, nullspace)

from oracles import is_positive_definite, mat_identity


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
        if any(p == 0 for p in factor.pivots):
            with pytest.raises(SingularityError):
                factor.inverse_form([F(1)] * n, [F(1)] * n)
            continue
        u = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
        v = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
        x = mat_solve(a, v)
        assert factor.inverse_form(u, v) == sum(p * q for p, q in zip(u, x))


def test_row_echelon_keeps_what_raises_the_rank():
    rng = random.Random(23)
    for _ in range(20):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 8)):
            if rows and rng.random() < 0.4:  # a combination of earlier rows
                p, q = rng.choice(rows), rng.choice(rows)
                c = F(rng.randint(-3, 3), rng.randint(1, 3))
                rows.append([x + c * y for x, y in zip(p, q)])
            else:
                rows.append([F(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 3))
                             for _ in range(ncols)])
        echelon, kept = RowEchelon(), []
        for row in rows:
            independent = mat_rank(kept + [row]) > len(kept)
            assert echelon.add(dict(enumerate(row))) == independent
            if independent:
                kept.append(row)
        assert len(echelon.rows) == mat_rank(rows)


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
