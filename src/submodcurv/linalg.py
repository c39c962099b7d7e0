"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction.  Determinants and ranks go through
fraction-free (Bareiss) elimination on a denominator-cleared integer copy so
intermediate entries stay integral; solving and nullspaces use ordinary
Gauss-Jordan elimination over Fraction, which is exact anyway.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .algebra import rat
from .errors import ShapeError, SingularityError


def _as_matrix(A):
    M = [[rat(x) for x in row] for row in A]
    if M and any(len(r) != len(M[0]) for r in M):
        raise ShapeError("ragged matrix")
    return M


def _cleared_int_rows(M):
    """Scale each row to integers; return (int rows, product of scalings)."""
    rows, scaling = [], Fraction(1)
    for row in M:
        mult = 1
        for x in row:
            mult = mult * x.denominator // gcd(mult, x.denominator)
        rows.append([int(x * mult) for x in row])
        scaling *= mult
    return rows, scaling


def mat_det(A) -> Fraction:
    """Determinant by Bareiss fraction-free elimination."""
    M = _as_matrix(A)
    n = len(M)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in M):
        raise ShapeError("determinant needs a square matrix")
    rows, scaling = _cleared_int_rows(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
    return Fraction(sign * rows[n - 1][n - 1], 1) / scaling


def mat_rank(A) -> int:
    """Rank by fraction-free elimination with full pivot search per column."""
    M = _as_matrix(A)
    if not M:
        return 0
    rows, _ = _cleared_int_rows(M)
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        pivot = rows[row][col]
        for i in range(row + 1, nrows):
            for j in range(col + 1, ncols):
                rows[i][j] = (rows[i][j] * pivot - rows[i][col] * rows[row][j]) // prev
            rows[i][col] = 0
        prev = pivot
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _rref(M):
    """Reduced row echelon form over Fraction; returns (rref, pivot columns)."""
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


def mat_solve(A, b):
    """Solve A x = b exactly; raises SingularityError if A is singular."""
    M = _as_matrix(A)
    n = len(M)
    if any(len(r) != n for r in M):
        raise ShapeError("solve needs a square matrix")
    rhs = [rat(x) for x in b]
    if len(rhs) != n:
        raise ShapeError("right-hand side has wrong length")
    aug = [M[i] + [rhs[i]] for i in range(n)]
    R, pivots = _rref(aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise SingularityError("matrix is singular; cannot solve")
    return [R[i][n] for i in range(n)]


def mat_inverse(A):
    M = _as_matrix(A)
    n = len(M)
    if any(len(r) != n for r in M):
        raise ShapeError("inverse needs a square matrix")
    aug = [M[i] + [Fraction(1) if j == i else Fraction(0) for j in range(n)]
           for i in range(n)]
    R, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularityError("matrix is singular; cannot invert")
    return [row[n:] for row in R]


def mat_mul(A, B):
    A = _as_matrix(A)
    B = _as_matrix(B)
    if not A or not B or len(A[0]) != len(B):
        raise ShapeError("inner dimensions do not match")
    out = []
    for row in A:
        acc = [Fraction(0)] * len(B[0])
        for a, brow in zip(row, B):
            if a:  # curvature inputs are mostly zero: skip whole rows of B
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def mat_identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def nullspace(A):
    """Basis of the right nullspace of A, as a list of column vectors.

    Free variables are set to 1 one at a time, in increasing column order, so
    the basis is deterministic.
    """
    M = _as_matrix(A)
    if not M:
        return []
    ncols = len(M[0])
    R, pivots = _rref(M)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for rowi, pc in enumerate(pivots):
            v[pc] = -R[rowi][fc]
        basis.append(v)
    return basis


def leading_principal_minors(A):
    """Determinants of the k-by-k upper-left blocks, k = 1..n."""
    M = _as_matrix(A)
    n = len(M)
    if any(len(r) != n for r in M):
        raise ShapeError("principal minors need a square matrix")
    return [mat_det([row[:k] for row in M[:k]]) for k in range(1, n + 1)]


def is_positive_definite(A) -> bool:
    """Sylvester's criterion on a matrix assumed (real) symmetric."""
    return all(d > 0 for d in leading_principal_minors(A))
