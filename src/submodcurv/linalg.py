"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction.  Determinants, ranks, solves and
inverses go through one fraction-free (Bareiss) sweep with row pivoting on
a copy whose rows are scaled to integers, so intermediate entries stay
integral; solves and inverses back-substitute in integers and form one
Fraction per entry.  ``BareissFactor`` keeps such a sweep without
pivoting: its pivots are the leading principal minors and its factors
answer u^T A^{-1} v by integer substitution.  ``RowEchelon`` tests a
stream of sparse rows for independence, reducing each new row once,
fraction-free, against the primitive integer rows kept so far; the
Gram-form basis and the localization span ranks both count rows with it,
and its back-substitution (one division by each lead) gives the null
vectors of the Gram-form complement and of ``nullspace``.  Determinants
over other rings (series, polynomials, complex floats) are
``algebra.cofactor_det``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .algebra import rat
from .errors import ShapeError, SingularityError


def _as_matrix(A):
    M = [[rat(x) for x in row] for row in A]
    if M and any(len(r) != len(M[0]) for r in M):
        raise ShapeError("ragged matrix")
    return M


def _common_denominator(vec):
    """(integer vector, d) with vec = integer vector / d."""
    d = lcm(*(x.denominator for x in vec))
    return [x.numerator * (d // x.denominator) for x in vec], d


def _cleared_int_rows(M):
    """Scale each row to integers; return (int rows, row multipliers)."""
    cleared = [_common_denominator(row) for row in M]
    return [r for r, _ in cleared], [d for _, d in cleared]


def _square(A, what):
    M = _as_matrix(A)
    if any(len(r) != len(M) for r in M):
        raise ShapeError(f"{what} needs a square matrix")
    return M


def _sweep(M, ncols):
    """One fraction-free Bareiss sweep with row pivoting over the first
    ncols columns of M's integer-cleared rows; later columns are carried
    along.  Returns (rows, pivots, sign, mults): the swept integer rows,
    the pivot column of each of the first len(pivots) rows, the sign of the
    row permutation and the row multipliers.  A column with no nonzero entry
    at or below the next pivot row is skipped.  When every one of n square
    columns has a pivot, the last pivot is the determinant of the permuted
    integer matrix."""
    rows, mults = _cleared_int_rows(M)
    pivots, sign, prev = [], 1, 1
    for col in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pivot = rows[k][col]
        tail = rows[k][col + 1:]
        for row in rows[k + 1:]:
            lead = row[col]
            row[col:] = [0] + [(x * pivot - lead * y) // prev
                               for x, y in zip(row[col + 1:], tail)]
        pivots.append(col)
        prev = pivot
    return rows, pivots, sign, mults


def mat_det(A) -> Fraction:
    """Determinant: sign * last pivot / row multipliers, 0 below full rank."""
    M = _square(A, "determinant")
    n = len(M)
    if n == 0:
        return Fraction(1)
    rows, pivots, sign, mults = _sweep(M, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * rows[-1][-1], prod(mults))


def mat_rank(A) -> int:
    """Rank: the number of pivots of one sweep over every column."""
    M = _as_matrix(A)
    return len(_sweep(M, len(M[0]))[1]) if M else 0


def _solve_columns(M, columns, what):
    """The solutions x of M x = b for square M and each column b, from one
    sweep of [M | columns].  With d the last pivot, d x is integral
    (Cramer), and pivot row k gives U_kk (d x_k) = d y_k - sum_{j>k} U_kj
    (d x_j) exactly, y the swept column; each entry is one Fraction."""
    n = len(M)
    rows, pivots, _, _ = _sweep([M[i] + [b[i] for b in columns]
                                 for i in range(n)], n)
    if len(pivots) < n:
        raise SingularityError(f"matrix is singular; cannot {what}")
    d = rows[-1][n - 1] if n else 1
    out = []
    for c in range(n, n + len(columns)):
        X = [0] * n
        for k in reversed(range(n)):
            row = rows[k]
            X[k] = (d * row[c] - sum(row[j] * X[j]
                                     for j in range(k + 1, n))) // row[k]
        out.append([Fraction(x, d) for x in X])
    return out


def mat_solve(A, b):
    """Solve A x = b exactly; raises SingularityError if A is singular."""
    M = _square(A, "solve")
    rhs = [rat(x) for x in b]
    if len(rhs) != len(M):
        raise ShapeError("right-hand side has wrong length")
    return _solve_columns(M, [rhs], "solve")[0]


def mat_inverse(A):
    M = _square(A, "inverse")
    n = len(M)
    columns = [[int(i == j) for i in range(n)] for j in range(n)]
    return [list(row) for row in zip(*_solve_columns(M, columns, "invert"))]


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


def nullspace(A):
    """Basis of the right nullspace of A, as a list of column vectors.

    One vector per free column of the echelon form, in increasing column
    order: 1 at that column and 0 at every other free column, so the basis
    is deterministic.
    """
    M = _as_matrix(A)
    if not M:
        return []
    ncols = len(M[0])
    echelon = RowEchelon()
    for row in M:
        echelon.add(dict(enumerate(row)))
    free = [c for c in range(ncols) if c not in echelon.rows]
    return [[g.get(c, Fraction(0)) for c in range(ncols)]
            for g in map(echelon.null_vector, free)]


class BareissFactor:
    """One fraction-free Bareiss sweep without pivoting over a square
    rational matrix A (E. Bareiss, Math. Comp. 22, 1968).

    Row i of A is scaled by the least integer s_i that clears it.  On the
    integer matrix S A the k-th pivot is the k-th leading principal minor of
    S A, so the k-th leading minor of A is pivot_k / (s_1 ... s_k).  The
    sweep stops at the first zero pivot, which is then the last entry of
    ``pivots``.  ``rows`` holds the compact fraction-free LU: the upper
    triangle is each pivot row as it stood when it became the pivot row,
    the strict lower triangle each eliminated column as it stood then.
    """

    def __init__(self, A):
        M = _square(A, "factorization")
        n = len(M)
        rows, self.scalings = _cleared_int_rows(M)
        pivots = []
        prev = 1
        for k in range(n):
            pivot = rows[k][k]
            pivots.append(pivot)
            if pivot == 0:
                break
            tail = rows[k][k + 1:]
            for i in range(k + 1, n):
                row = rows[i]
                lik = row[k]
                row[k + 1:] = [(x * pivot - lik * y) // prev
                               for x, y in zip(row[k + 1:], tail)]
            prev = pivot
        self.rows, self.pivots = rows, pivots

    def leading_minors(self):
        """Leading principal minors of A, up to the first zero one."""
        out, scale = [], 1
        for s, pivot in zip(self.scalings, self.pivots):
            scale *= s
            out.append(Fraction(pivot, scale))
        return out

    def inverse_form(self, u, v) -> Fraction:
        """u^T A^{-1} v, by fraction-free forward and back substitution.

        With y the integer column beta S v reduced as one more column of the
        sweep, X = det(S A) (S A)^{-1} (beta S v) is integral (Cramer), and
        row k of the sweep gives pivot_k X_k = det y_k - sum_{j>k} U_kj X_j
        exactly; one Fraction is formed at the end.
        """
        rows, pivots = self.rows, self.pivots
        n = len(rows)
        if 0 in pivots:  # the sweep stopped at its first zero pivot
            raise SingularityError("matrix is singular; cannot solve")
        if len(u) != n or len(v) != n:
            raise ShapeError("vector has wrong length")
        y, beta = _common_denominator(
            [rat(x) * s for x, s in zip(v, self.scalings)])
        prev = 1
        for k in range(n - 1):
            pivot, yk = pivots[k], y[k]
            for i in range(k + 1, n):
                y[i] = (y[i] * pivot - rows[i][k] * yk) // prev
            prev = pivot
        det = pivots[-1] if n else 1
        X = [0] * n
        for k in range(n - 1, -1, -1):
            row = rows[k]
            acc = det * y[k] - sum(row[j] * X[j] for j in range(k + 1, n))
            X[k] = acc // pivots[k]
        U, gamma = _common_denominator([rat(x) for x in u])
        return Fraction(sum(a * b for a, b in zip(U, X)), det * beta * gamma)


class RowEchelon:
    """Rows in echelon form, grown one sparse row at a time.

    A row is a dict {column: value} of ints or Fractions; columns are any
    hashable, totally ordered keys (ints, or exponent tuples).  Every kept
    row is a primitive integer row: its denominators are cleared once and
    it is divided by its content.  No two kept rows lead at the same
    (smallest) column, so a new row lies in the span of the kept ones iff
    reducing it fraction-free by the rows leading at its successive smallest
    columns leaves nothing.  The number of kept rows is the rank of the rows
    added.  ``rows`` seeds a copy of another echelon's kept rows; ``add``
    never mutates a kept row, so the copy may share them.
    """

    def __init__(self, rows=()):
        self.rows = dict(rows)  # leading column -> row

    def add(self, row) -> bool:
        """Keep the row if it is independent of the kept rows; say whether."""
        den = lcm(*(x.denominator for x in row.values()))
        r = {c: x.numerator * (den // x.denominator)
             for c, x in row.items() if x}
        while r:
            lead = min(r)
            pivot_row = self.rows.get(lead)
            if pivot_row is None:
                content = gcd(*r.values())
                self.rows[lead] = {c: x // content for c, x in r.items()}
                return True
            # r <- a r - b p clears the lead; a, b coprime keep r small
            g = gcd(pivot_row[lead], r[lead])
            a, b = pivot_row[lead] // g, r[lead] // g
            if a != 1:
                r = {c: a * x for c, x in r.items()}
            for c, x in pivot_row.items():
                rest = r.get(c, 0) - b * x
                if rest:
                    r[c] = rest
                else:
                    del r[c]
        return False

    def null_vector(self, free):
        """The null vector of the kept rows with 1 at a free column (no row
        leads there) and 0 at every other free column, as a sparse dict of
        Fractions.  By back-substitution: the leads below the free column,
        in descending order, each take the value that clears their row
        (divided by the row's lead entry); the leads above stay 0."""
        g = {free: Fraction(1)}
        for lead in sorted((c for c in self.rows if c < free), reverse=True):
            row = self.rows[lead]
            x = -sum(v * g[c] for c, v in row.items() if c in g)
            if x:
                g[lead] = x / row[lead]
        return g


def leading_principal_minors(A):
    """Determinants of the k-by-k upper-left blocks, k = 1..n.

    They are the pivots of one BareissFactor sweep.  Past a zero pivot the
    sweep cannot go on, and each remaining block takes one mat_det.
    """
    M = _square(A, "leading_principal_minors")
    n = len(M)
    minors = BareissFactor(M).leading_minors()
    return minors + [mat_det([row[:k] for row in M[:k]])
                     for k in range(len(minors) + 1, n + 1)]

