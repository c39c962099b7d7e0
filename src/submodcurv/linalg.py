"""Exact linear algebra over the rationals.

Matrices are lists of lists of Fraction or int.  ``BareissFactor`` is the
one fraction-free (Bareiss) sweep: it runs on a copy whose rows are scaled
to integers (an integer row as it is), so intermediate entries stay
integral, and moves a row only when the next pivot is 0.  Its pivots give
determinants and, up to the first row move, the leading principal minors;
its one integer back-substitution answers solves and inverses, forming one
Fraction per entry, and gives the Gram-form kernel A^{-1} v as integers
over one denominator.  ``RowEchelon`` tests a stream of sparse integer rows
for independence, reducing each new row once, fraction-free, against the
primitive rows kept so far; a caller clears a rational row once, with
_common_denominator, and adds integer rows as they are.  Ranks, the
Gram-form basis and the localization span ranks (these two on the column
keys of key_units) all count rows with it, and its integer
back-substitution gives the null vectors of the Gram-form complement as
integers over one denominator.  Determinants over other rings are
``algebra.cofactor_det``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .algebra import rat
from .errors import ShapeError, SingularityError


def _exact(x):
    """x as an exact rational: an int as it is, anything else through rat."""
    return x if type(x) is int else rat(x)


def _as_matrix(A):
    M = [[_exact(x) for x in row] for row in A]
    if M and any(len(r) != len(M[0]) for r in M):
        raise ShapeError("ragged matrix")
    return M


def _common_denominator(vec):
    """(integer vector, d) with vec = integer vector / d, d the lcm of the
    denominators: the package's one clear of rational values (the integer
    rows of the poch table have rkhs.cleared_row)."""
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


def mat_det(A) -> Fraction:
    """Determinant: sign * last pivot / row scalings, 0 if singular."""
    factor = BareissFactor(A)
    if factor.singular:
        return Fraction(0)
    last = factor.pivots[-1] if factor.pivots else 1
    return Fraction(factor.sign * last, prod(factor.scalings))


def mat_rank(A) -> int:
    """Rank: the number of rows a RowEchelon keeps."""
    echelon = RowEchelon()
    for ints in _cleared_int_rows(_as_matrix(A))[0]:
        echelon.add({c: x for c, x in enumerate(ints) if x})
    return len(echelon.rows)


def mat_solve(A, b):
    """Solve A x = b exactly; raises SingularityError if A is singular."""
    X, d = BareissFactor(A).solve(b)
    return [Fraction(x, d) for x in X]


def mat_inverse(A):
    factor = BareissFactor(A)
    n = len(factor.rows)
    columns = [factor.solve([int(i == j) for i in range(n)])
               for j in range(n)]
    return [[Fraction(X[i], d) for X, d in columns] for i in range(n)]


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


class BareissFactor:
    """One fraction-free Bareiss sweep over a square rational matrix A
    (E. Bareiss, Math. Comp. 22, 1968).

    Row i of A is scaled by the least integer s_i that clears it.  A row
    moves only when the next pivot is 0: the first row below with a nonzero
    entry in that column takes its place.  ``perm`` lists the rows of S A in
    their swept order and ``sign`` is the sign of that permutation; the
    sweep stops, with ``singular`` set, at a column with no pivot.  Before
    the first row move the k-th pivot is the k-th leading principal minor
    of S A, so the k-th leading minor of A is pivot_k / (s_1 ... s_k); on a
    full sweep the last pivot is det(P S A).  ``rows`` holds the compact
    fraction-free LU of P S A: the upper triangle is each pivot row as it
    stood when it became the pivot row, the strict lower triangle each
    eliminated column as it stood then.
    """

    def __init__(self, A):
        M = _square(A, "factorization")
        n = len(M)
        rows, self.scalings = _cleared_int_rows(M)
        perm, sign, pivots, prev = list(range(n)), 1, [], 1
        for k in range(n):
            if not rows[k][k]:
                piv = next((r for r in range(k + 1, n) if rows[r][k]), None)
                if piv is None:
                    break
                rows[k], rows[piv] = rows[piv], rows[k]
                perm[k], perm[piv] = perm[piv], perm[k]
                sign = -sign
            pivot = rows[k][k]
            tail = rows[k][k + 1:]
            for row in rows[k + 1:]:
                lik = row[k]
                row[k + 1:] = [(x * pivot - lik * y) // prev
                               for x, y in zip(row[k + 1:], tail)]
            pivots.append(pivot)
            prev = pivot
        self.rows, self.pivots, self.perm, self.sign = rows, pivots, perm, sign
        self.singular = len(pivots) < n

    def leading_minors(self):
        """Leading principal minors of A, up to the first zero one: the
        pivots before the first row move, then 0 if a row moved or the
        sweep stopped."""
        k = next((i for i, p in enumerate(self.perm) if p != i),
                 len(self.pivots))
        out, scale = [], 1
        for s, pivot in zip(self.scalings, self.pivots[:k]):
            scale *= s
            out.append(Fraction(pivot, scale))
        return out + [Fraction(0)] * (k < len(self.rows))

    def solve(self, v):
        """(X, d): integers X and one denominator d with A^{-1} v = X / d.

        With beta the least integer that clears v and y = beta P S v,
        reduced as one more column of the sweep, X = det (P S A)^{-1} y is
        integral (Cramer), det the last pivot, and row k of the sweep gives
        pivot_k X_k = det y_k - sum_{j>k} U_kj X_j exactly; d = det beta.
        """
        rows, pivots = self.rows, self.pivots
        n = len(rows)
        if self.singular:
            raise SingularityError("matrix is singular; cannot solve")
        if len(v) != n:
            raise ShapeError("vector has wrong length")
        y, beta = _common_denominator([_exact(v[i]) for i in self.perm])
        y = [x * self.scalings[i] for x, i in zip(y, self.perm)]
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
        return X, det * beta


def key_units(m: int, B: int) -> tuple:
    """The keys of the unit exponents.  key(a) = sum_i a_i units[i], that is
    |a| B^m - sum_i a_i B^(m-1-i), is additive and, below degree B, distinct
    and in iter_multiindices order, so z^beta p has p's keys + key(beta)."""
    return tuple(B ** m - B ** (m - 1 - i) for i in range(m))


def keyed_terms(coeffs: dict, units) -> list:
    """A polynomial's term map cleared to integers once, as (key, int)."""
    ints, _ = _common_denominator(list(coeffs.values()))
    return [(sum(map(mul, e, units)), c) for e, c in zip(coeffs, ints)]


class RowEchelon:
    """Rows in echelon form, grown one sparse integer row at a time.

    A row is a dict {column: nonzero int}.  Every caller in the package
    passes int columns: mat_rank its indices, the Gram form the keys of
    key_units, where a row leads at its lowest monomial, and the
    localization spans those keys negated, where it leads at its top one.
    ``add`` takes the row over: it
    reduces it in place, and keeps it as it is when it is independent and
    primitive, so a caller passes a row it does not read again.  Every kept
    row is a primitive integer row, divided by its content where that is
    not 1.  No two kept rows lead at the same (smallest) column, so a new
    row lies in the span of the kept ones iff reducing it fraction-free by
    the rows leading at its successive smallest columns leaves nothing.
    The number of kept rows is the rank of the rows added.  ``rows`` seeds
    a copy of another echelon's kept rows; ``add`` never mutates a kept
    row, so the copy may share them.
    """

    def __init__(self, rows=()):
        self.rows = dict(rows)  # leading column -> row

    def add(self, row) -> bool:
        """Keep the row if it is independent of the kept rows; say whether."""
        r = row
        while r:
            lead = min(r)
            pivot_row = self.rows.get(lead)
            if pivot_row is None:
                content = gcd(*r.values())
                if content != 1:
                    r = {c: x // content for c, x in r.items()}
                self.rows[lead] = r
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
        """(G, D): the null vector of the kept rows with 1 at a free column
        (no row leads there) and 0 at every other free column, as a sparse
        dict G of integers over one positive denominator D.  By integer
        back-substitution: the leads below the free column, in descending
        order, each take the value -s / (D p) that clears their row, where
        s is the row against G so far and p its lead entry; with q = p /
        gcd(s, p), made positive, G and D are scaled by q first, so the new
        entry is the integer -s / gcd(s, p).  The leads above stay 0."""
        G, D = {free: 1}, 1
        for lead in sorted((c for c in self.rows if c < free), reverse=True):
            row = self.rows[lead]
            s = -sum(v * G[c] for c, v in row.items() if c in G)
            if s:
                p = row[lead]
                g = gcd(s, p) if p > 0 else -gcd(s, p)
                q = p // g
                if q != 1:
                    G = {c: x * q for c, x in G.items()}
                    D *= q
                G[lead] = s // g
        return G, D


def leading_principal_minors(A):
    """Determinants of the k-by-k upper-left blocks, k = 1..n.

    Of a diagonal matrix, which is every base-point matrix the Grammian
    builders make, they are the running products of the diagonal.
    Otherwise they are the pivots of one BareissFactor sweep up to the
    first zero one.  There the sweep moves a row or stops, so its later
    pivots are no leading minors, and each remaining block takes one
    mat_det.
    """
    M = _square(A, "leading_principal_minors")
    n = len(M)
    if not any(x for i, row in enumerate(M)
               for j, x in enumerate(row) if i != j):
        minors, acc = [], Fraction(1)
        for i, row in enumerate(M):
            acc *= row[i]
            minors.append(acc)
        return minors
    minors = BareissFactor(M).leading_minors()
    return minors + [mat_det([row[:k] for row in M[:k]])
                     for k in range(len(minors) + 1, n + 1)]

