"""Independent oracles and helpers that only the tests use.

The library computes every invariant in exact rational arithmetic.  The
floating-point finite-difference oracles here check it from outside: they
evaluate the frame norms and the coordinate Grammian determinant directly
in floats and difference them, with no truncated-series arithmetic.  The
exact helpers (series exponential, series matrix product and identity,
rational identity matrix, Sylvester's criterion, a frame vector frozen at
its base point, the geometric sum) build fixtures and references for the
unit tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from submodcurv.algebra import (SeriesMatrix, TruncSeries, cofactor_det,
                                iter_multiindices, pochhammer)
from submodcurv.errors import DomainError, ShapeError
from submodcurv.frames import FrameSeries, coordinate_power_data
from submodcurv.ideals import IdealSpec
from submodcurv.linalg import leading_principal_minors
from submodcurv.rkhs import WeightedPolydiscModule, diag_coeff


# ---------------------------------------------------------------------------
# Exact helpers


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
    """Sylvester's criterion on a matrix assumed (real) symmetric."""
    return all(d > 0 for d in leading_principal_minors(A))


def frame_vector_at_base(frame: FrameSeries, k: int) -> dict:
    """z-exponent -> Fraction coefficient of F^k frozen at the base point."""
    out = {}
    for a, s in frame.vectors[k].items():
        c = s.constant_term()
        if c != 0:
            out[a] = c
    return out


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
    data = coordinate_power_data(ideal)
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
