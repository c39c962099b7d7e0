"""Curvature of the frame bundles and gauge transformations.

Conventions, fixed once here and echoed into every report:

  * metric entry (i, j) pairs the j-th frame vector against the i-th, so a
    frame change F -> F A transforms the metric by H -> A* H A;
  * the curvature block (i, j) is d/dw_i ( H^{-1} d/dwbar_j H ) frozen at
    the base point, which transforms by K -> A^{-1} K A;
  * the determinant-bundle curvature is the mixed Hessian of log det H,
    equal to the blockwise trace of the curvature matrix.

With these signs the catalogued rank-one examples come out positive.

Curvature comes from the frame spec alone (curvature_tensor).  Every frame
the package builds is a coordinate-power frame whose restriction to the
zero variety is lead_k prod_free (1 - z_i wbar_i)^(-l_i), so its curvature
has a closed form: the Chern-connection curvature
H0^{-1} H_{i jbar} - H0^{-1} H_i H0^{-1} H_{jbar} of the metric's 2-jet
(M. Cowen and R. Douglas, Complex geometry and operator theory, Acta Math.
141, 1978), written out for the two frame kinds.  The principal pair and
its norm readings are closed forms of the same metric.

The metric route, frames.grammian (which the metric task reports) and
then curvature_matrix on the 2-jet of H, stays as the tests' reference for
every closed form.  Jacobi's formula
d log det H = tr(H^{-1} dH) makes the det-bundle curvature the blockwise
trace of the curvature matrix, so no series determinant is taken.  A scalar
metric h has line curvature (h h_{i jbar} - h_i h_{jbar}) / h^2 on its
2-jet; a metric truncated above degree 2 gives the same Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .algebra import (SeriesMatrix, TruncSeries, cofactor_det,
                      mixed_hessian, pochhammer, rat, unit)
from .errors import DomainError, ShapeError, SingularityError, TruncationError
from .frames import (COORDINATE_KIND, FrameSeries, MetricSeries,
                     coordinate_terms, share_generators)
from .linalg import mat_det, mat_inverse, mat_mul, nullspace
from .polynomials import Poly
from .rkhs import WeightedPolydiscModule

CONVENTION = ("metric H_ij = <F_j, F_i>; curvature block (i,j) = "
              "d_{w_i}(H^{-1} d_{wbar_j} H) at the base point; "
              "det-bundle curvature = mixed Hessian of log det H "
              "(= blockwise trace of the curvature matrix)")

_ZERO = Fraction(0)

# Every curvature value reads only the terms of degree <= 2 of a metric, so
# frames built only for curvature are truncated here.
JET_DEGREE = 2


def line_curvature(h: TruncSeries, i: int, j: int) -> Fraction:
    """Mixed Hessian d_i dbar_j of log h at the base point, for a scalar
    (line-bundle) metric h with positive value there:
    (h h_{i jbar} - h_i h_{jbar}) / h^2 on the 2-jet of h.

    Multiplying h by any positive constant, or by f * conj(f) for f with
    f(0) != 0, leaves the result unchanged.
    """
    c = h.constant_term()
    if c <= 0:
        raise SingularityError(
            f"scalar metric must be positive at the base point, got {c}")
    hij = mixed_hessian(h, i, j)
    zero = (0,) * h.npairs
    hi = h.coefficient(unit(h.npairs, i), zero)
    hj = h.coefficient(zero, unit(h.npairs, j))
    return (c * hij - hi * hj) / (c * c)


def det_bundle_curvature(metric: MetricSeries):
    """Full matrix of mixed Hessians of log det H at the base point: the
    blockwise trace of curvature_matrix(metric), by Jacobi's formula.
    Symbolic scales on a diagonal metric multiply det H by a positive
    constant and drop out; a non-diagonal metric with scales (grammian
    never builds one) raises DomainError, and truncation degree below 2
    raises TruncationError, as in curvature_matrix."""
    return curvature_matrix(metric).trace_matrix()


@dataclass(frozen=True)
class CurvatureTensor:
    """Curvature blocks of a Grammian metric at its base point.

    blocks[i][j] is the t-by-t rational matrix of the (i, j) mixed
    derivative; i, j run over all ambient variables, with blocks vanishing
    identically in directions the metric does not move in.
    """
    base_point: tuple
    size: int
    blocks: tuple
    free_slots: tuple
    convention: str = CONVENTION

    def block(self, i: int, j: int):
        return self.blocks[i][j]

    def trace_matrix(self):
        """Blockwise traces.  Only the nonzero diagonal entries are summed,
        and a zero trace is Fraction(0), as every entry is a Fraction."""
        return tuple(tuple(_trace(block) for block in row)
                     for row in self.blocks)


def _trace(block) -> Fraction:
    diagonal = [row[k] for k, row in enumerate(block) if row[k]]
    return sum(diagonal[1:], diagonal[0]) if diagonal else _ZERO


def _unscaled_matrix(metric: MetricSeries) -> SeriesMatrix:
    """The metric's series matrix, for full matrix algebra.  grammian folds
    every rational scale, so scales left on a metric are irrational, and
    exact matrix algebra cannot absorb them."""
    if metric.scales is not None:
        raise DomainError(
            "metric carries irrational symbolic scales; "
            "diagonal-only operations apply, not full matrix algebra")
    return metric.matrix


def _two_jet(s: TruncSeries):
    """Constant, w_i, wbar_j and w_i wbar_j coefficients of a series, read
    in one pass: the terms that curvature at the base point depends on."""
    m = s.npairs
    const = Fraction(0)
    dw = [Fraction(0)] * m
    dwb = [Fraction(0)] * m
    dwdwb = [[Fraction(0)] * m for _ in range(m)]
    for key, v in s.coeffs.items():
        degree = sum(key)
        if degree == 0:
            const = v
        elif degree == 1:
            slot = key.index(1)
            if slot < m:
                dw[slot] = v
            else:
                dwb[slot - m] = v
        elif degree == 2:
            slots = [k for k, e in enumerate(key) if e]
            if len(slots) == 2 and slots[0] < m <= slots[1]:
                dwdwb[slots[0]][slots[1] - m] = v
    return const, dw, dwb, dwdwb


def curvature_matrix(metric: MetricSeries) -> CurvatureTensor:
    """Curvature blocks d_i(H^{-1} dbar_j H)(base) for every variable pair.

    At the base point the block equals H0^{-1} H_{i jbar} -
    H0^{-1} H_i H0^{-1} H_{jbar}, where H0, H_i, H_{jbar} and H_{i jbar} are
    the constant, w_i, wbar_j and w_i wbar_j coefficient matrices of H, so
    only the 2-jet of H is read: truncation degree 2 suffices and a higher
    degree changes no value.  Symbolic scales cancel on diagonal metrics;
    general matrices must carry rational entries only.
    """
    H = metric.matrix
    m = H.npairs
    t = H.n
    if H.trunc < JET_DEGREE:
        raise TruncationError(f"curvature_matrix needs truncation degree >= "
                              f"{JET_DEGREE}, got {H.trunc}")
    # scales on a diagonal H multiply it on the left by a constant matrix,
    # which cancels in H^{-1} dbar H
    matrix = H if metric.is_diagonal() else _unscaled_matrix(metric)
    jets = [[_two_jet(s) for s in row] for row in matrix.entries]
    try:
        H0inv = mat_inverse([[jet[0] for jet in row] for row in jets])
    except SingularityError:
        raise SingularityError("metric is singular at the base point") from None
    # H0^{-1} H_i and H0^{-1} H_{jbar}, shared across the blocks
    left = [mat_mul(H0inv, [[jet[1][i] for jet in row] for row in jets])
            for i in range(m)]
    right = [mat_mul(H0inv, [[jet[2][j] for jet in row] for row in jets])
             for j in range(m)]
    blocks = []
    for i in range(m):
        row_i = []
        for j in range(m):
            mixed = mat_mul(H0inv, [[jet[3][i][j] for jet in row]
                                    for row in jets])
            second = mat_mul(left[i], right[j])
            row_i.append(tuple(tuple(mixed[a][b] - second[a][b]
                                     for b in range(t)) for a in range(t)))
        blocks.append(tuple(row_i))
    return CurvatureTensor(metric.base_point, t, tuple(blocks),
                           metric.free_slots)


def curvature_tensor(frame: FrameSeries) -> CurvatureTensor:
    """Curvature blocks of a frame's Grammian at its base point, from the
    frame spec alone: no metric series is built.

    Coordinate frame (at the origin): H0 is diag(l_i), H_i and H_{jbar}
    vanish, and the w_k wbar_q coefficient of H_ij is s_i(a) s_j(a) c_a
    with a = e_i + e_k = e_j + e_q, so block (k, q) has entry (i, j)
    s_i(a) s_j(a) c_a / l_i, and 0 when no such a exists.  The terms with
    |a| = 2 come from frames.coordinate_terms, the Grammian's walk, and
    l_i = L_i / scale, so each entry is one reduced
    Fraction(num x_i x_j scale, den L_i).

    Zero-variety frame at base c: H is diagonal with every entry a positive
    constant times prod_free (1 - |w_i|^2)^(-l_i), so block (k, k) is
    l_k / (1 - c_k^2)^2 times the identity for each free slot k, and every
    other block is 0; the generator powers and lead coefficients drop out.
    Equal to curvature_matrix(grammian(frame)).
    """
    module = frame.module
    m = module.dim
    t = frame.count
    weights = module.weights
    blocks = [[[[_ZERO] * t for _ in range(t)] for _ in range(m)]
              for _ in range(m)]
    if frame.kind == COORDINATE_KIND:
        gens, scale = share_generators(frame)
        for num, den, downs in coordinate_terms(frame, 2, 2):
            # (i, k, x_i): a - e_i = e_k
            pairs = [(i, d.index(1), x) for i, x, d in downs]
            for i, k, xi in pairs:
                ni, di = num * xi * scale, den * gens[i][3]
                for j, q, xj in pairs:
                    blocks[k][q][i][j] = Fraction(ni * xj, di)
    else:
        for k in frame.free_slots:
            c = frame.base_point[k]
            value = weights[k] / (1 - c * c) ** 2
            for a in range(t):
                blocks[k][k][a][a] = value
    return CurvatureTensor(
        frame.base_point, t,
        tuple(tuple(tuple(tuple(row) for row in block) for block in brow)
              for brow in blocks),
        frame.free_slots)


# ---------------------------------------------------------------------------
# Gauge transformations


def _check_square_rational(A, size=None):
    M = [[rat(x) for x in row] for row in A]
    n = len(M)
    if any(len(r) != n for r in M):
        raise ShapeError("gauge matrix must be square")
    if size is not None and n != size:
        raise ShapeError(f"gauge matrix must be {size}x{size}, got {n}x{n}")
    if mat_det(M) == 0:
        raise SingularityError("gauge matrix is not invertible")
    return M


def gauge_transform_metric(metric: MetricSeries, A) -> MetricSeries:
    """Metric of the re-combined frame F' = F A:  H' = A* H A.

    A has rational (hence real) entries, so A* is the transpose.
    """
    Hf = _unscaled_matrix(metric)
    t = Hf.n
    M = _check_square_rational(A, t)
    rows = []
    for i in range(t):
        row = []
        for j in range(t):
            acc = TruncSeries.zero(Hf.npairs, Hf.trunc)
            for k in range(t):
                for l in range(t):
                    c = M[k][i] * M[l][j]
                    if c != 0:
                        acc = acc + Hf.entries[k][l].scale(c)
            row.append(acc)
        rows.append(row)
    return MetricSeries(SeriesMatrix(rows), metric.base_point,
                        metric.free_slots, None)


def gauge_conjugate(K: CurvatureTensor, A) -> CurvatureTensor:
    """Curvature of the gauge-transformed frame: every block goes to
    A^{-1} block A."""
    M = _check_square_rational(A, K.size)
    Minv = mat_inverse(M)
    blocks = tuple(
        tuple(tuple(tuple(row) for row in mat_mul(mat_mul(Minv, [list(r) for r in K.blocks[i][j]]), M))
              for j in range(len(K.blocks[i])))
        for i in range(len(K.blocks)))
    return CurvatureTensor(K.base_point, K.size, blocks, K.free_slots,
                           K.convention)


def gauge_equivalent(K1: CurvatureTensor, K2: CurvatureTensor):
    """Invertible rational A with A^{-1} K1 A = K2 blockwise, or None.

    The intertwining equations K1_b A = A K2_b are linear in A; an
    invertible element of their solution space is found, when one exists, by
    expanding the determinant of a generic combination as an exact
    polynomial and scanning a small deterministic grid (a nonzero polynomial
    of per-variable degree <= t cannot vanish on a grid with t+1 values per
    variable).
    """
    if K1.size != K2.size or len(K1.blocks) != len(K2.blocks):
        raise ShapeError("curvature tensors have different shapes")
    t = K1.size
    rows = []
    for i in range(len(K1.blocks)):
        for j in range(len(K1.blocks[i])):
            B1 = K1.blocks[i][j]
            B2 = K2.blocks[i][j]
            for r in range(t):
                for c in range(t):
                    row = [Fraction(0)] * (t * t)
                    for s in range(t):
                        row[s * t + c] += B1[r][s]
                        row[r * t + s] -= B2[s][c]
                    rows.append(row)
    if not rows:
        raise ShapeError("curvature tensors carry no blocks")
    basis = nullspace(rows)
    if not basis:
        return None
    r = len(basis)
    # det of sum x_i X_i as an exact polynomial in x_1..x_r
    entries = [[Poly.zero(r) for _ in range(t)] for _ in range(t)]
    for idx, vec in enumerate(basis):
        xi = Poly.variable(r, idx)
        for a in range(t):
            for b in range(t):
                if vec[a * t + b] != 0:
                    entries[a][b] = entries[a][b] + xi * vec[a * t + b]
    detp = cofactor_det(entries)
    if detp.is_zero():
        return None
    for point in iter_product(range(t + 1), repeat=r):
        if detp.evaluate([Fraction(x) for x in point]) != 0:
            A = [[Fraction(0)] * t for _ in range(t)]
            for idx, vec in enumerate(basis):
                if point[idx]:
                    for a in range(t):
                        for b in range(t):
                            A[a][b] += point[idx] * vec[a * t + b]
            return tuple(tuple(row) for row in A)
    return None  # unreachable for nonzero detp by the grid argument


# ---------------------------------------------------------------------------
# Principal-ideal curvature pair

EQCC_NOTE = ("two readings of the transverse curvature of a principal "
             "power-ideal frame on the bidisc: the mixed Hessian of the "
             "squared frame norm itself equals mu * poch(lambda, p)/p!, "
             "while the mixed Hessian of its logarithm equals mu; the two "
             "differ by the squared norm at the base point, and both are "
             "reported because the source display uses the un-logged value "
             "where the log-derivative convention would give mu")


@dataclass(frozen=True)
class PrincipalCurvaturePair:
    raw: Fraction        # mixed Hessian of ||F_1||^2 itself
    log_based: Fraction  # mixed Hessian of log ||F_1||^2
    note: str = EQCC_NOTE


def principal_curvature_pair(module: WeightedPolydiscModule, p: int,
                             gen_var: int = 0) -> PrincipalCurvaturePair:
    """Both transverse-curvature readings for <z_v^p>, v = gen_var + 1, on
    the bidisc at the origin slice point.  There ||F_1||^2 is
    poch(l_v, p)/p! (1 - |w|^2)^(-l_free) in the free variable w, so its
    mixed Hessian is poch(l_v, p)/p! l_free and that of its log is l_free."""
    if module.dim != 2:
        raise DomainError("the principal curvature pair is a bidisc quantity")
    if p < 1:
        raise DomainError(f"need p >= 1, got {p}")
    if gen_var not in (0, 1):
        raise DomainError(f"the generator variable must be 0 or 1, got "
                          f"{gen_var}")
    lam, mu = module.weights[gen_var], module.weights[1 - gen_var]
    return PrincipalCurvaturePair(
        raw=pochhammer(lam, p) / math.factorial(p) * mu, log_based=mu)

