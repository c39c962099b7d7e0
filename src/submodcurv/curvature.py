"""Curvature of the frame bundles.

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
trace of the curvature matrix, so no series determinant is taken.  A
metric truncated above degree 2 gives the same Fractions.  The gauge law
above and the line curvature of a scalar metric are checked in the tests
(tests/oracles.py), not computed here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import ZERO, Record, TruncSeries, unit
from .errors import DomainError, SingularityError, TruncationError
from .frames import (COORDINATE_KIND, FrameSeries, MetricSeries,
                     coordinate_terms, share_generators)
from .linalg import _common_denominator, mat_inverse, mat_mul
from .rkhs import WeightedPolydiscModule, diag_coeff

CONVENTION = ("metric H_ij = <F_j, F_i>; curvature block (i,j) = "
              "d_{w_i}(H^{-1} d_{wbar_j} H) at the base point; "
              "det-bundle curvature = mixed Hessian of log det H "
              "(= blockwise trace of the curvature matrix)")

# Every curvature value reads only the terms of degree <= 2 of a metric, so
# frames built only for curvature are truncated here.
JET_DEGREE = 2


def det_bundle_curvature(metric: MetricSeries):
    """Full matrix of mixed Hessians of log det H at the base point: the
    blockwise trace of curvature_matrix(metric), by Jacobi's formula.
    The scale of a diagonal metric multiplies det H by a positive
    constant and drops out; a non-diagonal metric with a scale (grammian
    never builds one) raises DomainError, and truncation degree below 2
    raises TruncationError, as in curvature_matrix."""
    return curvature_matrix(metric).trace_matrix()


class CurvatureTensor(Record):
    """Curvature blocks of a Grammian metric at its base point.

    blocks[i][j] is the t-by-t rational matrix of the (i, j) mixed
    derivative, as nested tuples; i, j run over all ambient variables, with
    blocks vanishing identically in directions the metric does not move in.
    curvature_tensor shares one all-zero block among those, which
    trace_matrix reads as a zero trace without summing it.
    """

    _fields = ("size", "blocks")

    def trace_matrix(self):
        """Blockwise traces.  Only the diagonal entries other than the
        package's zero, algebra.ZERO, are summed, and a zero trace is that
        zero, as every entry is a Fraction."""
        zero = _zero_block(self.size)
        return tuple(tuple([ZERO if block is zero else _trace(block)
                            for block in row]) for row in self.blocks)


@lru_cache(maxsize=16)
def _zero_block(t: int) -> tuple:
    """The t-by-t all-zero block, one object per t, which curvature_tensor
    puts at every block it does not write."""
    return ((ZERO,) * t,) * t


def _trace(block) -> Fraction:
    """The sum of the diagonal entries other than ZERO: their numerators
    over the lcm of their denominators, one Fraction, and ZERO for a zero
    sum."""
    diagonal = [row[k] for k, row in enumerate(block) if row[k] is not ZERO]
    if len(diagonal) < 2:
        return diagonal[0] if diagonal and diagonal[0] else ZERO
    ints, den = _common_denominator(diagonal)
    total = sum(ints)
    return Fraction(total, den) if total else ZERO


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
    degree changes no value.  The scale of a diagonal metric cancels; a
    non-diagonal metric with a scale raises DomainError, since grammian
    folds every rational scale and exact matrix algebra cannot absorb an
    irrational one.
    """
    H = metric.matrix
    m = H.npairs
    t = H.n
    if H.trunc < JET_DEGREE:
        raise TruncationError(f"curvature_matrix needs truncation degree >= "
                              f"{JET_DEGREE}, got {H.trunc}")
    # a scale multiplies H by a constant, which cancels in H^{-1} dbar H
    # only where H is diagonal
    if metric.scale is not None and not metric.is_diagonal():
        raise DomainError(
            "metric carries an irrational symbolic scale; "
            "diagonal-only operations apply, not full matrix algebra")
    jets = [[_two_jet(s) for s in row] for row in H.entries]
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
    return CurvatureTensor(t, tuple(blocks))


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

    Only the blocks with a nonzero entry are written: the (k, q) that a
    term with |a| = 2 reaches, or the free-slot diagonal, and within a
    coordinate block only the rows with a nonzero entry.  Every other
    block is one shared all-zero block (_zero_block), and every other row
    its zero row.  Equal to curvature_matrix(grammian(frame)).
    """
    m = frame.module.dim
    t = frame.count
    zero = _zero_block(t)
    written = {}
    if frame.kind == COORDINATE_KIND:
        gens, scale = share_generators(frame)
        for num, den, downs in coordinate_terms(frame, 2, 2):
            # (i, k, x_i): a - e_i = e_k
            pairs = [(i, d.index(1), x) for i, x, d in downs]
            for i, k, xi in pairs:
                ni, di = num * xi * scale, den * gens[i][3]
                for j, q, xj in pairs:
                    block = written.get((k, q))
                    if block is None:
                        block = written[k, q] = list(zero)
                    row = block[i]
                    if row is zero[0]:
                        row = block[i] = list(row)
                    row[j] = Fraction(ni * xj, di)
        # tuple() of a row never written returns the shared zero row
        written = {kq: tuple(map(tuple, block))
                   for kq, block in written.items()}
    else:
        weights = frame.module.weights
        zeros = (ZERO,) * (t - 1)
        for k in frame.free_slots:
            c = frame.base_point[k]
            value = weights[k] / (1 - c * c) ** 2
            written[k, k] = tuple(zeros[:a] + (value,) + zeros[a:]
                                  for a in range(t))
    return CurvatureTensor(
        t, tuple(tuple(written.get((k, q), zero) for q in range(m))
                 for k in range(m)))


# ---------------------------------------------------------------------------
# Principal-ideal curvature pair

EQCC_NOTE = ("two readings of the transverse curvature of a principal "
             "power-ideal frame on the bidisc: the mixed Hessian of the "
             "squared frame norm itself equals mu * poch(lambda, p)/p!, "
             "while the mixed Hessian of its logarithm equals mu; the two "
             "differ by the squared norm at the base point, and both are "
             "reported because the source display uses the un-logged value "
             "where the log-derivative convention would give mu")


class PrincipalCurvaturePair(Record):
    # raw: mixed Hessian of ||F_1||^2 itself; log_based: that of its log
    _fields = ("raw", "log_based", "note")
    _defaults = {"note": EQCC_NOTE}


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
    mu = module.weights[1 - gen_var]
    return PrincipalCurvaturePair(
        raw=diag_coeff(module, unit(2, gen_var, p)) * mu, log_based=mu)

