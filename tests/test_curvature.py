import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv import cli, curvature, invariants
from submodcurv.algebra import (MultiIndex, SeriesMatrix, TruncSeries,
                                series_inverse)
from submodcurv.curvature import (JET_DEGREE, coordinate_det_fn,
                                  curvature_matrix, det_bundle_curvature,
                                  fd_log_hessian, fd_mixed_hessian,
                                  gauge_conjugate, gauge_equivalent,
                                  gauge_transform_metric, line_curvature,
                                  principal_curvature_pair,
                                  zero_set_metric_fn)
from submodcurv.errors import DomainError, TruncationError
from submodcurv.frames import (MetricSeries, decompose_coordinate_ideal,
                               frame_on_zero_set, grammian)
from submodcurv.ideals import IdealSpec
from submodcurv.invariants import (lambda_mu_invariants,
                                   polydisc_rigidity_report)
from submodcurv.rkhs import WeightedPolydiscModule


GOLDEN_CURVATURE = sorted(
    (Path(__file__).parent / "golden" / "curvature").glob("*.ini"))


def _coordinate_metric(lam, mu, trunc=4):
    mod = WeightedPolydiscModule(2, (lam, mu))
    return grammian(decompose_coordinate_ideal(mod, trunc))


def _jet(s, degree):
    """The terms of a series up to the given total degree."""
    return TruncSeries(s.npairs, degree, s.coeffs)


def _det_bundle_by_log_det(metric):
    """Reference for det_bundle_curvature: the mixed Hessians of log det H
    by their definition, the series determinant of the 2-jet of H and the
    line-bundle formula for each (i, j).  Symbolic scales multiply det H by
    a constant and are ignored."""
    H = metric.matrix
    jet = min(H.trunc, JET_DEGREE)
    d = SeriesMatrix([[_jet(s, jet) for s in row] for row in H.entries]).det()
    m = H.npairs
    return tuple(tuple(line_curvature(d, i, j) for j in range(m))
                 for i in range(m))


def test_det_bundle_reference_values():
    K = det_bundle_curvature(_coordinate_metric(F(1), F(1)))
    assert K[0][0] == F(5, 4) and K[1][1] == F(5, 4)
    assert K[0][1] == 0 and K[1][0] == 0
    K = det_bundle_curvature(_coordinate_metric(F(1), F(2)))
    assert K[0][0] == F(13, 9) and K[1][1] == F(31, 18)


def test_det_bundle_matches_closed_form_grid():
    for lam, mu in itertools.product((F(1, 2), F(1), F(2)), repeat=2):
        K = det_bundle_curvature(_coordinate_metric(lam, mu))
        inv = lambda_mu_invariants(lam, mu)
        assert K[0][0] == inv.kappa1
        assert K[1][1] == inv.kappa2


def test_trace_identity():
    for lam, mu in [(F(1), F(1)), (F(1), F(2)), (F(2), F(3)),
                    (F(1, 2), F(3, 2))]:
        H = _coordinate_metric(lam, mu)
        want = _det_bundle_by_log_det(H)
        assert curvature_matrix(H).trace_matrix() == want
        assert det_bundle_curvature(H) == want


@pytest.mark.parametrize("config", GOLDEN_CURVATURE,
                         ids=[c.stem for c in GOLDEN_CURVATURE])
def test_det_bundle_matches_log_det_on_golden_configs(config):
    # the frame and metric the curvature task builds for the config
    cfg = cli.parse_config(config.read_text(encoding="utf-8"))
    module = cli._build_module(cfg)
    H = grammian(cli._build_frame(cfg, module, cli._build_ideal(cfg)))
    assert det_bundle_curvature(H) == _det_bundle_by_log_det(H)


def test_curvature_matrix_needs_degree_two():
    H = _coordinate_metric(F(1), F(1), trunc=2)
    assert curvature_matrix(H).trace_matrix() == _det_bundle_by_log_det(H)
    below = MetricSeries(SeriesMatrix([[_jet(s, 1) for s in row]
                                       for row in H.matrix.entries]),
                         H.base_point, H.free_slots)
    with pytest.raises(TruncationError):
        curvature_matrix(below)
    with pytest.raises(TruncationError):
        det_bundle_curvature(below)


def test_det_bundle_refuses_scaled_non_diagonal_metric():
    # grammian never builds such a metric: scales are left only on the
    # diagonal closed form of a zero-set frame
    mod = WeightedPolydiscModule(3, (1, F(3, 2), F(1, 2)))
    scaled = grammian(frame_on_zero_set(
        mod, IdealSpec.coordinate_powers(3, (1,)), (F(0), F(1, 2), F(0)),
        JET_DEGREE))
    assert scaled.scales is not None
    H = _coordinate_metric(F(1), F(2), trunc=JET_DEGREE)
    assert not H.is_diagonal()
    with pytest.raises(DomainError):
        det_bundle_curvature(MetricSeries(H.matrix, H.base_point,
                                          H.free_slots, scaled.scales[:2]))


def test_rank_one_curvature_equals_line_curvature():
    mod = WeightedPolydiscModule(2, (1, 2))
    ideal = IdealSpec.monomial(2, [(2, 0)])
    frame = frame_on_zero_set(mod, ideal, (F(0), F(0)), 4)
    H = grammian(frame)
    tensor = curvature_matrix(H)
    want = line_curvature(H.matrix[0, 0], 1, 1)
    assert tensor.block(1, 1)[0][0] == want


# -- metamorphic: the truncation degree changes no curvature value ----------

DEGREES = (2, 4, 6)


def _curvatures(metric):
    det_curv = _det_bundle_by_log_det(metric)
    assert det_bundle_curvature(metric) == det_curv
    return curvature_matrix(metric).blocks, det_curv


@pytest.mark.parametrize("m", (2, 3, 4))
@pytest.mark.parametrize("weights", ((1, 2, 3, 4),
                                     (F(1, 2), F(3, 2), F(5, 2), F(1, 2))))
def test_raising_degree_keeps_coordinate_curvature(m, weights):
    mod = WeightedPolydiscModule(m, weights[:m])
    got = [_curvatures(grammian(decompose_coordinate_ideal(mod, D)))
           for D in DEGREES]
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("weights", ((1, 2, 3), (1, F(3, 2), F(1, 2))))
def test_raising_degree_keeps_zero_set_curvature(weights):
    # integer weights fold the base-point scales into the series; half-integer
    # weights leave irrational scales carried symbolically
    mod = WeightedPolydiscModule(3, weights)
    ideal = IdealSpec.coordinate_powers(3, (2,))
    base = (F(0), F(1, 2), F(-1, 3))
    metrics = [grammian(frame_on_zero_set(mod, ideal, base, D))
               for D in DEGREES]
    assert all((H.scales is None) == (weights[1] == 2) for H in metrics)
    got = [_curvatures(H) for H in metrics]
    assert got[0] == got[1] == got[2]


def test_raising_degree_keeps_principal_pair_and_battery(monkeypatch):
    seen = []

    def at_degree(D):
        def build(module, ideal, base, trunc):
            seen.append(trunc)
            return frame_on_zero_set(module, ideal, base, D)
        monkeypatch.setattr(curvature, "frame_on_zero_set", build)
        monkeypatch.setattr(invariants, "frame_on_zero_set", build)
        pairs = [principal_curvature_pair(WeightedPolydiscModule(2, w), p)
                 for w in ((1, 2), (F(3, 2), F(1, 2))) for p in (1, 2)]
        batteries = [polydisc_rigidity_report(w, exps, w).battery_left
                     for w, exps in (((1, 2, 3), (2,)),
                                     ((F(1, 2), F(3, 2), F(5, 2)), (1, 2)))]
        return pairs, batteries

    got = [at_degree(D) for D in DEGREES]
    assert got[0] == got[1] == got[2]
    assert set(seen) == {2}


# -- metamorphic: renaming variables permutes the curvature ----------------
#
# Variable i becomes variable sigma[i], carrying its weight and base-point
# coordinate along.  Block (i, j) must move to (sigma[i], sigma[j]), and
# within each block the frame slots follow their generator variables
# (frames order generators by variable).  Every permutation is tried, so
# the zero-set cases permute the free slots among themselves as well as
# moving the generators.

def _curvature_of(weights, gens, base):
    """Det-bundle matrix and curvature tensor of the coordinate frame
    (gens None) or of the zero-set frame of <z_{v+1}^p : (v, p) in gens>."""
    m = len(weights)
    mod = WeightedPolydiscModule(m, weights)
    if gens is None:
        frame = decompose_coordinate_ideal(mod, JET_DEGREE)
    else:
        ideal = IdealSpec.monomial(m, [MultiIndex.unit(m, v, p)
                                       for v, p in gens])
        frame = frame_on_zero_set(mod, ideal, base, JET_DEGREE)
    H = grammian(frame)
    return det_bundle_curvature(H), curvature_matrix(H)


def _renamed(sigma, values):
    out = [None] * len(values)
    for i, x in enumerate(values):
        out[sigma[i]] = x
    return tuple(out)


PERMUTATION_CASES = {
    # the m=2 weight swap
    "coordinate-m2": ((F(3, 2), F(2)), None, (F(0), F(0))),
    "coordinate-m3": ((F(1), F(2), F(3, 2)), None, (F(0),) * 3),
    "coordinate-m3-frac": ((F(1, 2), F(3, 2), F(5, 3)), None, (F(0),) * 3),
    "zero-set-m3": ((F(1), F(2), F(3, 2)), [(0, 2)],
                    (F(0), F(1, 3), F(-1, 4))),
    "zero-set-m4": ((F(1, 2), F(2), F(5, 3), F(3)), [(0, 1), (1, 3)],
                    (F(0), F(0), F(1, 3), F(-1, 4))),
}


@pytest.mark.parametrize("case", PERMUTATION_CASES)
def test_permuting_variables_permutes_curvature(case):
    weights, gens, base = PERMUTATION_CASES[case]
    m = len(weights)
    det0, K0 = _curvature_of(weights, gens, base)
    gen_vars = range(m) if gens is None else sorted(v for v, _ in gens)
    for sigma in itertools.permutations(range(m)):
        moved = None if gens is None else [(sigma[v], p) for v, p in gens]
        det1, K1 = _curvature_of(_renamed(sigma, weights), moved,
                                 _renamed(sigma, base))
        # frame slot a (generator variable gen_vars[a]) becomes slot
        # slot[a], the rank of sigma[gen_vars[a]] among the new variables
        new_vars = sorted(sigma[v] for v in gen_vars)
        slot = [new_vars.index(sigma[v]) for v in gen_vars]
        assert K1.free_slots == tuple(sorted(sigma[i] for i in K0.free_slots))
        for i, j in itertools.product(range(m), repeat=2):
            assert det1[sigma[i]][sigma[j]] == det0[i][j]
            block0, block1 = K0.block(i, j), K1.block(sigma[i], sigma[j])
            for a, b in itertools.product(range(K0.size), repeat=2):
                assert block1[slot[a]][slot[b]] == block0[a][b]


def _random_invertible(rng, n=2):
    while True:
        a = [[F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det != 0:
            return a


def test_gauge_transformation_law():
    H = _coordinate_metric(F(1), F(2))
    K = curvature_matrix(H)
    rng = random.Random(42)
    for _ in range(8):
        A = _random_invertible(rng)
        H2 = gauge_transform_metric(H, A)
        K2 = curvature_matrix(H2)
        want = gauge_conjugate(K, A)
        for i in range(2):
            for j in range(2):
                assert K2.block(i, j) == want.block(i, j)


def test_gauge_equivalent_round_trip():
    H = _coordinate_metric(F(1), F(2))
    K1 = curvature_matrix(H)
    A = [[F(2), F(1)], [F(0), F(1)]]
    K2 = gauge_conjugate(K1, A)
    W = gauge_equivalent(K1, K2)
    assert W is not None
    back = gauge_conjugate(K1, [list(r) for r in W])
    for i in range(2):
        for j in range(2):
            assert back.block(i, j) == K2.block(i, j)


def test_gauge_equivalent_rejects_distinct():
    K1 = curvature_matrix(_coordinate_metric(F(1), F(2)))
    K3 = curvature_matrix(_coordinate_metric(F(3), F(1)))
    assert gauge_equivalent(K1, K3) is None
    # scaling every block breaks equivalence too (conjugation
    # preserves the blockwise spectrum)
    from submodcurv.curvature import CurvatureTensor
    scaled = CurvatureTensor(
        base_point=K1.base_point, size=K1.size,
        blocks=tuple(tuple(tuple(tuple(2 * x for x in row) for row in blk)
                           for blk in brow) for brow in K1.blocks),
        free_slots=K1.free_slots)
    assert gauge_equivalent(K1, scaled) is None


def test_principal_pair_reference_values():
    # lam is the generator's weight and mu the free variable's, with the
    # generator on z1 and, weights swapped, on z2; <z2^2> over (1, 3) reads
    # poch(3, 2)/2! = 6 and 1 in w1
    for lam, mu, p in [(1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2)]:
        fact = 1
        for k in range(1, p + 1):
            fact *= k
        poch = F(1)
        for k in range(p):
            poch *= lam + k
        for gen_var, weights in ((0, (lam, mu)), (1, (mu, lam))):
            mod = WeightedPolydiscModule(2, weights)
            pair = principal_curvature_pair(mod, p, gen_var)
            assert pair.raw == F(mu) * poch / fact
            assert pair.log_based == F(mu)
            assert "log" in pair.note


# -- finite-difference oracle -----------------------------------------------


def test_fd_matches_exact_line_curvature():
    mod = WeightedPolydiscModule.hardy(2)
    ideal = IdealSpec.monomial(2, [(1, 0)])
    fn = zero_set_metric_fn(mod, ideal)
    got = fd_log_hessian(fn, (0.0, 0.3), 1, 1)
    want = float(F(100, 91)) ** 2  # 1/(1 - 9/100)^2
    assert abs(got - want) / want <= 1e-6


def test_fd_matches_det_bundle():
    fn = coordinate_det_fn(WeightedPolydiscModule(2, (1, 2)))
    assert abs(fd_log_hessian(fn, (0.0, 0.0), 0, 0) - 13 / 9) <= 2e-6
    assert abs(fd_log_hessian(fn, (0.0, 0.0), 1, 1) - 31 / 18) <= 2e-6


def test_fd_constant_is_flat():
    got = fd_mixed_hessian(lambda w: 7.5, (0.1, 0.2), 0, 1)
    assert abs(got) <= 1e-10
    got = fd_mixed_hessian(lambda w: 7.5, (0.1, 0.2), 1, 1)
    assert abs(got) <= 1e-10


def test_fd_off_diagonal_cross_term():
    # f = |w1|^2 |w2|^2 has d_1 dbar_2 f = w2 wb1 -> at real point (a, b): ab
    f = lambda w: (abs(w[0]) ** 2) * (abs(w[1]) ** 2)
    got = fd_mixed_hessian(f, (0.25, 0.5), 0, 1)
    assert abs(got - 0.25 * 0.5) <= 1e-6


# -- properties ---------------------------------------------------------------

_pos = st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4)


@settings(max_examples=25, deadline=None)
@given(_pos, _pos)
def test_line_curvature_scale_invariance(c, d):
    x = TruncSeries.w(1, 4, 0) * TruncSeries.wbar(1, 4, 0)
    h = series_inverse(TruncSeries.one(1, 4) - x.scale(d))
    assert line_curvature(h.scale(c), 0, 0) == line_curvature(h, 0, 0)


@settings(max_examples=25, deadline=None)
@given(_pos, st.fractions(min_value=F(-2), max_value=F(2), max_denominator=3))
def test_line_curvature_log_factor_invariance(c, a):
    # multiplying by f(w) conj(f)(wb) with f(0) != 0 adds zero curvature:
    # log|f|^2 is pluriharmonic
    x = TruncSeries.w(1, 4, 0) * TruncSeries.wbar(1, 4, 0)
    h = series_inverse(TruncSeries.one(1, 4) - x)
    f = TruncSeries.constant(1, 4, c) + TruncSeries.w(1, 4, 0).scale(a)
    g = h * f * f.conj()
    assert line_curvature(g, 0, 0) == line_curvature(h, 0, 0)
