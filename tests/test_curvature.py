import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv import curvature, invariants
from submodcurv.algebra import SeriesMatrix, TruncSeries, series_inverse
from submodcurv.curvature import (coordinate_det_fn, curvature_matrix,
                                  det_bundle_curvature, fd_log_hessian,
                                  fd_mixed_hessian, gauge_conjugate,
                                  gauge_equivalent, gauge_transform_metric,
                                  line_curvature, principal_curvature_pair,
                                  zero_set_metric_fn)
from submodcurv.errors import TruncationError
from submodcurv.frames import (MetricSeries, decompose_coordinate_ideal,
                               frame_on_zero_set, grammian)
from submodcurv.ideals import IdealSpec
from submodcurv.invariants import (lambda_mu_invariants,
                                   polydisc_rigidity_report)
from submodcurv.rkhs import WeightedPolydiscModule


def _coordinate_metric(lam, mu, trunc=4):
    mod = WeightedPolydiscModule(2, (lam, mu))
    return grammian(decompose_coordinate_ideal(mod, trunc))


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


def test_weight_swap_symmetry():
    Ka = det_bundle_curvature(_coordinate_metric(F(3, 2), F(2)))
    Kb = det_bundle_curvature(_coordinate_metric(F(2), F(3, 2)))
    assert Ka[0][0] == Kb[1][1]
    assert Ka[1][1] == Kb[0][0]


def test_trace_identity():
    for lam, mu in [(F(1), F(1)), (F(1), F(2)), (F(2), F(3)),
                    (F(1, 2), F(3, 2))]:
        H = _coordinate_metric(lam, mu)
        tensor = curvature_matrix(H)
        det_curv = det_bundle_curvature(H)
        assert tensor.trace_matrix() == det_curv


def test_curvature_matrix_needs_degree_two():
    H = _coordinate_metric(F(1), F(1), trunc=2)
    assert curvature_matrix(H).trace_matrix() == det_bundle_curvature(H)
    below = MetricSeries(SeriesMatrix([[s.truncate(1) for s in row]
                                       for row in H.matrix.entries]),
                         H.base_point, H.free_slots)
    with pytest.raises(TruncationError):
        curvature_matrix(below)


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
    return curvature_matrix(metric).blocks, det_bundle_curvature(metric)


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
    for lam, mu, p in [(1, 1, 1), (1, 2, 2), (2, 1, 3), (2, 2, 2)]:
        mod = WeightedPolydiscModule(2, (lam, mu))
        pair = principal_curvature_pair(mod, p)
        fact = 1
        for k in range(1, p + 1):
            fact *= k
        poch = F(1)
        for k in range(p):
            poch *= lam + k
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
