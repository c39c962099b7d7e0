"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single
``CRITERION <n> (<name>): PASS|FAIL`` line.  Run with

    pytest tests/test_acceptance.py -s

to see the lines as they are produced; without -s pytest still fails the
run on any red criterion and shows the captured line in the report.
"""

import random
import time
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv import (DiagonalFilteredKernel, GramFormKernel, IdealSpec,
                        WeightedPolydiscModule, cubic_positive_roots,
                        curvature_matrix, decompose_coordinate_ideal,
                        det_bundle_curvature, frame_on_zero_set, grammian,
                        lambda_mu_invariants, localization_dim,
                        principal_curvature_pair, principal_rigidity,
                        polydisc_rigidity, reconstruction_residual)
from submodcurv.algebra import TruncSeries
from oracles import (conj, coordinate_det_fn, coordinate_powers,
                     fd_log_hessian, full_reconstruction_residual,
                     gauge_conjugate, gauge_equivalent,
                     gauge_transform_metric, geometric_sum,
                     is_hermitian_by_pair_loop, line_curvature,
                     series_w, zero_set_metric_fn)
from test_curvature import _det_bundle_by_log_det


def _finish(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nCRITERION {num} ({name}): {status}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


WEIGHT_GRID = (F(1, 2), F(1), F(3, 2), F(2), F(3))


def test_criterion_1_coordinate_ideal_curvature_closed_form():
    # det-bundle curvature of the full coordinate ideal on the bidisc must
    # reproduce the closed form exactly for all 25 weight pairs, under 10 s
    failures = []
    start = time.monotonic()
    for lam in WEIGHT_GRID:
        for mu in WEIGHT_GRID:
            mod = WeightedPolydiscModule(2, (lam, mu))
            frame = decompose_coordinate_ideal(mod, 6)
            H = grammian(frame)
            K = det_bundle_curvature(H)
            inv = lambda_mu_invariants(lam, mu)
            if (K[0][0], K[1][1]) != inv.as_pair():
                failures.append(
                    f"({lam},{mu}): got ({K[0][0]},{K[1][1]}), "
                    f"want {inv.as_pair()}")
            if K[0][1] != 0 or K[1][0] != 0:
                failures.append(f"({lam},{mu}): off-diagonal nonzero")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"grid took {elapsed:.2f}s, budget 10s")
    _finish(1, "coordinate-ideal curvature closed form, 25 weight pairs",
            failures)


def test_criterion_2_principal_power_curvature_pair():
    # both transverse-curvature readings for <z1^p>, exact, with the
    # convention note attached
    failures = []
    from oracles import pochhammer
    for lam in (F(1), F(2)):
        for mu in (F(1), F(2)):
            for p in (1, 2, 3):
                mod = WeightedPolydiscModule(2, (lam, mu))
                pair = principal_curvature_pair(mod, p)
                raw_want = mu * pochhammer(lam, p) / F(
                    [1, 1, 2, 6][p])
                if pair.raw != raw_want:
                    failures.append(
                        f"raw ({lam},{mu},p={p}): {pair.raw} != {raw_want}")
                if pair.log_based != mu:
                    failures.append(
                        f"log ({lam},{mu},p={p}): {pair.log_based} != {mu}")
                if "log" not in pair.note:
                    failures.append("convention note missing")
    _finish(2, "principal power-ideal curvature pair with convention note",
            failures)


def test_criterion_3_rigidity_iff_equal_weights():
    failures = []
    combos = 0
    pool = (F(1), F(3, 2), F(2))
    for lam in pool:
        for mu in pool:
            for lam2 in pool:
                for mu2 in pool:
                    for p in (1, 2):
                        combos += 1
                        got = principal_rigidity(lam, mu, p, lam2, mu2)
                        want = (lam, mu) == (lam2, mu2)
                        if got != want:
                            failures.append(
                                f"principal ({lam},{mu},p={p}) vs "
                                f"({lam2},{mu2}): {got}")
    tuples = [(F(1), F(1), F(1)), (F(1), F(2), F(1)), (F(2), F(1), F(3)),
              (F(1, 2), F(1), F(2)), (F(3, 2), F(2), F(1))]
    for w1 in tuples:
        for w2 in tuples:
            for exps in ((1,), (2,)):
                combos += 1
                got = polydisc_rigidity(w1, exps, w2)
                want = w1 == w2
                if got != want:
                    failures.append(f"polydisc {w1} vs {w2} exps={exps}: {got}")
    if combos < 50:
        failures.append(f"only {combos} combinations exercised")
    _finish(3, f"rigidity iff equal weights, {combos} combinations", failures)


def test_criterion_4_cubic_single_positive_root():
    # 500 rational alpha values covering (0, 10]
    failures = []
    for k in range(1, 501):
        alpha = F(k, 50)
        report = cubic_positive_roots(alpha)
        if report.positive_roots != 1:
            failures.append(f"alpha={alpha}: {report.positive_roots} roots")
        elif len(report.isolating_intervals) != 1:
            failures.append(f"alpha={alpha}: bad isolation")
    _finish(4, "cubic family has one positive root, 500 alpha values",
            failures)


def test_criterion_5_localization_dimensions():
    failures = []
    ideal = IdealSpec.catalogued("product_difference", 2)
    res = localization_dim(ideal, (F(0), F(0)))
    if res.dim != 2:
        failures.append(f"origin dim {res.dim} != 2")
    if res.stabilized_at is None or res.stabilized_at > 6:
        failures.append(f"origin stabilized_at {res.stabilized_at}")
    off = [(F(1, 3), F(1, 3)), (F(1, 2), F(1, 2)), (F(-1, 4), F(-1, 4)),
           (F(2, 5), F(2, 5)), (F(3, 7), F(3, 7))]
    for pt in off:
        res = localization_dim(ideal, pt)
        if res.dim != 1:
            failures.append(f"{pt}: dim {res.dim} != 1")
        if res.stabilized_at is None or res.stabilized_at > 6:
            failures.append(f"{pt}: stabilized_at {res.stabilized_at}")
    for p in (1, 2, 3):
        principal = IdealSpec.monomial(2, [(p, 0)])
        for pt in [(F(0), F(1, 3)), (F(1, 4), F(1, 5))]:
            res = localization_dim(principal, pt)
            if res.dim != 1:
                failures.append(f"<z1^{p}> at {pt}: dim {res.dim} != 1")
    _finish(5, "localization dimensions on and off the zero variety",
            failures)


def _random_invertible(rng, n=2):
    while True:
        a = [[F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)]
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if det != 0:
            return a


def test_criterion_6_gauge_transformation_law():
    failures = []
    mod = WeightedPolydiscModule(2, (F(1), F(2)))
    H = grammian(decompose_coordinate_ideal(mod, 6))
    K = curvature_matrix(H)
    rng = random.Random(20260819)
    for trial in range(20):
        A = _random_invertible(rng)
        K2 = curvature_matrix(gauge_transform_metric(H, A))
        want = gauge_conjugate(K, A)
        for i in range(2):
            for j in range(2):
                if K2.blocks[i][j] != want.blocks[i][j]:
                    failures.append(f"trial {trial}: block ({i},{j}) differs")
        W = gauge_equivalent(K, K2)
        if W is None:
            failures.append(f"trial {trial}: no witness found")
        else:
            back = gauge_conjugate(K, [list(r) for r in W])
            if any(back.blocks[i][j] != K2.blocks[i][j]
                   for i in range(2) for j in range(2)):
                failures.append(f"trial {trial}: witness does not intertwine")
    _finish(6, "gauge law and witness recovery, 20 random matrices", failures)


def test_criterion_7_oracle_agreement():
    failures = []
    # (a) float finite differences against the exact pipeline, h = 1e-3
    for weights, powers, base in [
        ((F(1), F(1)), (2,), (F(0), F(1, 5))),
        ((F(1), F(2)), (1,), (F(0), F(3, 10))),
        ((F(2), F(3)), (3,), (F(0), F(1, 4))),
        ((F(1), F(1), F(2)), (1, 2), (F(0), F(0), F(1, 5))),
    ]:
        m = len(weights)
        mod = WeightedPolydiscModule(m, weights)
        ideal = coordinate_powers(m, powers)
        frame = frame_on_zero_set(mod, ideal, base, 5)
        h00 = grammian(frame).matrix[0, 0]
        fn = zero_set_metric_fn(mod, ideal, 0)
        fbase = tuple(complex(x) for x in base)
        for slot in range(len(powers), m):
            exact = line_curvature(h00, slot, slot)
            fd = fd_log_hessian(fn, fbase, slot, slot, 1e-3)
            rel = abs(fd - float(exact)) / abs(float(exact))
            if rel > 1e-6:
                failures.append(
                    f"zero-set fd w={weights} slot={slot}: rel {rel:.2e}")
    for weights in [(F(1), F(1)), (F(1), F(2)), (F(2), F(3))]:
        mod = WeightedPolydiscModule(2, weights)
        K = det_bundle_curvature(grammian(decompose_coordinate_ideal(mod, 6)))
        fn = coordinate_det_fn(mod)
        for i in range(2):
            for j in range(2):
                fd = fd_log_hessian(fn, (0j, 0j), i, j, 1e-3)
                if K[i][j] == 0:
                    if abs(fd) > 1e-9:
                        failures.append(
                            f"det fd w={weights} ({i},{j}): |{abs(fd):.2e}|")
                else:
                    rel = abs(fd - float(K[i][j])) / abs(float(K[i][j]))
                    if rel > 1e-6:
                        failures.append(
                            f"det fd w={weights} ({i},{j}): rel {rel:.2e}")
    # (b) the two kernel constructions agree exactly: for a monomial ideal
    # the Gram-form kernel at degree D is the degree-D partial sum of the
    # filtered diagonal series
    mod = WeightedPolydiscModule(2, (F(1), F(2)))
    ideals = [[(1, 0)], [(2, 0)], [(1, 0), (0, 1)], [(2, 0), (0, 3)],
              [(1, 1)]]
    rng = random.Random(7)
    points = [(F(rng.randint(-3, 3), 7), F(rng.randint(-3, 3), 8))
              for _ in range(10)]
    D = 6
    for exps in ideals:
        spec = IdealSpec.monomial(2, exps)
        gram = GramFormKernel.from_ideal(mod, spec, D)
        diag = DiagonalFilteredKernel(mod, exps)
        for z in points:
            for w in points[:2]:
                a = gram.eval_exact(z, w)
                b = diag.eval_truncated(z, w, D).value
                if a != b:
                    failures.append(f"{exps} at {z},{w}: {a} != {b}")
    _finish(7, "finite-difference and Gram-form oracles agree", failures)


_weight = st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(3)])
_pos = st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4)


def test_criterion_8_property_suites():
    failures = []

    @settings(max_examples=30, deadline=None)
    @given(_weight, _weight, st.integers(1, 3),
           st.sampled_from([F(0), F(1, 3), F(-1, 4)]))
    def reconstruction_is_exact(lam, mu, p, b2):
        mod = WeightedPolydiscModule(2, (lam, mu))
        ideal = coordinate_powers(2, (p,))
        frame = frame_on_zero_set(mod, ideal, (F(0), b2), 4)
        assert reconstruction_residual(frame) == {}
        assert full_reconstruction_residual(frame) == {}
        frame2 = decompose_coordinate_ideal(mod, 4)
        assert reconstruction_residual(frame2) == {}
        assert full_reconstruction_residual(frame2) == {}

    @settings(max_examples=30, deadline=None)
    @given(_weight, _weight, _weight, st.sampled_from([F(0), F(1, 3)]))
    def grammian_hermitian_positive(lam, mu, nu, b3):
        mod = WeightedPolydiscModule(3, (lam, mu, nu))
        ideal = coordinate_powers(3, (1, 2))
        frame = frame_on_zero_set(mod, ideal, (F(0), F(0), b3), 4)
        H = grammian(frame)  # raises DegeneracyError unless PD
        assert is_hermitian_by_pair_loop(H.matrix)
        vals = H.value_at_base()
        assert all(vals[i][j] == vals[j][i] for i in range(2)
                   for j in range(2))
        assert vals[0][0] > 0
        assert vals[0][0] * vals[1][1] - vals[0][1] * vals[1][0] > 0

    @settings(max_examples=40, deadline=None)
    @given(_pos, _pos,
           st.fractions(min_value=F(-2), max_value=F(2), max_denominator=3))
    def log_factor_invariance(c, d, a):
        x = series_w(1, 4, 0) * TruncSeries.wbar(1, 4, 0)
        h = geometric_sum(x.scale(d))  # 1/(1 - d x)
        f = TruncSeries.constant(1, 4, c) + series_w(1, 4, 0).scale(a)
        g = h * f * conj(f)
        assert line_curvature(g, 0, 0) == line_curvature(h, 0, 0)
        assert line_curvature(h.scale(c), 0, 0) == line_curvature(h, 0, 0)

    @settings(max_examples=25, deadline=None)
    @given(_weight, _weight)
    def trace_identity(lam, mu):
        mod = WeightedPolydiscModule(2, (lam, mu))
        H = grammian(decompose_coordinate_ideal(mod, 6))
        # det_bundle_curvature is the blockwise trace; the reference takes
        # the series determinant of the 2-jet and its log-Hessian
        assert det_bundle_curvature(H) == _det_bundle_by_log_det(H)

    for prop in (reconstruction_is_exact, grammian_hermitian_positive,
                 log_factor_invariance, trace_identity):
        try:
            prop()
        except Exception as exc:  # hypothesis reports the falsifying example
            failures.append(f"{prop.__name__}: {exc!r:.200}")
    _finish(8, "exact invariant property suites", failures)
