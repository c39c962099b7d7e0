import itertools
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv import cli, invariants
from submodcurv.algebra import ZERO, SeriesMatrix, TruncSeries, unit
from submodcurv import curvature
from submodcurv.curvature import (JET_DEGREE, CurvatureTensor,
                                  PrincipalCurvaturePair, curvature_matrix,
                                  curvature_tensor, det_bundle_curvature,
                                  principal_curvature_pair)
from submodcurv.errors import DomainError, TruncationError
from submodcurv.frames import (COORDINATE_KIND, decompose_coordinate_ideal,
                               frame_on_zero_set, grammian)
from submodcurv.ideals import IdealSpec
from submodcurv.invariants import (lambda_mu_invariants,
                                   polydisc_rigidity_report)
from submodcurv.rkhs import WeightedPolydiscModule

from oracles import (conj, coordinate_det_fn, coordinate_powers,
                     coordinate_tensor_by_fraction_shares, fd_log_hessian,
                     fd_mixed_hessian, forbid_fraction_arithmetic,
                     gauge_conjugate, gauge_equivalent,
                     gauge_transform_metric, geometric_sum, hardy,
                     line_curvature, metric_from_series, mixed_hessian,
                     series_w, trace_by_fraction_sum, zero_set_metric_fn)
from test_frames import share_weights


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CURVATURE = sorted((GOLDEN / "curvature").glob("*.ini"))
GOLDEN_COMPARE = sorted((GOLDEN / "compare").glob("*.ini"))


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
    below = metric_from_series(SeriesMatrix([[_jet(s, 1) for s in row]
                                             for row in H.matrix.entries]))
    with pytest.raises(TruncationError):
        curvature_matrix(below)
    with pytest.raises(TruncationError):
        det_bundle_curvature(below)


def test_det_bundle_refuses_scaled_non_diagonal_metric():
    # grammian never builds such a metric: a scale is left only on the
    # diagonal closed form of a zero-set frame
    mod = WeightedPolydiscModule(3, (1, F(3, 2), F(1, 2)))
    scaled = grammian(frame_on_zero_set(
        mod, coordinate_powers(3, (1,)), (F(0), F(1, 2), F(0)),
        JET_DEGREE))
    assert scaled.scale is not None
    H = _coordinate_metric(F(1), F(2), trunc=JET_DEGREE)
    assert not H.is_diagonal()
    with pytest.raises(DomainError):
        det_bundle_curvature(metric_from_series(H.matrix, scaled.scale))


def test_rank_one_curvature_equals_line_curvature():
    mod = WeightedPolydiscModule(2, (1, 2))
    ideal = IdealSpec.monomial(2, [(2, 0)])
    frame = frame_on_zero_set(mod, ideal, (F(0), F(0)), 4)
    H = grammian(frame)
    tensor = curvature_matrix(H)
    want = line_curvature(H.matrix[0, 0], 1, 1)
    assert tensor.blocks[1][1][0][0] == want


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
    # integer weights fold the base-point constant into the series;
    # half-integer weights leave an irrational scale carried symbolically
    mod = WeightedPolydiscModule(3, weights)
    ideal = coordinate_powers(3, (2,))
    base = (F(0), F(1, 2), F(-1, 3))
    metrics = [grammian(frame_on_zero_set(mod, ideal, base, D))
               for D in DEGREES]
    assert all((H.scale is None) == (weights[1] == 2) for H in metrics)
    got = [_curvatures(H) for H in metrics]
    assert got[0] == got[1] == got[2]


def _reference_pair(module, p, gen_var=0, degree=JET_DEGREE):
    """The metric route to the principal pair: the Grammian of the frame of
    <z_v^p> at the origin, then the mixed Hessians of its one entry and of
    that entry's log in the free direction."""
    ideal = IdealSpec.monomial(2, [unit(2, gen_var, p)])
    frame = frame_on_zero_set(module, ideal, (F(0), F(0)), degree)
    h = grammian(frame).matrix[0, 0]
    free = 1 - gen_var
    return PrincipalCurvaturePair(raw=mixed_hessian(h, free, free),
                                  log_based=line_curvature(h, free, free))


def _reference_battery(module, data, degree=JET_DEGREE):
    """The metric route to the rigidity battery: Grammians of the frames of
    the ideal and of each one-exponent-raised companion at the origin, read
    through line_curvature and mixed_hessian."""
    m = module.dim
    origin = (F(0),) * m

    def frame(shift=None):
        ideal = IdealSpec.monomial(m, [unit(m, v, p + (k == shift))
                                       for k, (v, p) in enumerate(data)])
        return frame_on_zero_set(module, ideal, origin, degree)

    def metric(shift=None):
        return grammian(frame(shift))

    free = frame().free_slots
    base = metric()
    battery = [(f"transverse_log_curvature_w{i+1}",
                line_curvature(base.matrix[0, 0], i, i))
               for i in free]
    i0 = free[0]
    for k in range(len(data)):
        battery.append((f"norm_hessian_gen{k+1}",
                        mixed_hessian(base.matrix[k, k], i0, i0)))
        battery.append((f"norm_hessian_gen{k+1}_shifted",
                        mixed_hessian(metric(k).matrix[k, k], i0, i0)))
    return tuple(battery)


def test_raising_degree_keeps_principal_pair_and_battery():
    # the metric route reads the same pair and battery at every frame
    # degree, and the closed forms equal it
    pair_cases = [(WeightedPolydiscModule(2, w), p)
                  for w in ((1, 2), (F(3, 2), F(1, 2))) for p in (1, 2)]
    battery_cases = [(WeightedPolydiscModule(len(w), w),
                      [(v, p) for v, p in enumerate(exps)])
                     for w, exps in (((1, 2, 3), (2,)),
                                     ((F(1, 2), F(3, 2), F(5, 2)), (1, 2)))]
    for module, p in pair_cases:
        got = [_reference_pair(module, p, degree=D) for D in DEGREES]
        assert got[0] == got[1] == got[2] == principal_curvature_pair(module, p)
    for module, data in battery_cases:
        got = [_reference_battery(module, data, D) for D in DEGREES]
        assert got[0] == got[1] == got[2] == \
            invariants._curvature_battery(module.weights, data)


# -- the closed forms against the metric route ------------------------------


def _metric_route(frame):
    return curvature_matrix(grammian(frame))


@pytest.mark.parametrize("config", GOLDEN_CURVATURE + GOLDEN_COMPARE,
                         ids=[f"{c.parent.name}/{c.stem}"
                              for c in GOLDEN_CURVATURE + GOLDEN_COMPARE])
def test_closed_forms_match_metric_route_on_golden_configs(config):
    cfg = cli.parse_config(config.read_text(encoding="utf-8"))
    module = cli._build_module(cfg)
    ideal = cli._build_ideal(cfg)
    if cfg.task == "curvature":
        frame = cli._build_frame(cfg, module, ideal)
        assert curvature_tensor(frame) == _metric_route(frame)
        if frame.kind != COORDINATE_KIND and frame.count == 1 \
                and module.dim == 2:
            args = (module, frame.gen_powers[0], frame.gen_vars[0])
            assert principal_curvature_pair(*args) == _reference_pair(*args)
        return
    data = ideal.coordinate_powers
    for weights in (module.weights, cfg.compare_weights):
        other = WeightedPolydiscModule(module.dim, weights)
        if len(data) == module.dim:  # the bidisc coordinate ideal
            frame = decompose_coordinate_ideal(other, JET_DEGREE)
            tensor = curvature_tensor(frame)
            assert tensor == _metric_route(frame)
            trace = tensor.trace_matrix()
            assert (trace[0][0], trace[1][1]) == \
                lambda_mu_invariants(*weights).as_pair()
        else:
            assert invariants._curvature_battery(other.weights, data) == \
                _reference_battery(other, data)


_WEIGHTS = st.sampled_from((F(1, 2), F(1), F(3, 2), F(2), F(5, 3), F(7, 3),
                            F(3), F(5, 2)))


@st.composite
def _base_value(draw):
    d = draw(st.integers(2, 9))
    return F(draw(st.integers(1 - d, d - 1)), d)


@st.composite
def _zero_set_case(draw, max_gens=None):
    """Weights, (variable, power) generator data sorted by variable, on any
    variables, and a base point with rational free-slot values |c| < 1."""
    m = draw(st.integers(2, 5))
    weights = tuple(draw(_WEIGHTS) for _ in range(m))
    gen_vars = sorted(draw(st.lists(st.integers(0, m - 1), min_size=1,
                                    max_size=max_gens or m, unique=True)))
    data = [(v, draw(st.integers(1, 3))) for v in gen_vars]
    base = tuple(F(0) if i in gen_vars else draw(_base_value())
                 for i in range(m))
    return weights, data, base


@settings(max_examples=60, deadline=None)
@given(_zero_set_case())
def test_zero_set_tensor_matches_metric_route(case):
    weights, data, base = case
    m = len(weights)
    module = WeightedPolydiscModule(m, weights)
    ideal = IdealSpec.monomial(m, [unit(m, v, p) for v, p in data])
    frame = frame_on_zero_set(module, ideal, base, JET_DEGREE)
    assert curvature_tensor(frame) == _metric_route(frame)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda m: st.lists(_WEIGHTS, min_size=m, max_size=m)))
def test_coordinate_tensor_matches_metric_route(weights):
    frame = decompose_coordinate_ideal(
        WeightedPolydiscModule(len(weights), weights), JET_DEGREE)
    assert curvature_tensor(frame) == _metric_route(frame)


# (weights, generator data, base point) of frames with t = 4 or m = 5: the
# coordinate ideal of the pooled m = 5 jobs' size, and zero-set frames with
# four generators, with and without a free slot
LARGE_FRAMES = [
    ((F(1, 2), F(1), F(3, 2), F(2), F(5, 2)), None, None),
    ((F(5, 3), F(7, 3), F(3), F(1, 2), F(2)), None, None),
    ((F(1), F(3, 2), F(2), F(1, 2), F(5, 3)),
     [(0, 1), (1, 2), (3, 1), (4, 2)],
     (F(0), F(0), F(-2, 5), F(0), F(0))),
    ((F(3, 2), F(2), F(1, 3), F(5, 2)), [(0, 2), (1, 1), (2, 1), (3, 2)],
     (F(0),) * 4),
]


@pytest.mark.parametrize("weights,data,base", LARGE_FRAMES)
def test_large_tensors_match_metric_route(weights, data, base):
    """curvature_tensor equals the metric route at m = 5 and t = 4.  Every
    block it does not write is one shared all-zero block, which trace_matrix
    reads as Fraction(0), and every zero row is one shared row."""
    m = len(weights)
    module = WeightedPolydiscModule(m, weights)
    if data is None:
        frame = decompose_coordinate_ideal(module, JET_DEGREE)
    else:
        ideal = IdealSpec.monomial(m, [unit(m, v, p) for v, p in data])
        frame = frame_on_zero_set(module, ideal, base, JET_DEGREE)
    tensor = curvature_tensor(frame)
    assert tensor == _metric_route(frame)
    assert tensor.trace_matrix() == _trace_by_full_sum(tensor)
    t = tensor.size
    zero = ((F(0),) * t,) * t
    blocks = [block for row in tensor.blocks for block in row]
    nonzero = sum(block != zero for block in blocks)
    shared = {id(block) for block in blocks if block == zero}
    assert len({id(row) for block in blocks for row in block
                if row == zero[0]}) == 1
    if data is None:  # the coordinate frame reaches every (k, q)
        assert nonzero == m * m and not shared
    else:
        assert nonzero == len(frame.free_slots) and len(shared) == 1


@settings(max_examples=80, deadline=None)
@given(share_weights())
def test_coordinate_tensor_equals_fraction_share_reference(weights):
    """The integer-share coordinate blocks equal the Fraction-share
    reference entry for entry, and every entry is a Fraction."""
    frame = decompose_coordinate_ideal(
        WeightedPolydiscModule(len(weights), weights), JET_DEGREE)
    blocks = curvature_tensor(frame).blocks
    assert blocks == coordinate_tensor_by_fraction_shares(frame)
    assert all(type(x) is F for brow in blocks for block in brow
               for row in block for x in row)


def _trace_by_full_sum(tensor):
    return tuple(tuple(sum((block[k][k] for k in range(tensor.size)), F(0))
                       for block in row) for row in tensor.blocks)


@settings(max_examples=40, deadline=None)
@given(share_weights(), _zero_set_case())
def test_trace_matrix_equals_full_diagonal_sum(weights, case):
    """trace_matrix sums only the nonzero diagonal entries; it equals the
    full sum from Fraction(0), and a zero trace is still a Fraction, which
    a JSON report writes as {"num": 0, "den": 1}, not as 0."""
    frames_ = [decompose_coordinate_ideal(
        WeightedPolydiscModule(len(weights), weights), JET_DEGREE)]
    zweights, data, base = case
    m = len(zweights)
    frames_.append(frame_on_zero_set(
        WeightedPolydiscModule(m, zweights),
        IdealSpec.monomial(m, [unit(m, v, p) for v, p in data]), base,
        JET_DEGREE))
    for frame in frames_:
        tensor = curvature_tensor(frame)
        trace = tensor.trace_matrix()
        assert trace == _trace_by_full_sum(tensor)
        assert all(type(x) is F for row in trace for x in row)


_block_entry = st.fractions(min_value=-5, max_value=5, max_denominator=40)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda t: st.lists(
    st.lists(_block_entry, min_size=t, max_size=t), min_size=t, max_size=t)))
def test_block_trace_equals_pairwise_fraction_sum(rows):
    """One Fraction over the lcm of the diagonal's denominators is the
    pairwise Fraction sum it replaced, also where the entries cancel, and
    it is formed with no Fraction arithmetic."""
    block = tuple(map(tuple, rows))
    want = trace_by_fraction_sum(block)
    with pytest.MonkeyPatch.context() as patch:
        forbid_fraction_arithmetic(patch)
        got = curvature._trace(block)
    assert got == want and type(got) is F


@settings(max_examples=40, deadline=None)
@given(_zero_set_case().filter(lambda case: len(case[1]) < len(case[0])))
def test_battery_matches_metric_route(case):
    weights, data, _ = case
    module = WeightedPolydiscModule(len(weights), weights)
    assert invariants._curvature_battery(module.weights, data) == \
        _reference_battery(module, data)


@settings(max_examples=30, deadline=None)
@given(_WEIGHTS, _WEIGHTS, st.integers(1, 4), st.integers(0, 1))
def test_principal_pair_matches_metric_route(lam, mu, p, gen_var):
    module = WeightedPolydiscModule(2, (lam, mu))
    assert principal_curvature_pair(module, p, gen_var) == \
        _reference_pair(module, p, gen_var)


# -- the curvature, principal-pair and rigidity paths build no Grammian -----


def _metric_route_ran(*args, **kwargs):
    raise AssertionError("the metric route ran")


ERROR_CASES = {
    # (trunc_degree, base point, generators) -> exit code, stderr
    "trunc-degree-3": (("3", None, "z1^2"), 3,
                       "precondition violated: curvature task needs "
                       "trunc_degree >= 4\n"),
    "base-off-zero-set": (("4", "1/2 0", "z1^2"), 3,
                          "precondition violated: base point must lie on "
                          "the zero variety: z1 component is 1/2, "
                          "expected 0\n"),
    "general-ideal": (("4", None, "z1*z2 - z2^2"), 4,
                      "unsupported ideal family: zero-set frames need a "
                      "monomial ideal of coordinate powers\n"),
}


def test_curvature_paths_build_no_grammian(monkeypatch, capsys, tmp_path):
    replaced = 0
    for name, module in list(sys.modules.items()):
        if name != "submodcurv" and not name.startswith("submodcurv."):
            continue
        for key, value in list(vars(module).items()):
            if value is grammian or value is curvature_matrix:
                monkeypatch.setattr(module, key, _metric_route_ran)
                replaced += 1
    # the defining modules, cli's grammian and the package namespace
    assert replaced >= 5
    for config in GOLDEN_CURVATURE + GOLDEN_COMPARE:
        task = config.parent.name
        assert cli.main([task, "--config", str(config)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == \
            config.with_suffix(".out").read_bytes()
    assert principal_curvature_pair(WeightedPolydiscModule(2, (1, 3)), 2,
                                    1) == PrincipalCurvaturePair(6, 1)
    assert polydisc_rigidity_report((1, 3), (2,), (1, 3),
                                    gen_vars=(1,)).battery_left == (
        ("transverse_log_curvature_w1", 1), ("norm_hessian_gen1", 6),
        ("norm_hessian_gen1_shifted", 10))
    for case, ((degree, base, gens), code, message) in ERROR_CASES.items():
        lines = ["[module]", "dimension = 2", "weights = 1 2", "[ideal]",
                 f"generators = {gens}", "[task]", "name = curvature",
                 f"trunc_degree = {degree}"]
        if base is not None:
            lines.append(f"base_point = {base}")
        path = tmp_path / f"{case}.ini"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["curvature", "--config", str(path)]) == code, case
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message), case


# -- metamorphic: renaming variables permutes the curvature ----------------
#
# Variable i becomes variable sigma[i], carrying its weight and base-point
# coordinate along.  Block (i, j) must move to (sigma[i], sigma[j]), and
# within each block the frame slots follow their generator variables
# (frames order generators by variable).  Every permutation is tried, so
# the zero-set cases permute the free slots among themselves as well as
# moving the generators.

def _curvature_of(weights, gens, base):
    """Det-bundle matrix, curvature tensor and frame: the coordinate frame
    (gens None) or the zero-set frame of <z_{v+1}^p : (v, p) in gens>."""
    m = len(weights)
    mod = WeightedPolydiscModule(m, weights)
    if gens is None:
        frame = decompose_coordinate_ideal(mod, JET_DEGREE)
    else:
        ideal = IdealSpec.monomial(m, [unit(m, v, p)
                                       for v, p in gens])
        frame = frame_on_zero_set(mod, ideal, base, JET_DEGREE)
    H = grammian(frame)
    return det_bundle_curvature(H), curvature_matrix(H), frame


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
    det0, K0, frame0 = _curvature_of(weights, gens, base)
    gen_vars = range(m) if gens is None else sorted(v for v, _ in gens)
    for sigma in itertools.permutations(range(m)):
        moved = None if gens is None else [(sigma[v], p) for v, p in gens]
        det1, K1, frame1 = _curvature_of(_renamed(sigma, weights), moved,
                                         _renamed(sigma, base))
        # frame slot a (generator variable gen_vars[a]) becomes slot
        # slot[a], the rank of sigma[gen_vars[a]] among the new variables
        new_vars = sorted(sigma[v] for v in gen_vars)
        slot = [new_vars.index(sigma[v]) for v in gen_vars]
        assert frame1.free_slots == \
            tuple(sorted(sigma[i] for i in frame0.free_slots))
        for i, j in itertools.product(range(m), repeat=2):
            assert det1[sigma[i]][sigma[j]] == det0[i][j]
            block0, block1 = K0.blocks[i][j], K1.blocks[sigma[i]][sigma[j]]
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
                assert K2.blocks[i][j] == want.blocks[i][j]


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
            assert back.blocks[i][j] == K2.blocks[i][j]


def test_gauge_equivalent_rejects_distinct():
    K1 = curvature_matrix(_coordinate_metric(F(1), F(2)))
    K3 = curvature_matrix(_coordinate_metric(F(3), F(1)))
    assert gauge_equivalent(K1, K3) is None
    # scaling every block breaks equivalence too (conjugation
    # preserves the blockwise spectrum)
    from submodcurv.curvature import CurvatureTensor
    scaled = CurvatureTensor(
        size=K1.size,
        blocks=tuple(tuple(tuple(tuple(2 * x for x in row) for row in blk)
                           for blk in brow) for brow in K1.blocks))
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
    with pytest.raises(DomainError):
        principal_curvature_pair(WeightedPolydiscModule(2, (1, 2)), 1, 2)


# -- finite-difference oracle -----------------------------------------------


def test_fd_matches_exact_line_curvature():
    mod = hardy(2)
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
    x = series_w(1, 4, 0) * TruncSeries.wbar(1, 4, 0)
    h = geometric_sum(x.scale(d))  # 1/(1 - d x)
    assert line_curvature(h.scale(c), 0, 0) == line_curvature(h, 0, 0)


@settings(max_examples=25, deadline=None)
@given(_pos, st.fractions(min_value=F(-2), max_value=F(2), max_denominator=3))
def test_line_curvature_log_factor_invariance(c, a):
    # multiplying by f(w) conj(f)(wb) with f(0) != 0 adds zero curvature:
    # log|f|^2 is pluriharmonic
    x = series_w(1, 4, 0) * TruncSeries.wbar(1, 4, 0)
    h = geometric_sum(x)  # 1/(1 - x)
    f = TruncSeries.constant(1, 4, c) + series_w(1, 4, 0).scale(a)
    g = h * f * conj(f)
    assert line_curvature(g, 0, 0) == line_curvature(h, 0, 0)


@pytest.mark.parametrize("weights,data,base", LARGE_FRAMES)
def test_every_reported_zero_is_the_package_zero(weights, data, base):
    """Each zero entry of curvature_tensor's blocks and of its
    trace_matrix is algebra.ZERO itself, which the text report writes as
    "0" without Fraction.__str__."""
    m = len(weights)
    module = WeightedPolydiscModule(m, weights)
    if data is None:
        frame = decompose_coordinate_ideal(module, JET_DEGREE)
    else:
        ideal = IdealSpec.monomial(m, [unit(m, v, p) for v, p in data])
        frame = frame_on_zero_set(module, ideal, base, JET_DEGREE)
    tensor = curvature_tensor(frame)
    values = [x for brow in tensor.blocks for block in brow
              for row in block for x in row]
    values += [x for row in tensor.trace_matrix() for x in row]
    assert all(x is ZERO for x in values if x == 0)
    assert any(x is ZERO for x in values)


def test_a_cancelling_trace_is_the_package_zero():
    """A diagonal that sums to zero, as a metric-route block can, gives
    algebra.ZERO too, alone or cancelling."""
    for block in (((F(1, 2), F(3)), (F(1), F(-1, 2))),
                  ((F(0), F(3)), (F(1), F(0))),
                  ((F(2, 3), F(0), F(1)), (F(0), F(1, 3), F(1)),
                   (F(1), F(1), F(-1)))):
        (trace,), = CurvatureTensor(len(block), ((block,),)).trace_matrix()
        assert trace is ZERO
