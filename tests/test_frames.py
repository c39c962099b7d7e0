import dataclasses
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv import cli, frames
from submodcurv.algebra import (SeriesMatrix, TruncSeries, iter_multiindices,
                                unit, pochhammer)
from submodcurv.cli import main
from submodcurv.curvature import curvature_matrix, det_bundle_curvature
from submodcurv.errors import (DegeneracyError, DomainError,
                               TruncationError)
from submodcurv.frames import ZERO_SET_KIND
from submodcurv.frames import (decompose_coordinate_ideal, frame_on_zero_set,
                               grammian, reconstruction_residual)
from submodcurv.ideals import IdealSpec
from submodcurv.rkhs import WeightedPolydiscModule, diag_coeff, diag_coeff_slots

import oracles
from oracles import (frame_vector_at_base, full_reconstruction_residual,
                     is_hermitian_by_pair_loop, recentered_inverse_power)

E1 = unit(2, 0)
E2 = unit(2, 1)


def _sub(a, b):
    """The exponent a - b, slot by slot."""
    return tuple(x - y for x, y in zip(a, b))

WEIGHT_PAIRS = [(F(1), F(1)), (F(1), F(2)), (F(2), F(1)),
                (F(3, 2), F(1, 2)), (F(2), F(3))]


def test_coordinate_frame_metric_at_origin_is_weight_diagonal():
    for lam, mu in WEIGHT_PAIRS:
        mod = WeightedPolydiscModule(2, (lam, mu))
        H = grammian(decompose_coordinate_ideal(mod, 3))
        assert H.value_at_base() == [[lam, 0], [0, mu]]


def test_zero_set_frame_metric_at_origin():
    # <z1, z2^2> in three variables: leads are poch(w_v, p)/p!
    mod = WeightedPolydiscModule(3, (1, 1, 1))
    ideal = IdealSpec.from_generators(
        3, [IdealSpec.monomial(3, [(1, 0, 0)]).generators[0],
            IdealSpec.monomial(3, [(0, 2, 0)]).generators[0]])
    frame = frame_on_zero_set(mod, ideal, (F(0),) * 3, 3)
    H = grammian(frame)
    assert H.value_at_base() == [[F(1), F(0)], [F(0), F(1)]]
    assert H.is_diagonal()


def test_metric_series_coefficients_closed_forms():
    """Degree-two expansion of the coordinate-ideal metric.

    Frozen from a direct hand expansion of the splitting construction:
      H11[w1 wb1] = (l)_2 / 2        H11[w2 wb2] = l^3 m / (l+m)^2
      H22[w1 wb1] = l m^3 / (l+m)^2  H22[w2 wb2] = (m)_2 / 2
      H12[w2 wb1] = H21[w1 wb2] = l^2 m^2 / (l+m)^2
    """
    Z = (0, 0)
    for lam, mu in WEIGHT_PAIRS:
        mod = WeightedPolydiscModule(2, (lam, mu))
        H = grammian(decompose_coordinate_ideal(mod, 4)).matrix
        s = (lam + mu) ** 2
        assert H[0, 0].coefficient(E1, E1) == pochhammer(lam, 2) / 2
        assert H[0, 0].coefficient(E2, E2) == lam ** 3 * mu / s
        assert H[1, 1].coefficient(E1, E1) == lam * mu ** 3 / s
        assert H[1, 1].coefficient(E2, E2) == pochhammer(mu, 2) / 2
        assert H[0, 1].coefficient(E2, E1) == lam ** 2 * mu ** 2 / s
        assert H[1, 0].coefficient(E1, E2) == lam ** 2 * mu ** 2 / s
        # no linear terms: the coordinate frame is critical at the origin
        for i in range(2):
            for j in range(2):
                assert H[i, j].coefficient(E1, Z) == 0
                assert H[i, j].coefficient(Z, E2) == 0


def test_reconstruction_residual_coordinate_frames():
    for lam, mu in WEIGHT_PAIRS:
        mod = WeightedPolydiscModule(2, (lam, mu))
        frame = decompose_coordinate_ideal(mod, 4)
        assert reconstruction_residual(frame) == {}


def test_reconstruction_residual_zero_set_frames():
    cases = [
        (WeightedPolydiscModule(2, (1, 1)), (2,), (F(0), F(1, 4))),
        (WeightedPolydiscModule(2, (F(3, 2), F(1, 2))), (1,), (F(0), F(0))),
        (WeightedPolydiscModule(3, (1, 2, 1)), (1, 2), (F(0), F(0), F(1, 3))),
    ]
    for mod, powers, base in cases:
        ideal = IdealSpec.coordinate_powers(mod.dim, powers)
        frame = frame_on_zero_set(mod, ideal, base, 4)
        assert reconstruction_residual(frame) == {}


def _paired_vectors_metric(frame):
    """Reference Grammian: pair the frame vectors by monomial orthogonality,
    H_ij = sum_a F^j_a conj(F^i_a) / diag_coeff(a).  A zero-variety frame
    is first restricted to the slice through its base point by dropping
    every term that moves in a generator direction (u_v or ub_v)."""
    m = frame.module.dim
    D = frame.trunc

    def on_slice(series):
        return TruncSeries(m, D, {
            k: v for k, v in series.coeffs.items()
            if all(k[g] == 0 and k[m + g] == 0 for g in frame.gen_vars)})

    vectors = frame.vectors
    if frame.kind == ZERO_SET_KIND:
        vectors = [{a: on_slice(s) for a, s in vec.items()}
                   for vec in vectors]
    rows = []
    for vi in vectors:
        row = []
        for vj in vectors:
            acc = TruncSeries.zero(m, D)
            for a in vi.keys() & vj.keys():
                acc = acc + vj[a] * vi[a].conj() * (
                    1 / diag_coeff(frame.module, a))
            row.append(acc)
        rows.append(row)
    return rows


def test_grammian_paths_agree_at_origin():
    """grammian takes every zero-variety frame through its closed form; at
    the origin that must equal the monomial sum over the slice, entry for
    entry, with no scale left over."""
    for mod, powers in [
        (WeightedPolydiscModule(2, (F(3, 2), F(1, 2))), (2,)),
        (WeightedPolydiscModule(2, (1, 2)), (1,)),
        (WeightedPolydiscModule(3, (1, 2, 1)), (1, 2)),
        (WeightedPolydiscModule(3, (F(1, 2), F(3, 2), F(5, 2))), (1, 2)),
        (WeightedPolydiscModule(2, (2, F(1, 3))), (3, 1)),
    ]:
        ideal = IdealSpec.coordinate_powers(mod.dim, powers)
        frame = frame_on_zero_set(mod, ideal, (F(0),) * mod.dim, 4)
        H = grammian(frame)
        assert H.scales is None
        assert H.matrix.entries == _paired_vectors_metric(frame)


COORDINATE_WEIGHTS = [(1, 2), (F(1, 2), F(3, 2), F(5, 3)),
                      (2, F(7, 3), 1, F(1, 2)), (1, 2, 3, 1, F(1, 2))]


@pytest.mark.parametrize("weights", COORDINATE_WEIGHTS,
                         ids=[f"m{len(w)}" for w in COORDINATE_WEIGHTS])
def test_coordinate_grammian_equals_paired_vectors(weights):
    """The coordinate Grammian summed over the kernel terms equals the
    pairing of the frame vectors, entry for entry, off-diagonals included."""
    mod = WeightedPolydiscModule(len(weights), weights)
    for D in range(2, 7):
        frame = decompose_coordinate_ideal(mod, D)
        H = grammian(frame)
        assert H.scales is None
        assert H.matrix.entries == _paired_vectors_metric(frame), D


def test_grammian_builds_no_frame_vectors():
    mod = WeightedPolydiscModule(3, (1, 2, F(3, 2)))
    ideal = IdealSpec.coordinate_powers(3, (1, 2))
    for frame in [decompose_coordinate_ideal(mod, 4),
                  frame_on_zero_set(mod, ideal, (F(0), F(0), F(1, 3)), 4)]:
        H = grammian(frame)
        det_bundle_curvature(H)
        curvature_matrix(H)
        assert reconstruction_residual(frame) == {}
        assert "vectors" not in vars(frame), frame.kind
        assert "recentered_monomials" not in vars(frame), frame.kind
        assert full_reconstruction_residual(frame) == {}
        assert "vectors" in vars(frame)
        assert "recentered_monomials" in vars(frame)


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("config", [
    "metric/coordinate-m3-json", "metric/zero-set-offbase-rational",
    "curvature/coordinate-m3-frac", "curvature/zero-set-offbase-m3",
    "curvature/principal-origin-m2", "compare/battery-m3"])
def test_metric_tasks_build_no_frame_vectors(config, monkeypatch):
    """The metric and curvature tasks and the rigidity battery run with the
    vector builder disabled."""
    def refuse(*args):
        raise AssertionError("frame vectors or monomial table built")
    monkeypatch.setattr(frames, "_build_splitting_frame", refuse)
    monkeypatch.setattr(frames, "_recentered_monomials", refuse)
    path = GOLDEN / f"{config}.ini"
    assert main([path.parent.name, "--config", str(path)]) == 0


DECOMPOSE_CONFIGS = sorted(GOLDEN.glob("decompose/*.ini"))
ZERO_SET_METRIC_CONFIGS = sorted(GOLDEN.glob("metric/zero-set-*.ini"))


@pytest.mark.parametrize("config", DECOMPOSE_CONFIGS + ZERO_SET_METRIC_CONFIGS,
                         ids=lambda c: f"{c.parent.name}/{c.stem}")
def test_decompose_task_builds_no_frame_vectors(config, monkeypatch, capsys):
    """The decompose task checks the reconstruction and the zero-set
    metric task fills its coefficient tables with the vector builder, the
    monomial table and the Horner reference all disabled; the reports stay
    byte-identical."""
    def refuse(*args):
        raise AssertionError("frame vectors, monomial table or Horner built")
    monkeypatch.setattr(frames, "_build_splitting_frame", refuse)
    monkeypatch.setattr(frames, "_recentered_monomials", refuse)
    monkeypatch.setattr(oracles, "recentered_inverse_power", refuse)
    assert main([config.parent.name, "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == config.with_suffix(".out").read_bytes()


@pytest.mark.parametrize("config", DECOMPOSE_CONFIGS,
                         ids=lambda c: c.stem)
def test_residual_equals_full_residual_on_golden_configs(config):
    """The share-sum residual and the full series residual both certify
    the frame of every golden decompose config."""
    cfg = cli.parse_config(config.read_text(encoding="utf-8"))
    module = cli._build_module(cfg)
    frame = cli._build_frame(cfg, module, cli._build_ideal(cfg))
    assert reconstruction_residual(frame) == {}
    assert full_reconstruction_residual(frame) == {}


def test_zero_set_frames_orthogonal():
    mod = WeightedPolydiscModule(3, (1, 2, 1))
    ideal = IdealSpec.coordinate_powers(3, (1, 2))
    frame = frame_on_zero_set(mod, ideal, (F(0), F(0), F(1, 3)), 4)
    H = grammian(frame)
    assert H.is_diagonal()


def test_recentering_matches_independent_geometric_expansion():
    """Series of 1/(1 - w2 wb2) recentered at b, rebuilt independently.

    With v = (b u + b ub + u ub)/(1 - b^2) the global metric reads
    (1 - b^2)^{-1} sum_k v^k; truncating that sum must reproduce the
    library's recentered metric series coefficient for coefficient.
    """
    from submodcurv.algebra import TruncSeries
    mod = WeightedPolydiscModule(2, (1, 1))
    ideal = IdealSpec.monomial(2, [(1, 0)])
    D = 6
    for b in (F(1, 3), F(1, 4), F(-2, 5)):
        frame = frame_on_zero_set(mod, ideal, (F(0), b), D)
        got = grammian(frame).matrix[0, 0]
        u = TruncSeries.w(2, D, 1)
        ub = TruncSeries.wbar(2, D, 1)
        v = (u.scale(b) + ub.scale(b) + u * ub).scale(1 / (1 - b * b))
        acc = TruncSeries.one(2, D)
        term = TruncSeries.one(2, D)
        for _ in range(D):
            term = term * v
            acc = acc + term
        want = acc.scale(1 / (1 - b * b))
        assert got == want

    # numeric cross-chart sanity: evaluating the chart series near its base
    # approximates the global closed value with a small geometric tail
    frame = frame_on_zero_set(mod, ideal, (F(0), F(1, 3)), 8)
    s = grammian(frame).matrix[0, 0]
    u = F(1, 20)
    got = s.evaluate((F(0), u), (F(0), u))
    w2 = F(1, 3) + u
    want = 1 / (1 - w2 * w2)
    assert abs(got - want) < F(1, 10 ** 6)


def test_frame_vector_at_base_leading_term():
    mod = WeightedPolydiscModule(2, (2, 1))
    ideal = IdealSpec.monomial(2, [(3, 0)])
    frame = frame_on_zero_set(mod, ideal, (F(0), F(0)), 4)
    vec = frame_vector_at_base(frame, 0)
    # at the origin the vector is c_(3,0) z1^3 plus higher z2-free terms
    lead = (3, 0)
    assert vec[lead] == diag_coeff(mod, lead)
    assert all(a[0] >= 3 for a in vec)


def test_adjoint_eigenvector_property():
    """The shift adjoints act on a frame vector at the base point by
    conjugate-coordinate scaling, after projection onto the submodule.

    Free direction: exact scaling with no projection needed.  Generator
    direction at a base with vanishing coordinate: scales to zero.
    """
    mod = WeightedPolydiscModule(2, (1, 2))
    ideal = IdealSpec.monomial(2, [(2, 0)])
    b = F(1, 3)
    frame = frame_on_zero_set(mod, ideal, (F(0), b), 6)
    vec = frame_vector_at_base(frame, 0)
    zcap = frame.trunc + 2

    # adjoint of multiplication by z2 maps z^a to (c_{a-e2}/c_a) z^{a-e2}
    shifted = {}
    for a, coef in vec.items():
        if a[1] >= 1:
            tgt = _sub(a, E2)
            shifted[tgt] = shifted.get(tgt, F(0)) + coef * (
                diag_coeff(mod, tgt) / diag_coeff(mod, a))
    for a, coef in shifted.items():
        if sum(a) < zcap - 1:  # inside the stored support window
            assert coef == b * vec.get(a, F(0)), a

    # adjoint of z1 then projection onto {a1 >= 2} kills everything:
    # the base has first coordinate zero
    shifted1 = {}
    for a, coef in vec.items():
        if a[0] >= 1:
            tgt = _sub(a, E1)
            if tgt[0] >= 2:
                shifted1[tgt] = shifted1.get(tgt, F(0)) + coef * (
                    diag_coeff(mod, tgt) / diag_coeff(mod, a))
    for a, coef in shifted1.items():
        if sum(a) < zcap - 1:
            assert coef == 0 * vec.get(a, F(0)), a


def test_degenerate_frame_rejected():
    mod = WeightedPolydiscModule(2, (1, 1))
    with pytest.raises(DomainError):
        # base point off the zero variety
        frame_on_zero_set(mod, IdealSpec.monomial(2, [(1, 0)]),
                          (F(1, 2), F(0)), 4)
    with pytest.raises(TruncationError):
        decompose_coordinate_ideal(mod, 1)  # too shallow for a metric


def test_dependent_frame_fails_positivity():
    mod = WeightedPolydiscModule(3, (1, 1, 1))
    good = frame_on_zero_set(mod, IdealSpec.coordinate_powers(3, (1, 2)),
                             (F(0), F(0), F(1, 3)), 3)
    doctored = dataclasses.replace(
        good, lead_coeffs=(good.lead_coeffs[0], F(0)))  # a null generator
    with pytest.raises(DegeneracyError):
        grammian(doctored)


def test_base_point_outside_polydisc_rejected():
    mod = WeightedPolydiscModule(2, (1, 1))
    with pytest.raises(DomainError):
        frame_on_zero_set(mod, IdealSpec.monomial(2, [(1, 0)]),
                          (F(0), F(3, 2)), 4)


def test_splitting_weights_sum_to_one_on_support():
    # shared support exponent: both generators of <z1, z2> qualify and the
    # splitting shares are proportional to weight * exponent, summing to 1
    mod = WeightedPolydiscModule(2, (F(2), F(5)))
    frame = decompose_coordinate_ideal(mod, 4)
    v1, v2 = frame.vectors
    Z = (0, 0)
    lam, mu = mod.weights
    for alpha in [(1, 1), (2, 1), (1, 2)]:
        c = diag_coeff(mod, alpha)
        denom = lam * alpha[0] + mu * alpha[1]
        s1 = lam * alpha[0] / denom
        s2 = mu * alpha[1] / denom
        # stored vector: coefficient of z^alpha is a series in ub whose
        # (alpha - e_k) coefficient carries the share s_k c_alpha
        assert v1[alpha].coefficient(Z, _sub(alpha, E1)) == s1 * c
        assert v2[alpha].coefficient(Z, _sub(alpha, E2)) == s2 * c
        assert s1 + s2 == 1


# ---------------------------------------------------------------------------
# Reference frame builder: per kernel term, the share times c_alpha times one
# series product per slot with a table of binomial powers (b_j + ub_j)^n.


def _binomial_powers(m, trunc, base_point, top):
    """binom_pow[j][n] = (wb*_j + ub_j)^n, the recentered conjugate variable
    to the power n, for every variable j and n = 0..top."""
    table = []
    for j in range(m):
        lin = (TruncSeries.wbar(m, trunc, j)
               + TruncSeries.constant(m, trunc, base_point[j]))
        powers = [TruncSeries.one(m, trunc)]
        for _ in range(top):
            powers.append(powers[-1] * lin)
        table.append(powers)
    return table


def _reference_vectors(frame):
    m = frame.module.dim
    trunc = frame.trunc
    gen_vars, gen_powers = frame.gen_vars, frame.gen_powers
    weights = frame.module.weights
    zcap = trunc + max(gen_powers)
    binom_pow = _binomial_powers(m, trunc, frame.base_point, zcap)
    vectors = [dict() for _ in gen_vars]
    for alpha in iter_multiindices(m, zcap):
        qualifying = [k for k in range(len(gen_vars))
                      if alpha[gen_vars[k]] >= gen_powers[k]]
        if not qualifying:
            continue
        denom = sum(weights[gen_vars[k]] * alpha[gen_vars[k]]
                    for k in qualifying)
        c = diag_coeff(frame.module, alpha)
        for k in qualifying:
            v = gen_vars[k]
            s = weights[v] * alpha[v] / denom
            down = list(alpha)
            down[v] -= gen_powers[k]
            series = TruncSeries.constant(m, trunc, s * c)
            for j, e in enumerate(down):
                if e:
                    series = series * binom_pow[j][e]
            if not series.is_zero():
                vectors[k][alpha] = series
    return tuple(vectors)


def _reference_residual(frame):
    """sum_k conj(p_k) F^k minus c_alpha prod_j (wb_j + ub_j)^alpha_j, the
    kernel term rebuilt by one series product per slot."""
    m = frame.module.dim
    D = frame.trunc
    zcap = D + max(frame.gen_powers)
    pbar = [TruncSeries.wbar(m, D, v, p)
            for v, p in zip(frame.gen_vars, frame.gen_powers)]
    binom_pow = _binomial_powers(m, D, frame.base_point, zcap)
    residuals = {}
    for alpha in iter_multiindices(m, zcap):
        if not any(alpha[v] >= p
                   for v, p in zip(frame.gen_vars, frame.gen_powers)):
            continue
        lhs = TruncSeries.zero(m, D)
        for k in range(frame.count):
            fk = frame.vectors[k].get(alpha)
            if fk is not None:
                lhs = lhs + pbar[k] * fk
        rhs = TruncSeries.constant(m, D, diag_coeff(frame.module, alpha))
        for j, e in enumerate(alpha):
            if e:
                rhs = rhs * binom_pow[j][e]
        diff = lhs - rhs
        if not diff.is_zero():
            residuals[alpha] = diff
    return residuals


REFERENCE_WEIGHTS = (F(3, 2), F(1, 2), F(5, 3), 2)


def _reference_frames():
    for m in range(2, 5):
        mod = WeightedPolydiscModule(m, REFERENCE_WEIGHTS[:m])
        for D in range(2, 7):
            yield decompose_coordinate_ideal(mod, D)
    mod = WeightedPolydiscModule(3, REFERENCE_WEIGHTS[:3])
    for p in (1, 2, 3):
        for powers, base in [((p,), (0, 0, 0)),
                             ((p,), (0, F(1, 3), F(-1, 4))),
                             ((p, 4 - p), (0, 0, 0)),
                             ((p, 4 - p), (0, 0, F(2, 7)))]:
            ideal = IdealSpec.coordinate_powers(3, powers)
            for D in (2, 4, 6):
                yield frame_on_zero_set(mod, ideal, base, D)


def test_splitting_vectors_equal_binomial_power_reference():
    """Coordinate frames m = 2..4, D = 2..6, and zero-set frames with powers
    1..3 at the origin and off it: every vector entry, exactly."""
    for frame in _reference_frames():
        assert frame.vectors == _reference_vectors(frame), frame


def test_residual_equals_reference_on_doctored_frame():
    """With one frame entry doubled the full series residual and the
    binomial-power reference report the same nonzero map; they compare full
    series, not the shares' sum.  The library residual reads the shares
    alone, so the doctored vectors leave it empty."""
    mod = WeightedPolydiscModule(3, REFERENCE_WEIGHTS[:3])
    for frame in [decompose_coordinate_ideal(mod, 4),
                  frame_on_zero_set(mod, IdealSpec.coordinate_powers(3, (2,)),
                                    (0, F(1, 3), F(-1, 4)), 4)]:
        alpha = next(a for a in frame.vectors[0] if sum(a) == 3)
        doctored = [dict(vec) for vec in frame.vectors]
        doctored[0][alpha] = doctored[0][alpha].scale(2)
        vars(frame)["vectors"] = tuple(doctored)
        got = full_reconstruction_residual(frame)
        assert got
        assert alpha in got
        assert got == _reference_residual(frame)
        assert reconstruction_residual(frame) == {}


DOCTORED_SHARE_CASES = [
    # (weights, powers or None for the coordinate frame, base, alpha)
    (REFERENCE_WEIGHTS[:3], None, (0, 0, 0), (1, 1, 1)),
    (REFERENCE_WEIGHTS[:3], None, (0, 0, 0), (2, 0, 1)),
    (REFERENCE_WEIGHTS[:3], (2,), (0, F(1, 3), F(-1, 4)), (2, 1, 0)),
    (REFERENCE_WEIGHTS[:3], (1, 3), (0, 0, F(2, 7)), (1, 3, 1)),
    ((1, 2), (2,), (0, F(1, 3)), (3, 1)),
]


@pytest.mark.parametrize("weights, powers, base, alpha", DOCTORED_SHARE_CASES)
def test_residual_equals_full_residual_on_doctored_shares(
        weights, powers, base, alpha, monkeypatch):
    """With one splitting share doubled, the vectors built from the doctored
    shares fail the reconstruction at alpha alone, and the share-sum
    residual equals the full series residual and the binomial-power
    reference, entry for entry."""
    shares = frames._splitting_shares

    def doctored(gens, a):
        out = shares(gens, a)
        if a == alpha:
            k, v, p, s = out[0]
            out[0] = (k, v, p, 2 * s)
        return out
    monkeypatch.setattr(frames, "_splitting_shares", doctored)
    mod = WeightedPolydiscModule(len(weights), weights)
    if powers is None:
        frame = decompose_coordinate_ideal(mod, 4)
    else:
        frame = frame_on_zero_set(
            mod, IdealSpec.coordinate_powers(mod.dim, powers), base, 4)
    got = reconstruction_residual(frame)
    assert list(got) == [alpha]
    assert got == full_reconstruction_residual(frame)
    assert got == _reference_residual(frame)


def test_recentered_monomials_factor_through_generators():
    """The share lemma: the base point vanishes on every generator
    variable, so P(alpha) = ub_v^p P(alpha - p e_v) exactly, through the
    truncation degree, for every generator z_v^p dividing z^alpha."""
    for frame in _reference_frames():
        m, D = frame.module.dim, frame.trunc
        table = frame.recentered_monomials
        for v, p in zip(frame.gen_vars, frame.gen_powers):
            pbar = TruncSeries.wbar(m, D, v, p)
            for alpha, monomial in table.items():
                if alpha[v] >= p:
                    down = alpha[:v] + (alpha[v] - p,) + alpha[v + 1:]
                    assert monomial == pbar * table[down], (frame, alpha)


# ---------------------------------------------------------------------------
# Zero-set metric: coefficient tables against the Horner reference


def _closed_form_by_horner(frame):
    """The zero-set Grammian entries and scales with each free slot's factor
    expanded by Horner's scheme and multiplied in as a series."""
    m, D = frame.module.dim, frame.trunc
    scale = frames.PowerProduct()
    common = TruncSeries.one(m, D)
    for i in frame.free_slots:
        c, l = F(frame.base_point[i]), frame.module.weights[i]
        scale = scale.times(1 - c * c, -l)
        common = common * recentered_inverse_power(m, D, i, c, l)
    fold = scale.rational_value() if scale.is_rational() else 1
    scales = None if scale.is_rational() else (scale,) * frame.count
    entries = [[TruncSeries.zero(m, D) for _ in range(frame.count)]
               for _ in range(frame.count)]
    for k, lead in enumerate(frame.lead_coeffs):
        entries[k][k] = common.scale(lead * fold)
    return entries, scales


SLOT_WEIGHTS = (F(1), F(2), F(3, 2), F(5, 3))
SLOT_CENTERS = (F(0), F(1, 3), F(-1, 4), F(2, 7))


@pytest.mark.parametrize("weight", SLOT_WEIGHTS, ids=str)
@pytest.mark.parametrize("center", SLOT_CENTERS, ids=str)
def test_slot_coefficients_equal_horner(weight, center):
    """Each slot's coefficient table is the Horner series of the recentered
    inverse power, coefficient for coefficient, at D = 6."""
    table = frames._slot_coefficients(weight, center, 6)
    got = TruncSeries(1, 6, table)
    assert got == recentered_inverse_power(1, 6, 0, center, weight)
    assert len(got.coeffs) == len(table)  # no zero entry stored


def test_zero_set_metric_equals_horner_on_golden_configs():
    for config in ZERO_SET_METRIC_CONFIGS:
        cfg = cli.parse_config(config.read_text(encoding="utf-8"))
        module = cli._build_module(cfg)
        frame = cli._build_frame(cfg, module, cli._build_ideal(cfg))
        matrix, scales = frames._metric_by_closed_form(frame)
        assert (matrix.entries, scales) == _closed_form_by_horner(frame), \
            config.stem


_slot_weight = st.fractions(min_value=F(1, 4), max_value=F(7, 2),
                            max_denominator=5)
_center = st.fractions(min_value=F(-5, 6), max_value=F(5, 6),
                       max_denominator=9)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_zero_set_metric_equals_horner_sweep(data):
    """m = 2..4, fractional weights, any generator variables and powers,
    rational base points on the zero set, D = 2..6: the coefficient-table
    metric equals the Horner-series metric, entries and scales."""
    m = data.draw(st.integers(2, 4))
    weights = data.draw(st.lists(_slot_weight, min_size=m, max_size=m))
    t = data.draw(st.integers(1, m - 1))
    gen_vars = data.draw(st.permutations(range(m)))[:t]
    exps = [[0] * m for _ in range(t)]
    for row, v in zip(exps, gen_vars):
        row[v] = data.draw(st.integers(1, 3))
    ideal = IdealSpec.monomial(m, [tuple(row) for row in exps])
    base = tuple(F(0) if i in gen_vars else data.draw(_center)
                 for i in range(m))
    D = data.draw(st.integers(2, 6))
    frame = frame_on_zero_set(WeightedPolydiscModule(m, weights), ideal,
                              base, D)
    matrix, scales = frames._metric_by_closed_form(frame)
    assert (matrix.entries, scales) == _closed_form_by_horner(frame)


def test_diag_coeff_slots_multiply_to_diag_coeff():
    for weights in [(1, 2), REFERENCE_WEIGHTS, (F(7, 3), F(1, 5), 3)]:
        mod = WeightedPolydiscModule(len(weights), weights)
        slots = diag_coeff_slots(mod, 7)
        assert all(len(row) == 8 for row in slots)
        for alpha in iter_multiindices(mod.dim, 7):
            got = F(1)
            for row, e in zip(slots, alpha):
                got *= row[e]
            assert got == diag_coeff(mod, alpha), alpha


# ---------------------------------------------------------------------------
# Integer splitting shares against the Fraction-share references

PRIMES_TO_60 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59)


@st.composite
def share_weights(draw):
    """Weights n/d for m = 1..5 slots.  In half the draws the denominators
    are distinct primes up to 59 or 1, pairwise coprime, so the lcm scale
    is their product; otherwise each d is any integer up to 60."""
    m = draw(st.integers(1, 5))
    if draw(st.booleans()):
        primes = draw(st.lists(st.sampled_from(PRIMES_TO_60), min_size=m,
                               max_size=m, unique=True))
        dens = [p if draw(st.booleans()) else 1 for p in primes]
    else:
        dens = draw(st.lists(st.integers(1, 60), min_size=m, max_size=m))
    return tuple(F(draw(st.integers(1, 4 * d)), d) for d in dens)


def _entry_items(matrix):
    return [[list(s.coeffs.items()) for s in row] for row in matrix.entries]


@settings(max_examples=80, deadline=None)
@given(share_weights(), st.integers(2, 8))
def test_coordinate_grammian_equals_fraction_share_reference(weights, D):
    """The integer-share Grammian equals the Fraction-share reference in
    every term value and in the key order of every entry."""
    frame = decompose_coordinate_ideal(
        WeightedPolydiscModule(len(weights), weights), D)
    got = frames._metric_by_monomial_sum(frame)
    want = oracles.metric_by_fraction_shares(frame)
    assert _entry_items(got) == _entry_items(want)
    assert all(type(v) is F for row in got.entries for s in row
               for v in s.coeffs.values())


def _metric_without_mirror(frame):
    """_metric_by_monomial_sum with the (j, i) write left out."""
    m = frame.module.dim
    terms = [[{} for _ in range(m)] for _ in range(m)]
    for num, den, downs in frames.coordinate_terms(frame, 1,
                                                   frame.trunc // 2 + 1):
        for y, (i, xi, di) in enumerate(downs):
            for j, xj, dj in downs[y:]:
                terms[i][j][di + dj] = F(num * xi * xj, den)
    return SeriesMatrix([[TruncSeries(m, frame.trunc, t) for t in row]
                         for row in terms])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_grammians_are_hermitian_by_construction(data):
    """grammian does not check the Hermitian symmetry; both builders meet
    it.  Coordinate frames with m = 2..4 and D = 2..6, and zero-set frames
    with fractional weights off the origin, pass the pair-loop oracle; a
    monomial sum that skips the (j, i) write fails it."""
    m = data.draw(st.integers(2, 4))
    fractional = _slot_weight.filter(lambda w: w.denominator > 1)
    weights = data.draw(st.lists(fractional, min_size=m, max_size=m))
    module = WeightedPolydiscModule(m, weights)
    D = data.draw(st.integers(2, 6))
    coordinate = decompose_coordinate_ideal(module, D)
    assert is_hermitian_by_pair_loop(grammian(coordinate).matrix)
    t = data.draw(st.integers(1, m - 1))
    gen_vars = data.draw(st.permutations(range(m)))[:t]
    ideal = IdealSpec.monomial(m, [unit(m, v, data.draw(st.integers(1, 3)))
                                   for v in gen_vars])
    base = tuple(F(0) if i in gen_vars else data.draw(_center.filter(bool))
                 for i in range(m))
    zero_set = frame_on_zero_set(module, ideal, base, D)
    assert is_hermitian_by_pair_loop(grammian(zero_set).matrix)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frames, "_metric_by_monomial_sum",
                      _metric_without_mirror)
        assert not is_hermitian_by_pair_loop(grammian(coordinate).matrix)


@settings(max_examples=40, deadline=None)
@given(share_weights())
def test_splitting_shares_equal_fraction_ratios(weights):
    """share_numerators keeps the weights' ratios: x_k / denom is
    l_k a_k / sum_j l_j a_j on every kernel term a, and the slots of
    diag_coeff_slots are poch(l, n)/n!."""
    mod = WeightedPolydiscModule(len(weights), weights)
    frame = decompose_coordinate_ideal(mod, 2)
    gens, scale = frames.share_generators(frame)
    assert [L for *_, L in gens] == [w * scale for w in mod.weights]
    assert all(type(L) is int for *_, L in gens)
    for a in iter_multiindices(mod.dim, 4, 1):
        parts, denom = frames.share_numerators(gens, a)
        total = sum(w * e for w, e in zip(mod.weights, a))
        assert [(k, F(x, denom)) for k, _, _, x in parts] == \
            [(k, mod.weights[k] * a[k] / total)
             for k in range(mod.dim) if a[k]]
    for w, row in zip(mod.weights, diag_coeff_slots(mod, 4)):
        assert list(row) == [pochhammer(w, n) / math.factorial(n)
                             for n in range(5)]
