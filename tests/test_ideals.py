import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submodcurv.cli as cli
from submodcurv.algebra import iter_multiindices, unit
from submodcurv.errors import DomainError, UnsupportedIdealError
from submodcurv.ideals import (CoordinateSubspace, IdealSpec, PointSet,
                               _centre, localization_dim,
                               minimality_certificate, zero_set)
from submodcurv.linalg import mat_rank
from submodcurv.polynomials import Poly, parse_poly

from oracles import centre_by_eval_terms, localization_dim_two_spans


def _gens(dim, *srcs):
    return [parse_poly(s, dim) for s in srcs]


def test_family_detection():
    # monomial wins even when the ideal vanishes only at the origin
    i1 = IdealSpec.from_generators(2, _gens(2, "z1", "z2"))
    assert i1.family == "monomial"
    i2 = IdealSpec.from_generators(2, _gens(2, "z1 - 1/3", "z2"))
    assert i2.family == "coordinate_vanishing"
    i3 = IdealSpec.from_generators(2, _gens(2, "z1 z2", "z1 - z2"))
    assert i3.family == "catalogued"
    assert i3.name == "product_difference"
    i4 = IdealSpec.from_generators(2, _gens(2, "z1 + z2^2"))
    assert i4.family == "general"


def test_ideal_validation():
    with pytest.raises(DomainError):
        IdealSpec.from_generators(2, [])
    with pytest.raises(DomainError):
        IdealSpec.from_generators(2, _gens(3, "z3"))


def test_coordinate_powers_constructor():
    i = IdealSpec.coordinate_powers(3, (2, 1))
    assert i.family == "monomial"
    assert [str(g) for g in i.generators] == ["z1^2", "z2"]
    assert i.max_degree == 2


def test_coordinate_powers_rejects_non_integer_powers():
    for p in (F(5, 2), 1.9, "2", F(2)):  # 5/2 once built z1^2
        with pytest.raises(DomainError):
            IdealSpec.coordinate_powers(2, (p,))


def test_zero_sets():
    v = zero_set(IdealSpec.coordinate_powers(3, (2, 1)))
    assert isinstance(v, CoordinateSubspace)
    assert v.vanishing == frozenset({0, 1})
    assert v.codim == 2
    assert v.contains((F(0), F(0), F(1, 2)))
    assert not v.contains((F(1, 3), F(0), F(0)))

    p = zero_set(IdealSpec.from_generators(2, _gens(2, "z1 - 1/3", "z2")))
    assert isinstance(p, PointSet)
    assert p.contains((F(1, 3), F(0)))

    c = zero_set(IdealSpec.catalogued("product_difference", 2))
    assert isinstance(c, CoordinateSubspace)
    assert c.vanishing == frozenset({0, 1})

    # mixed-variable monomial: no coordinate-subspace zero set
    with pytest.raises(UnsupportedIdealError):
        zero_set(IdealSpec.monomial(2, [(1, 1)]))


def test_minimality_certificate():
    c = minimality_certificate(IdealSpec.coordinate_powers(3, (2, 1)))
    assert c.status == "minimal_by_codim"
    assert c.codim == 2 and c.generator_count == 2
    c2 = minimality_certificate(
        IdealSpec.from_generators(2, _gens(2, "z1", "z1^2")))
    assert c2.status != "minimal_by_codim"


# -- localization dimensions -------------------------------------------------

ORIGIN = (F(0), F(0))
OFF = (F(1, 3), F(1, 3))


def test_catalogued_localization_at_origin():
    ideal = IdealSpec.catalogued("product_difference", 2)
    loc = localization_dim(ideal, ORIGIN)
    assert loc.dim == 2
    assert loc.stabilized_at == 3
    assert not loc.conditional


def test_catalogued_localization_off_origin():
    ideal = IdealSpec.catalogued("product_difference", 2)
    loc = localization_dim(ideal, OFF)
    assert loc.dim == 1
    assert loc.stabilized_at == 4
    assert loc.dims_by_degree[0][1] >= loc.dim  # defect extinguishes down


def test_single_power_localization():
    for p in (1, 2, 3):
        ideal = IdealSpec.monomial(2, [(p, 0)])
        on_v = localization_dim(ideal, (F(0), F(1, 2)))
        off_v = localization_dim(ideal, (F(1, 2), F(1, 2)))
        assert on_v.dim == 1
        assert off_v.dim == 1


def test_localization_invariant_under_row_operations():
    a = IdealSpec.from_generators(2, _gens(2, "z1 z2", "z1 - z2"))
    # same ideal, generators changed by an invertible row operation
    b = IdealSpec.from_generators(2, _gens(2, "z1 z2 + z1 - z2", "z1 - z2"))
    for pt in (ORIGIN, OFF, (F(1, 2), F(-1, 3))):
        la = localization_dim(a, pt)
        lb = localization_dim(b, pt)
        assert la.dim == lb.dim


def test_localization_point_arity():
    ideal = IdealSpec.monomial(2, [(1, 0)])
    with pytest.raises(DomainError):
        localization_dim(ideal, (F(0),))


def test_general_family_flagged_conditional():
    ideal = IdealSpec.from_generators(2, _gens(2, "z1 + z2^2"))
    loc = localization_dim(ideal, ORIGIN)
    assert loc.conditional
    assert loc.dim == 1


def test_dims_by_degree_regression():
    ideal = IdealSpec.catalogued("product_difference", 2)
    loc = localization_dim(ideal, ORIGIN)
    assert loc.dims_by_degree == ((2, 2), (3, 2))
    loc2 = localization_dim(ideal, OFF)
    assert loc2.dims_by_degree == ((2, 2), (3, 1), (4, 1))


def _dense_dims_by_degree(ideal, point, max_degree):
    """Reference: one dense row per generator multiple over the monomials of
    degree <= N and one mat_rank per span, degree by degree until two
    consecutive defects agree."""
    m = ideal.nvars
    w = [F(x) for x in point]

    def defect(N):
        index = {a: k for k, a in enumerate(iter_multiindices(m, N))}

        def row(p):
            out = [F(0)] * len(index)
            for k, v in p.coeffs.items():
                out[index[k]] = v
            return out

        j_rows, jp_rows = [], []
        for g in ideal.generators:
            for beta in iter_multiindices(m, max(N - g.degree, 0)):
                f = g.shift_by_monomial(beta)
                j_rows.append(row(f))
                if sum(beta) + g.degree <= N - 1:
                    for i in range(m):
                        jp_rows.append(row(
                            f.shift_by_monomial(unit(m, i))
                            - f * w[i]))
        return ((mat_rank(j_rows) if j_rows else 0)
                - (mat_rank(jp_rows) if jp_rows else 0))

    dims = []
    for N in range(ideal.max_degree, max_degree + 1):
        dims.append((N, defect(N)))
        if len(dims) >= 2 and dims[-1][1] == dims[-2][1]:
            break
    return tuple(dims)


_REFERENCE_CASES = [
    # (generators or catalogue name, nvars, points, max_degree)
    ("product_difference", 2,
     [ORIGIN, OFF, (F(1, 5), F(2, 5)), (F(-1, 2), F(0))], 8),
    (("z1^2", "z1 z2", "z2^3"), 2, [ORIGIN, (F(0), F(1, 2)), OFF], 8),
    (("z1^3",), 2, [ORIGIN, (F(0), F(1, 3)), (F(1, 4), F(1, 5))], 8),
    (("z1^2", "z1 z2", "z3"), 3,
     [(F(0),) * 3, (F(0), F(1, 2), F(0)), (F(1, 3), F(0), F(0))], 6),
    (("z1 + z2^2",), 2, [ORIGIN, (F(-1, 4), F(1, 2)), OFF], 8),
    (("z1^2 - z2^3", "z1 z2^2"), 2, [ORIGIN, (F(1, 8), F(1, 4)), OFF], 8),
    (("z1 z2 - z3^2", "z1 - z2 z3"), 3,
     [(F(0),) * 3, (F(1, 2), F(1, 2), F(1, 2)), (F(1, 3), F(-1, 5), F(1, 4))],
     5),
    # generators of degree 4 to 7, so the spans run to degrees 7 and 8
    (("z1^5", "z1^2 z2^3", "z2^6"), 2, [ORIGIN, (F(0), F(1, 2)), OFF], 8),
    (("z1^4 z2^3", "z1^6 - z2^5"), 2, [ORIGIN, OFF, (F(1, 2), F(0))], 8),
    (("z1^3 - z2 z3", "z3^4"), 3,
     [(F(0),) * 3, (F(1, 2), F(0), F(1, 3)), (F(1, 8), F(1, 2), F(0))], 6),
]


@pytest.mark.parametrize("gens,nvars,points,max_degree", _REFERENCE_CASES,
                         ids=[f"case{k}" for k in range(len(_REFERENCE_CASES))])
def test_localization_matches_dense_rank_reference(gens, nvars, points,
                                                   max_degree):
    if isinstance(gens, str):
        ideal = IdealSpec.catalogued(gens, nvars)
    else:
        ideal = IdealSpec.from_generators(nvars, _gens(nvars, *gens))
    for pt in points:
        for cap in range(ideal.max_degree + 1, max_degree + 1):
            ref = _dense_dims_by_degree(ideal, pt, cap)
            loc = localization_dim(ideal, pt, cap)
            assert loc.dims_by_degree == ref, (gens, pt, cap)
            assert loc.dim == ref[-1][1]


@pytest.mark.parametrize("gens,nvars,points,max_degree", _REFERENCE_CASES,
                         ids=[f"case{k}" for k in range(len(_REFERENCE_CASES))])
def test_dims_by_degree_never_increase(gens, nvars, points, max_degree):
    if isinstance(gens, str):
        ideal = IdealSpec.catalogued(gens, nvars)
    else:
        ideal = IdealSpec.from_generators(nvars, _gens(nvars, *gens))
    for pt in points:
        values = [d for _, d in localization_dim(ideal, pt, max_degree).dims_by_degree]
        assert all(b <= a for a, b in zip(values, values[1:])), (gens, pt)


def _outcome(localize, args):
    try:
        return localize(*args)
    except DomainError as exc:
        return (type(exc), str(exc))


def test_localization_matches_two_span_route_on_pooled_jobs(perfbench_jobs,
                                                            tmp_path,
                                                            monkeypatch):
    """Every localization_dim call of the pooled task-mix dimension jobs,
    recorded through the CLI, gives the result of the two-span route."""
    calls = []

    def recording(*args):
        calls.append(args)
        return localization_dim(*args)

    monkeypatch.setattr(cli, "localization_dim", recording)
    path = tmp_path / "job.cfg"
    for job in perfbench_jobs.pool("task-mix").values():
        if job.task != "dimension":
            continue
        path.write_text(job.config, encoding="utf-8")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                cli.main(job.argv(str(path)))
            except SystemExit:
                pass
    assert len(calls) == 852
    assert [args for args in calls
            if _outcome(localization_dim, args)
            != _outcome(localization_dim_two_spans, args)] == []


_small = st.fractions(min_value=-1, max_value=1, max_denominator=4)


@st.composite
def _small_localizations(draw):
    """An ideal of one to three generators of degree <= 3 in m <= 3
    variables, a point and a degree cap."""
    m = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * m),
                             min_size=1, max_size=3, unique=True))
        coeffs = {e: draw(_small.filter(bool)) for e in exps
                  if sum(e) <= 3}
        if not coeffs:
            coeffs = {exps[0][:-1] + (1,) if m > 1 else (1,): F(1)}
        gens.append(Poly(m, coeffs))
    ideal = IdealSpec.from_generators(m, gens)
    point = tuple(draw(_small) for _ in range(m))
    cap = ideal.max_degree + draw(st.integers(1, 2))
    return ideal, point, cap


@settings(max_examples=150, deadline=None)
@given(_small_localizations())
def test_localization_matches_two_span_route(case):
    assert localization_dim(*case) == localization_dim_two_spans(*case)


@st.composite
def _centrings(draw):
    """A polynomial of degree <= 4 in m <= 3 variables, constants included,
    and a rational point whose coordinates may be 0."""
    m = draw(st.integers(1, 3))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 4)] * m),
                         min_size=1, max_size=4, unique=True))
    g = Poly(m, {e: draw(_small.filter(bool)) for e in exps if sum(e) <= 4}
             or {(0,) * m: draw(_small.filter(bool))})
    coords = st.sampled_from([F(0), F(1, 2), F(-1, 3)]) | _small | \
        st.fractions(max_denominator=50)
    return g, tuple(draw(coords) for _ in range(m))


@settings(max_examples=200, deadline=None)
@given(_centrings())
def test_centring_matches_eval_terms_route(case):
    g, w = case
    assert _centre(g.coeffs, w) == centre_by_eval_terms(g, w).coeffs


def test_centring_examples():
    # a constant generator stays a one-term map wherever it is centred
    for w in ((F(1, 2), F(-1, 3)), (F(0), F(0))):
        assert _centre(parse_poly("-3/4", 2).coeffs, w) == {(0, 0): F(-3, 4)}
    g = parse_poly("z1^2 z2 - z2 + 5", 2)
    assert _centre(g.coeffs, (F(0), F(0))) == g.coeffs
    # z1 = x1, z2 = x2 + 2/3
    assert _centre(g.coeffs, (F(0), F(2, 3))) == {
        (2, 1): 1, (2, 0): F(2, 3), (0, 1): -1, (0, 0): F(13, 3)}
    # the shift cancels terms, and their zero sums are dropped
    g = parse_poly("(z1 - 1/2)^3 + z2", 2)
    assert _centre(g.coeffs, (F(1, 2), F(0))) == {(3, 0): 1, (0, 1): 1}


@pytest.mark.xfail(strict=True, reason="two equal consecutive defects stop "
                   "the scan at d_3 = 2; d_N = 1 from N = 4")
def test_localization_off_the_zero_set_is_one():
    ideal = IdealSpec.from_generators(3, _gens(3, "z1^2", "z2^2"))
    loc = localization_dim(ideal, (F(1, 3), F(1, 2), F(0)), 9)
    assert loc.dim == 1
