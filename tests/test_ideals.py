import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import submodcurv.cli as cli
from submodcurv import ideals
from submodcurv.algebra import iter_multiindices, unit
from submodcurv.errors import DomainError, UnsupportedIdealError
from submodcurv.ideals import IdealSpec, localization_dim
from submodcurv.linalg import mat_rank
from submodcurv.polynomials import Poly, parse_poly
from submodcurv.rkhs import WeightedPolydiscModule, submodule_kernel

from oracles import (CoordinateSubspace, PointSet, codim,
                     coordinate_power_data_by_pair_scan, coordinate_powers,
                     evaluate_poly, forbid_fraction_arithmetic,
                     localization_dim_two_spans, minimality_certificate,
                     reduced_groebner_basis, zero_set)


def _gens(dim, *srcs):
    return tuple(parse_poly(s, dim) for s in srcs)


def test_family_detection():
    # monomial wins even when the ideal vanishes only at the origin
    i1 = IdealSpec(2, _gens(2, "z1", "z2"))
    assert i1.family == "monomial"
    i2 = IdealSpec(2, _gens(2, "z1 - 1/3", "z2"))
    assert i2.family == "coordinate_vanishing"
    i3 = IdealSpec(2, _gens(2, "z1 z2", "z1 - z2"))
    assert i3.family == "catalogued"
    assert i3 == IdealSpec.catalogued("product_difference", 2)
    i4 = IdealSpec(2, _gens(2, "z1 + z2^2"))
    assert i4.family == "general"


def test_family_is_read_off_the_generators():
    """The family and the point come from the generators alone: no caller
    can tag <z1^2, z2> "general" and get the degree-6 Gram value
    951772381/2176782336 in place of the closed form 7/16."""
    gens = _gens(2, "z1^2", "z2")
    with pytest.raises(TypeError):
        IdealSpec(2, gens, "general")
    module = WeightedPolydiscModule(2, (1, 2))
    z = (F(1, 2), F(1, 3))
    assert submodule_kernel(module, IdealSpec(2, gens)).eval_exact(z, z) == \
        F(7, 16)
    for spec, same in (
            (IdealSpec(2, gens), IdealSpec.monomial(2, [(2, 0), (0, 1)])),
            (IdealSpec(2, _gens(2, "z1 z2", "z1 - z2")),
             IdealSpec.catalogued("product_difference", 2))):
        assert spec == same
        assert submodule_kernel(module, spec).variant == \
            submodule_kernel(module, same).variant
    assert IdealSpec(2, _gens(2, "z2", "z1 - 1/3")).point == (F(1, 3), F(0))
    assert IdealSpec(2, _gens(2, "z1", "z2")).point is None
    assert IdealSpec(2, _gens(2, "z1 z2", "z1 - z2")).point is None


def test_ideal_validation():
    with pytest.raises(DomainError):
        IdealSpec(2, ())
    with pytest.raises(DomainError):
        IdealSpec(2, _gens(3, "z3"))


def test_coordinate_powers_constructor():
    i = coordinate_powers(3, (2, 1))
    assert i.family == "monomial"
    assert [str(g) for g in i.generators] == ["z1^2", "z2"]
    assert i.max_degree == 2


def test_coordinate_powers_rejects_non_integer_powers():
    for p in (F(5, 2), 1.9, "2", F(2)):  # 5/2 once built z1^2
        with pytest.raises(DomainError):
            coordinate_powers(2, (p,))


@st.composite
def _monomial_generators(draw):
    """1 to 7 monomial generators in 1 to 4 variables, drawn from a small
    pool so that they repeat: pure powers, mixed monomials (some divided
    by a pure power, some not), the constant and a scaled copy of any of
    them (3*z1^2); now and then one sum, which is no monomial ideal."""
    m = draw(st.integers(1, 4))
    pool = [unit(m, v, p) for v in range(m) for p in (1, 2, 3)]
    pool += [tuple(draw(st.integers(0, 2)) for _ in range(m))
             for _ in range(3)]
    gens = []
    for _ in range(draw(st.integers(1, 7))):
        e = draw(st.sampled_from(pool))
        c = draw(st.sampled_from([F(1), F(1), F(3), F(-1, 2)]))
        gens.append(Poly(m, {e: c}))
    if draw(st.integers(0, 9)) == 0:
        gens.append(Poly(m, {unit(m, 0): F(1), (0,) * m: F(1)}))
    return IdealSpec(m, tuple(gens))


def _powers_outcome(read, ideal):
    try:
        return list(read(ideal))
    except UnsupportedIdealError as e:
        return str(e)


@settings(max_examples=400, deadline=None)
@given(_monomial_generators())
@example(IdealSpec(2, (Poly(2, {(1, 1): F(3)}), Poly(2, {(0, 0): F(2)}))))
@example(IdealSpec(3, (Poly(3, {(1, 1, 0): F(1)}), Poly(3, {(0, 1, 1): F(1)}),
                       Poly(3, {(1, 1, 1): F(1)}), Poly(3, {(2, 0, 0): F(1)}))))
@example(IdealSpec(2, (Poly(2, {(2, 1): F(1)}), Poly(2, {(1, 0): F(-3)}))))
def test_coordinate_powers_equal_the_pair_scan(ideal):
    """The one-pass coordinate_powers equals the divisibility scan of every
    exponent against every other: the same data, or the same error text
    naming the same first offending generator."""
    assert _powers_outcome(lambda i: i.coordinate_powers, ideal) == \
        _powers_outcome(coordinate_power_data_by_pair_scan, ideal)


def test_coordinate_powers_are_read_once_per_ideal():
    ideal = IdealSpec(3, tuple(parse_poly(g, 3) for g in ("z3^2", "3*z1",
                                                          "z1^2", "z1*z3")))
    assert ideal.coordinate_powers == ((0, 1), (2, 2))
    assert ideal.coordinate_powers is ideal.coordinate_powers


def test_zero_sets():
    v = zero_set(coordinate_powers(3, (2, 1)))
    assert isinstance(v, CoordinateSubspace)
    assert v.vanishing == frozenset({0, 1})
    assert codim(v) == 2
    assert v.contains((F(0), F(0), F(1, 2)))
    assert not v.contains((F(1, 3), F(0), F(0)))

    p = zero_set(IdealSpec(2, _gens(2, "z1 - 1/3", "z2")))
    assert isinstance(p, PointSet)
    assert p.contains((F(1, 3), F(0)))

    c = zero_set(IdealSpec.catalogued("product_difference", 2))
    assert isinstance(c, CoordinateSubspace)
    assert c.vanishing == frozenset({0, 1})

    # mixed-variable monomial: no coordinate-subspace zero set
    with pytest.raises(UnsupportedIdealError):
        zero_set(IdealSpec.monomial(2, [(1, 1)]))


def test_minimality_certificate():
    c = minimality_certificate(coordinate_powers(3, (2, 1)))
    assert c.status == "minimal_by_codim"
    assert c.codim == 2 and c.generator_count == 2
    c2 = minimality_certificate(
        IdealSpec(2, _gens(2, "z1", "z1^2")))
    assert c2.status != "minimal_by_codim"


# -- membership in V(I) by evaluating the generators -------------------------

# st.fractions(min_value=-1, max_value=1, max_denominator=6) as hypothesis
# builds it, a denominator d in 1..6 and then a numerator in -d..d, but with
# each denominator's strategy built once: st.fractions builds it anew on
# every draw, which cost most of the time of the tests that draw points
_BY_DENOMINATOR = {d: st.builds(F, st.integers(-d, d), st.just(d))
                   for d in range(1, 7)}
_coord = st.integers(1, 6).flatmap(_BY_DENOMINATOR.__getitem__).map(
    lambda f: f.limit_denominator(6)).filter(lambda x: abs(x) < 1)
_nonzero = _coord.filter(bool)


def _powers(m, *terms):
    """The ideal of the monomials c z_i^p for terms (c, i, p)."""
    return IdealSpec(
        m, tuple(Poly.monomial(m, unit(m, i, p), c) for c, i, p in terms))


# _described_ideal's strategies, built and validated once rather than on
# every draw: the points and the power terms (c, i, p) in m variables
_POINTS = {m: st.tuples(*[_coord] * m) for m in range(2, 5)}
_POWER_TERMS = {m: st.lists(st.tuples(
    _nonzero | st.integers(-3, 3).filter(bool),
    st.integers(0, m - 1), st.integers(1, 3)), min_size=1, max_size=3)
    for m in range(2, 5)}
_KINDS = st.sampled_from(["powers", "point", "catalogue"])


@st.composite
def _described_ideal(draw):
    """(ideal, point on V(I), point off it) for an ideal with a zero-set
    descriptor: powers of single variables with any coefficients (a
    variable may repeat), a point ideal, or product_difference, in 2 to 4
    variables.  The point on V(I) zeroes the vanishing coordinates of a
    drawn point; the point off it moves one of them."""
    m = draw(st.integers(2, 4))
    w = list(draw(_POINTS[m]))
    kind = draw(_KINDS)
    if kind == "powers":
        terms = draw(_POWER_TERMS[m])
        ideal = _powers(m, *terms)
        vanishing, target = {i for _, i, _ in terms}, [F(0)] * m
    elif kind == "point":
        ideal = IdealSpec(
            m, tuple(Poly.variable(m, i) - a for i, a in enumerate(w)))
        vanishing, target = set(range(m)), list(w)
    else:
        ideal = IdealSpec.catalogued("product_difference", m)
        vanishing, target = {0, 1}, [F(0)] * m
    on = [target[i] if i in vanishing else x for i, x in enumerate(w)]
    off = list(on)
    i = draw(st.sampled_from(sorted(vanishing)))
    off[i] = draw(_coord.filter(lambda x: x != target[i]))
    return ideal, tuple(on), tuple(off)


@settings(max_examples=300, deadline=None)
@given(_described_ideal(), _coord, _coord)
@example((_powers(2, (3, 0, 2)), (F(0), F(1, 2)), (F(1, 3), F(1, 2))),
         F(0), F(0))
@example((_powers(3, (1, 0, 2), (1, 0, 3)), (F(0), F(-1, 2), F(1, 5)),
          (F(-1, 4), F(0), F(0))), F(1, 2), F(0))
def test_vanishes_at_matches_the_zero_set_descriptor(case, x, y):
    ideal, on, off = case
    variety = zero_set(ideal)
    assert ideal.vanishes_at(on) and variety.contains(on)
    assert not ideal.vanishes_at(off) and not variety.contains(off)
    # a point drawn with no regard to V(I)
    free = (x, y) + on[2:]
    assert ideal.vanishes_at(free) == variety.contains(free)


@pytest.mark.parametrize("gens,point,on", [
    (("z1*z2 - z3^2", "z1 - z2*z3"), (0, 0, 0), True),
    (("z1*z2 - z3^2", "z1 - z2*z3"), (F(1, 8), F(1, 2), F(1, 4)), True),
    # the first generator vanishes there, the second does not
    (("z1*z2 - z3^2", "z1 - z2*z3"), (F(1, 2), F(1, 2), F(1, 2)), False),
    (("z1 + z2^2",), (F(-1, 4), F(1, 2)), True),
    (("z1 + z2^2",), (F(1, 4), F(1, 2)), False),
    (("z1*z2",), (F(0), F(1, 2)), True),
    (("z1*z2",), (F(1, 2), F(1, 2)), False),
    (("z1 - z2", "z1*z2"), (F(0), F(0)), True),
    (("z1 - z2", "z1*z2"), (F(1, 3), F(1, 3)), False),
])
def test_vanishes_at_on_ideals_without_descriptor(gens, point, on):
    ideal = IdealSpec(len(point), _gens(len(point), *gens))
    assert ideal.vanishes_at(point) is on


_coefficient = st.fractions(min_value=-4, max_value=4,
                            max_denominator=9).filter(bool)


@st.composite
def _generators_and_point(draw):
    """(generators, point, on): one to three generators in 1 to 3
    variables with one to four terms of degree 1 to 3 and non-monic
    Fraction coefficients, and a point whose coordinates may be 0 or
    negative.  Each generator's constant term is set so that its value at
    the point is 0 or a drawn nonzero Fraction; on says whether the point
    is on V(I), that is, whether every value is 0."""
    m = draw(st.integers(1, 3))
    point = draw(st.tuples(*[_coord] * m))
    gens, on = [], True
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * m).filter(
                lambda e: 0 < sum(e) <= 3),
            _coefficient, min_size=1, max_size=4))
        g = Poly(m, terms)
        value = draw(st.just(F(0)) | _coefficient)
        gens.append(g + Poly.constant(m, value - evaluate_poly(g, point)))
        on = on and not value
    return tuple(gens), point, on


@settings(max_examples=200, deadline=None)
@given(_generators_and_point())
@example(((Poly(2, {(1, 0): F(3, 2), (0, 2): F(-2, 3), (0, 0): F(2, 3)}),),
          (F(-1, 3), F(1, 2)), True))
@example(((Poly(2, {(1, 0): F(1), (0, 0): F(1, 3)}),
           Poly.constant(2, F(2, 3))), (F(-1, 3), F(1, 2)), False))
def test_vanishes_at_equals_the_fraction_route(case):
    """Membership by one integer sum per generator (the point over one
    denominator, each generator cleared over the lcm of its coefficients'
    denominators) agrees with the values the generators were built to
    take, a constant generator among them."""
    gens, point, on = case
    assert IdealSpec(len(point), gens).vanishes_at(point) is on


def test_vanishes_at_runs_no_fraction_arithmetic(monkeypatch):
    ideal = IdealSpec(3, _gens(3, "3/2*z1^2*z2 - 2/3*z3^3 + z1 - 1/5",
                               "z1*z2 - 1/7*z3"))
    points = [(F(1, 3), F(-2, 5), F(1, 7)), (0, 0, 0), (F(1, 5), 0, 0),
              (F(1, 5), F(0), F(-3, 4))]
    forbid_fraction_arithmetic(monkeypatch)
    got = [ideal.vanishes_at(p) for p in points]
    monkeypatch.undo()
    assert got == [False, False, True, False]


@pytest.mark.parametrize("point", [(0,), (0, 1, 0)])
def test_vanishes_at_checks_the_point_arity(point):
    # zip would drop the missing coordinate or the extra one
    ideal = IdealSpec(2, _gens(2, "z2 - 1"))
    with pytest.raises(DomainError, match=f"point has arity {len(point)}, "
                       "ideal lives in 2 variables"):
        ideal.vanishes_at(point)


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
    a = IdealSpec(2, _gens(2, "z1 z2", "z1 - z2"))
    # same ideal, generators changed by an invertible row operation
    b = IdealSpec(2, _gens(2, "z1 z2 + z1 - z2", "z1 - z2"))
    for pt in (ORIGIN, OFF, (F(1, 2), F(-1, 3))):
        la = localization_dim(a, pt)
        lb = localization_dim(b, pt)
        assert la.dim == lb.dim


def test_localization_point_arity():
    ideal = IdealSpec.monomial(2, [(1, 0)])
    with pytest.raises(DomainError):
        localization_dim(ideal, (F(0),))


def test_general_family_flagged_conditional():
    ideal = IdealSpec(2, _gens(2, "z1 + z2^2"))
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
        ideal = IdealSpec(nvars, _gens(nvars, *gens))
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
        ideal = IdealSpec(nvars, _gens(nvars, *gens))
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
    ideal = IdealSpec(m, tuple(gens))
    point = tuple(draw(_small) for _ in range(m))
    cap = ideal.max_degree + draw(st.integers(1, 2))
    return ideal, point, cap


@settings(max_examples=150, deadline=None)
@given(_small_localizations())
def test_localization_matches_two_span_route(case):
    assert localization_dim(*case) == localization_dim_two_spans(*case)


@st.composite
def _colliding_localizations(draw):
    """One to three generators in m <= 3 variables with every exponent
    <= 2, so that a generator often has two terms one unit apart and the
    halves d_i z^(beta + e_i) p_j and n_i z^beta p_j of a row meet on one
    column; Fraction coefficients, a point with zero and nonzero
    coordinates, and a degree cap of 1..3 above the largest degree."""
    m = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        exps = draw(st.lists(st.tuples(*[st.integers(0, 2)] * m),
                             min_size=1, max_size=4, unique=True))
        gens.append(Poly(m, {e: draw(_small.filter(bool)) for e in exps}))
    ideal = IdealSpec(m, tuple(gens))
    coords = st.sampled_from([F(0), F(1), F(-1, 2)]) | _small
    point = tuple(draw(coords) for _ in range(m))
    cap = ideal.max_degree + draw(st.integers(1, 3))
    return ideal, point, cap


@settings(max_examples=200, deadline=None)
@given(_colliding_localizations())
@example((IdealSpec(1, (Poly(1, {(2,): F(1), (1,): F(1)}),)), (F(-1),), 3))
@example((IdealSpec(2, (Poly(2, {(2, 0): F(1, 2), (1, 0): F(3, 4),
                                 (0, 1): F(-1)}),)), (F(0), F(1, 3)), 4))
def test_localization_adds_colliding_shifts(case):
    assert localization_dim(*case) == localization_dim_two_spans(*case)


@settings(max_examples=100, deadline=None)
@given(_small_localizations(), _small.filter(bool))
def test_localization_memo_answers_as_a_fresh_ideal(case, step):
    """A repeated call returns the memo's entry, which is what a fresh
    IdealSpec of the same generators and the two-span route give; another
    point, another max_degree and another IdealSpec never share it."""
    ideal, point, cap = case
    first = localization_dim(ideal, point, cap)
    assert localization_dim(ideal, point, cap) is first
    fresh = IdealSpec(ideal.nvars, ideal.generators)
    assert fresh._localizations == {}
    assert localization_dim(fresh, point, cap) == first == \
        localization_dim_two_spans(ideal, point, cap)
    moved = (point[0] + step,) + point[1:]
    for other, other_cap in ((moved, cap), (point, cap + 1)):
        got = localization_dim(ideal, other, other_cap)
        assert got == localization_dim_two_spans(ideal, other, other_cap)
    assert list(ideal._localizations) == [
        (point, cap), (moved, cap), (point, cap + 1)]
    assert ideal._localizations[point, cap] is first
    assert list(fresh._localizations) == [(point, cap)]


def test_localization_memo_keeps_its_bound():
    """The memo holds at most LOCALIZATION_MEMO_SIZE results, dropping the
    oldest first; a dropped point is answered again, equal.  A float
    point equal to a kept key is still refused."""
    ideal = IdealSpec(1, _gens(1, "z1"))
    size = ideals.LOCALIZATION_MEMO_SIZE
    points = [(F(k, 2 * size),) for k in range(size + 5)]
    results = [localization_dim(ideal, p, 2) for p in points]
    assert list(ideal._localizations) == [(p, 2) for p in points[5:]]
    again = localization_dim(ideal, points[0], 2)
    assert again is not results[0]
    assert again == results[0] == \
        localization_dim_two_spans(ideal, points[0], 2)
    assert len(ideal._localizations) == size
    with pytest.raises(DomainError):
        localization_dim(ideal, (0.5,), 2)


@pytest.mark.xfail(strict=True, reason="two equal consecutive defects stop "
                   "the scan at d_3 = 2; d_N = 1 from N = 4")
def test_localization_off_the_zero_set_is_one():
    ideal = IdealSpec(3, _gens(3, "z1^2", "z2^2"))
    loc = localization_dim(ideal, (F(1, 3), F(1, 2), F(0)), 9)
    assert loc.dim == 1


def _basis_text(generators):
    return [str(g) for g in reduced_groebner_basis(generators, 2)]


# pairs of presentations of one ideal and its reduced basis for graded
# reverse lex, descending by lead (cross-checked with a computer algebra
# system); the Gram-form kernel reads the presentation (ROADMAP item 15)
SAME_IDEAL = [
    (("z1 - z2^2", "z2^3"), ("z1 - z2^2", "z2^3", "z1^2"),
     ["z1^2", "z1*z2", "z2^2 - z1"]),
    (("z1*z2", "z1 - z2"), ("z1 - z2", "z1*z2"), ["z2^2", "z1 - z2"]),
    (("z1^2", "z2"), ("z1^2", "z2", "z1*z2"), ["z1^2", "z2"]),
]


@pytest.mark.parametrize("first,second,basis", SAME_IDEAL)
def test_presentations_of_one_ideal_share_a_reduced_basis(first, second,
                                                          basis):
    want = [str(parse_poly(src, 2)) for src in basis]
    assert _basis_text(first) == _basis_text(second) == want


@pytest.mark.parametrize("generators,basis", [
    (("z1^2 - z2", "z1*z2"), ["z1^2 - z2", "z1*z2", "z2^2"]),
    (("z1 - z2^2", "z1*z2"), ["z1^2", "z1*z2", "z2^2 - z1"]),
])
def test_reduced_basis_adds_the_missing_member(generators, basis):
    """The two pooled Gram-form ideals whose generator multiples miss an
    element of I cap P_N: the basis gains z2^2, and z1^2."""
    assert _basis_text(generators) == \
        [str(parse_poly(src, 2)) for src in basis]
