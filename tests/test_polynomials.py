from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv.errors import DomainError, InputError, ShapeError
from submodcurv.polynomials import Poly, parse_poly

from oracles import evaluate_poly, parse_poly_by_poly_arithmetic


def test_parse_basic():
    p = parse_poly("z1^2 - 3/2 z2 + 1", 2)
    assert evaluate_poly(p, (F(2), F(2))) == 4 - 3 + 1
    assert evaluate_poly(p, (F(0), F(0))) == 1
    assert p.degree == 2


def test_parse_implicit_product_and_powers():
    p = parse_poly("z1 z2", 2)
    q = parse_poly("z1*z2", 2)
    assert p == q
    assert parse_poly("z1**3", 2) == parse_poly("z1^3", 2)
    r = parse_poly("2z1", 2)
    assert evaluate_poly(r, (F(3), F(0))) == 6


def test_parse_parens_expansion():
    p = parse_poly("(z1 + z2)^2", 2)
    q = parse_poly("z1^2 + 2 z1 z2 + z2^2", 2)
    assert p == q


def test_parse_rational_coefficients():
    p = parse_poly("3/2 z1 - 1/3", 2)
    assert evaluate_poly(p, (F(2), F(0))) == 3 - F(1, 3)


def test_parse_unary_minus():
    p = parse_poly("-z1 + 2", 2)
    assert evaluate_poly(p, (F(1), F(0))) == 1
    assert parse_poly("-(z1 - z2)", 2) == parse_poly("z2 - z1", 2)


def test_parse_errors_carry_position():
    with pytest.raises(InputError) as exc:
        parse_poly("z3 + 1", 2)
    assert "z3" in str(exc.value)
    with pytest.raises(InputError):
        parse_poly("1 +", 2)
    with pytest.raises(InputError):
        parse_poly("(z1", 2)
    with pytest.raises(InputError):
        parse_poly("z1 $ z2", 2)
    with pytest.raises(InputError):
        parse_poly("", 2)


def test_poly_algebra():
    z1 = Poly.variable(2, 0)
    z2 = Poly.variable(2, 1)
    p = (z1 + z2) * (z1 - z2)
    assert p == z1 * z1 - z2 * z2
    assert (z1 ** 3).degree == 3
    assert Poly(2).degree == -1
    assert Poly.constant(2, F(4)).degree == 0


def test_variable_index_must_name_a_variable():
    assert Poly.variable(2, 1) == parse_poly("z2", 2)
    for nvars, i in ((1, 1), (2, 5), (2, -1), (3, 3)):
        with pytest.raises(ShapeError, match=f"{i} .* {nvars} variables"):
            Poly.variable(nvars, i)


def test_monomial_queries():
    p = parse_poly("z1^2 z2", 2)
    assert p.is_monomial()
    assert tuple(p.monomial_exponent()) == (2, 1)
    assert not parse_poly("z1 + z2", 2).is_monomial()


def test_str_round_trip():
    for src in ("z1^2 - 3/2 z2 + 1", "z1 z2 - z1", "2 z2^3 + z1"):
        p = parse_poly(src, 2)
        assert parse_poly(str(p), 2) == p


def _parse_outcome(parse, text, nvars):
    """The term map of a parse, as its (key, value) list in key order, or
    the message of the InputError it raises."""
    try:
        return list(parse(text, nvars).coeffs.items())
    except InputError as exc:
        return str(exc)


_SPACE = st.sampled_from(["", " ", "  "])
_RATIONAL = st.builds(lambda n, d: f"{n}/{d}" if d else str(n),
                      st.integers(0, 12), st.sampled_from([0, 0, 1, 2, 3, 7]))
_VARIABLE = st.integers(1, 3).map(lambda i: f"z{i}")


def _factor(atom):
    power = st.tuples(st.sampled_from(["^", "**", " ^ "]), st.integers(0, 3))
    return st.builds(lambda a, p: a if p is None else f"{a}{p[0]}{p[1]}",
                     atom, st.none() | power)


def _expr(atom):
    term = st.lists(st.tuples(_factor(atom),
                              st.sampled_from(["*", " * ", " ", ""])),
                    min_size=1, max_size=3).map(
        lambda fs: "".join(f + sep for f, sep in fs[:-1]) + fs[-1][0])
    return st.builds(
        lambda lead, first, rest: lead + first + "".join(
            f"{sp}{op}{sp}{t}" for op, sp, t in rest),
        st.sampled_from(["", "-", "+", "- ", "+ "]), term,
        st.lists(st.tuples(st.sampled_from("+-"), _SPACE, term), max_size=3))


# an expression whose atoms are numbers, variables or parenthesised
# expressions of numbers and variables
_PLAIN_ATOM = _RATIONAL | _VARIABLE
_POLY_SOURCE = _expr(
    _PLAIN_ATOM | _expr(_PLAIN_ATOM).map(lambda e: f"({e})"))


@settings(max_examples=200, deadline=None)
@given(_POLY_SOURCE, st.integers(1, 3))
def test_parse_matches_poly_arithmetic_route(text, nvars):
    # same terms in the same order (the Gram-form candidates follow it),
    # or the same error with the same column
    assert _parse_outcome(parse_poly, text, nvars) == \
        _parse_outcome(parse_poly_by_poly_arithmetic, text, nvars)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="z0123/+-*^() $", max_size=14), st.integers(1, 2))
def test_parse_matches_poly_arithmetic_route_on_any_text(text, nvars):
    assert _parse_outcome(parse_poly, text, nvars) == \
        _parse_outcome(parse_poly_by_poly_arithmetic, text, nvars)


def test_parse_keeps_clean_terms():
    # atoms are built without clean_terms: zero numbers leave no term, and
    # every key is an int tuple of the right length with a Fraction value
    assert parse_poly("0", 2).is_zero()
    assert parse_poly("0 z1 + 0/3", 2).is_zero()
    assert parse_poly("+z2", 2) == Poly.variable(2, 1)
    for text in ("z1^0", "(z1 - z2)^0", "0^0", "3/6 z2**2 - 1", "z1 z2^2"):
        p = parse_poly(text, 2)
        assert all(type(k) is tuple and len(k) == 2
                   and all(type(e) is int for e in k)
                   and type(v) is F and v for k, v in p.coeffs.items())


def test_pow_starts_from_the_base():
    # cancelling terms leave and re-enter the term map, so the key order
    # of a power depends on the order of its products
    p = parse_poly("z1^2 - 2 z1 - 1", 2)
    assert list((p * p * p).coeffs) != list((p * (p * p)).coeffs)
    assert _parse_outcome(parse_poly, "(z1^2 - 2 z1 - 1)^3", 2) == \
        _parse_outcome(parse_poly_by_poly_arithmetic, "(z1^2 - 2 z1 - 1)^3", 2)
    assert p ** 0 == Poly.constant(2, 1)
    assert list((p ** 1).coeffs.items()) == list(p.coeffs.items())
    assert list((p ** 3).coeffs.items()) == \
        list((Poly.constant(2, 1) * p * p * p).coeffs.items())
    assert (Poly(2) ** 0) == Poly.constant(2, 1)
    assert (Poly(2) ** 2).is_zero()
    with pytest.raises(DomainError):
        p ** -1
