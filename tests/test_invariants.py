import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from submodcurv import invariants
from submodcurv.errors import DomainError
from submodcurv.invariants import (cubic_positive_roots, lambda_mu_equivalent,
                                   lambda_mu_invariants, polydisc_rigidity,
                                   polydisc_rigidity_report,
                                   principal_rigidity)

from oracles import (count_roots_between, cubic_positive_roots_by_sturm,
                     refine_by_chain_count, squarefree_part, sturm_chain,
                     upoly_divmod, upoly_eval, upoly_trim)


def test_kappa_closed_forms():
    inv = lambda_mu_invariants(1, 1)
    assert (inv.kappa1, inv.kappa2) == (F(5, 4), F(5, 4))
    inv = lambda_mu_invariants(1, 2)
    assert (inv.kappa1, inv.kappa2) == (F(13, 9), F(31, 18))
    inv = lambda_mu_invariants(F(1, 2), F(3, 2))
    lam, mu = F(1, 2), F(3, 2)
    assert inv.kappa1 == (lam + 1) / 2 + lam * mu ** 2 / (lam + mu) ** 2
    assert inv.kappa2 == (mu + 1) / 2 + lam ** 2 * mu / (lam + mu) ** 2


def test_lambda_mu_equivalence_is_weight_equality():
    vals = [F(1, 2), F(1), F(2), F(3)]
    for l1, m1, l2, m2 in itertools.product(vals, repeat=4):
        want = (l1, m1) == (l2, m2)
        assert lambda_mu_equivalent(l1, m1, l2, m2) == want


# -- the Sturm route kept as the cubic's reference -----------------------------


def test_upoly_eval_horner():
    # 2 - x + 3x^2 at x = 1/2
    p = (F(2), F(-1), F(3))
    assert upoly_eval(p, F(1, 2)) == 2 - F(1, 2) + F(3, 4)


def test_squarefree_part():
    # (x - 1)^2 = 1 - 2x + x^2 -> x - 1 up to scaling
    p = (F(1), F(-2), F(1))
    sf = squarefree_part(p)
    assert upoly_eval(sf, F(1)) == 0
    assert len(sf) == 2


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def _upoly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(_rationals, max_size=8),
       st.lists(_rationals, min_size=1, max_size=5).filter(lambda b: b[-1]))
def test_upoly_divmod_is_long_division(a, b):
    a, b = tuple(a), tuple(b)
    q, r = upoly_divmod(a, b)
    assert len(r) < len(b)  # deg r < deg b, the zero remainder being ()
    qb = _upoly_mul(q, b) if q else []
    total = [x + y for x, y in itertools.zip_longest(qb, r, fillvalue=F(0))]
    assert upoly_trim(total) == upoly_trim(a)


def test_sturm_count_quadratic():
    # x^2 - 2: one root in (0, 2), one in (-2, 0)
    p = (F(-2), F(0), F(1))
    chain = sturm_chain(p)
    assert count_roots_between(chain, F(0), F(2)) == 1
    assert count_roots_between(chain, F(-2), F(0)) == 1
    assert count_roots_between(chain, F(3), F(5)) == 0


def test_sturm_rejects_root_endpoints():
    p = (F(-1), F(0), F(1))  # x^2 - 1
    chain = sturm_chain(p)
    with pytest.raises(DomainError):
        count_roots_between(chain, F(1), F(2))


# -- the cubic family ---------------------------------------------------------


def test_cubic_alpha_one_exact_root():
    cr = cubic_positive_roots(F(1))
    assert cr.positive_roots == 1
    assert cr.isolating_intervals == ((F(1), F(1)),)
    # x^3 - x^2 + x - 1 = (x - 1)(x^2 + 1)
    assert cr.coefficients == (F(-1), F(1), F(-1), F(1))


def test_cubic_unique_positive_root_grid():
    vals = [F(n, d) for n in range(1, 8) for d in (1, 2, 3)]
    for a in vals:
        cr = cubic_positive_roots(a)
        assert cr.positive_roots == 1, a
        assert len(cr.isolating_intervals) == 1
        lo, hi = cr.isolating_intervals[0]
        assert 0 <= lo <= hi
        p = cr.coefficients
        sf = squarefree_part(p)
        if lo == hi:
            assert upoly_eval(p, lo) == 0
        else:
            # sign change across a genuine isolating interval
            assert upoly_eval(sf, lo) * upoly_eval(sf, hi) < 0


def test_cubic_interval_brackets_root():
    cr = cubic_positive_roots(F(7, 3))
    lo, hi = cr.isolating_intervals[0]
    assert hi - lo <= F(1, 16)


def _agrees_with_sturm(alpha):
    return cubic_positive_roots(alpha) == cubic_positive_roots_by_sturm(alpha)


def test_refine_matches_chain_count_on_pooled_alphas(perfbench_jobs):
    alphas = {job.meta["alpha"]
              for job in perfbench_jobs.pool("task-mix").values()
              if job.task == "cubic" and job.valid}
    assert len(alphas) > 100
    assert [a for a in sorted(alphas) if not _agrees_with_sturm(F(a))] == []


def test_cubic_matches_sturm_route_on_a_grid():
    # the 3120 values n/d in (0, 4] with d < 40
    alphas = {F(n, d) for d in range(1, 40) for n in range(1, 4 * d + 1)}
    assert [a for a in sorted(alphas) if not _agrees_with_sturm(a)] == []


def test_cubic_matches_sturm_route_inside_the_two_sign_window():
    # 2/3 < a < 3/2 is where Descartes' rule leaves one or three positive
    # roots open; the discriminant is negative there too
    lo, hi = F(2, 3), F(3, 2)
    alphas = [lo + (hi - lo) * F(k, 600) for k in range(601)]
    alphas += [F(1) + F(s, 10 ** e) for e in range(1, 9) for s in (-1, 1)]
    for a in alphas:
        d, c, b, _ = cubic_positive_roots(a).coefficients
        disc = (18 * b * c * d - 4 * b ** 3 * d + b * b * c * c
                - 4 * c ** 3 - 27 * d * d)
        assert disc == -8 * (9 * a ** 4 + 2 * a ** 3 - 20 * a ** 2 + 2 * a + 9)
        assert disc < 0, a
        assert _agrees_with_sturm(a), a


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.integers(1, 60))
def test_refine_matches_chain_count_sweep(n, d):
    assert _agrees_with_sturm(F(n, d))


@settings(max_examples=100, deadline=None)
@given(_rationals, _rationals, _rationals, _rationals,
       st.integers(1, 3))
def test_refine_matches_chain_count_on_one_root_intervals(r, s, a, w, k):
    """_refine on (x - r)(x - s)^k, rational ends around r alone."""
    width = abs(w) + F(1, 7)
    a, b = r - width * F(1, 3) - abs(a) / 5, r + width
    assume(not a <= s <= b)
    p = [F(-r), F(1)]
    for _ in range(k):
        p = _upoly_mul(p, [F(-s), F(1)])
    p = tuple(x * F(3, 7) for x in p)
    chain = sturm_chain(squarefree_part(p))
    assert count_roots_between(chain, a, b) == 1
    assert invariants._refine(p, a, b) == refine_by_chain_count(chain, a, b)


def test_cubic_rejects_nonpositive_alpha():
    with pytest.raises(DomainError):
        cubic_positive_roots(F(0))
    with pytest.raises(DomainError):
        cubic_positive_roots(F(-2))


# -- rigidity deciders --------------------------------------------------------


def test_principal_rigidity_reference_cases():
    # (1,2) vs (2,1) at p=1: batteries (2, 2, 2) vs (1, 2, 3)
    assert principal_rigidity(1, 2, 1, 2, 1) is False
    # (3,1) vs (1,3) at p=1: batteries (1, 3, 6) vs (3, 3, 3)
    assert principal_rigidity(3, 1, 1, 1, 3) is False
    assert principal_rigidity(2, 3, 2, 2, 3) is True
    assert principal_rigidity(F(1, 2), F(5, 2), 3, F(1, 2), F(5, 2)) is True
    for lam, mu, lam2, mu2 in ((0, 1, 1, 1), (1, 1, 1, -2)):
        with pytest.raises(DomainError):
            principal_rigidity(lam, mu, 1, lam2, mu2)


def test_principal_rigidity_iff_equal_weights():
    vals = [F(1, 2), F(1), F(2)]
    for l1, m1, l2, m2 in itertools.product(vals, repeat=4):
        for p in (1, 2):
            want = (l1, m1) == (l2, m2)
            assert principal_rigidity(l1, m1, p, l2, m2) == want, \
                (l1, m1, p, l2, m2)


def test_polydisc_rigidity_iff_equal_weights():
    pool = [(F(1), F(2), F(1)), (F(2), F(1), F(1)), (F(1), F(1), F(2)),
            (F(1, 2), F(2), F(1)), (F(2), F(2), F(1))]
    for w1 in pool:
        for w2 in pool:
            got = polydisc_rigidity(w1, (1,), w2)
            assert got == (w1 == w2), (w1, w2)
    assert polydisc_rigidity((1, 2, 1), (1, 2), (1, 2, 1))
    assert not polydisc_rigidity((1, 2, 1), (1, 2), (1, 1, 2))


def test_rigidity_battery_closed_forms():
    # transverse log-curvatures recover the free-variable weights; the
    # un-logged norm Hessians recover weight * poch(lam_k, p)/p! products
    report = polydisc_rigidity_report((F(1), F(2), F(3)), (2,),
                                      (F(1), F(2), F(3)))
    battery = dict(report.battery_left)
    assert battery["transverse_log_curvature_w2"] == 2
    assert battery["transverse_log_curvature_w3"] == 3
    lam = F(1)
    i0_weight = F(2)  # first free variable
    assert battery["norm_hessian_gen1"] == i0_weight * lam * (lam + 1) / 2
    assert battery["norm_hessian_gen1_shifted"] == \
        i0_weight * lam * (lam + 1) * (lam + 2) / 6
    assert report.equivalent


def test_rigidity_battery_reads_the_generator_variables():
    # <z2^2> over weights (1, 3): w1 is free, so the transverse curvature is
    # l_1 = 1 and the norm Hessians are l_1 poch(3, 2)/2! = 6 and
    # l_1 poch(3, 3)/3! = 10
    report = polydisc_rigidity_report((1, 3), (2,), (1, 3), gen_vars=(1,))
    assert report.battery_left == (
        ("transverse_log_curvature_w1", 1), ("norm_hessian_gen1", 6),
        ("norm_hessian_gen1_shifted", 10))
    # <z3^2, z1> over (1, 2, 3): generators numbered in variable order, so
    # gen1 is z1 (2 poch(1, 1)/1!, shifted 2 poch(1, 2)/2!) and gen2 is
    # z3^2 (2 poch(3, 2)/2!, shifted 2 poch(3, 3)/3!)
    report = polydisc_rigidity_report((1, 2, 3), (2, 1), (1, 2, 3),
                                      gen_vars=(2, 0))
    assert report.battery_left == (
        ("transverse_log_curvature_w2", 2), ("norm_hessian_gen1", 2),
        ("norm_hessian_gen1_shifted", 2), ("norm_hessian_gen2", 12),
        ("norm_hessian_gen2_shifted", 20))
    # the default puts the generators on z1..zt
    assert polydisc_rigidity_report((3, 1), (2,), (3, 1)) == \
        polydisc_rigidity_report((3, 1), (2,), (3, 1), gen_vars=(0,))


@pytest.mark.parametrize("p", [F(3, 2), 1.9, "2", F(2)], ids=repr)
def test_rigidity_rejects_non_integer_exponents(p):
    """An exponent that is not an int is rejected, never truncated: 3/2
    and 1.9 once ran as p = 1, and "2" as p = 2."""
    with pytest.raises(DomainError):
        polydisc_rigidity_report((1, 2), (p,), (1, 2))
    with pytest.raises(DomainError):
        principal_rigidity(1, 2, p, 1, 2)


def test_rigidity_needs_transverse_direction():
    with pytest.raises(DomainError):
        polydisc_rigidity_report((1, 2), (1, 1), (1, 2))
