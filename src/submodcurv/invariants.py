"""Numerical invariants and rigidity decision procedures.

The two-weight coordinate ideal on the bidisc has determinant-bundle
curvature diagonal (kappa_1, kappa_2) in closed form; a one-parameter family
of such metrics leads to the cubic

    x^3 - (3a - 2) x^2 - (2a - 3) x - a = 0,

whose discriminant is negative for every a > 0: it has exactly one real
root, that root is positive, and it is isolated here by bisection with
exact integer sign tests.  The rigidity deciders compare submodules over
different weight vectors through curvature invariants computed by the frame
pipeline, never by comparing the weights directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import exponent, pochhammer, rat, unit
from .errors import DomainError
from .frames import coordinate_power_data
from .ideals import IdealSpec
from .rkhs import WeightedPolydiscModule


@dataclass(frozen=True)
class LambdaMuInvariant:
    """Determinant-bundle curvature diagonal of the coordinate ideal
    <z_1, z_2> over weights (lam, mu) on the bidisc, at the origin."""
    kappa1: Fraction
    kappa2: Fraction

    def as_pair(self):
        return (self.kappa1, self.kappa2)


def lambda_mu_invariants(lam, mu) -> LambdaMuInvariant:
    lam, mu = rat(lam), rat(mu)
    if lam <= 0 or mu <= 0:
        raise DomainError(f"weights must be positive, got ({lam}, {mu})")
    s2 = (lam + mu) ** 2
    return LambdaMuInvariant(
        kappa1=(lam + 1) / 2 + lam * mu ** 2 / s2,
        kappa2=(mu + 1) / 2 + lam ** 2 * mu / s2,
    )


def lambda_mu_equivalent(lam1, mu1, lam2, mu2) -> bool:
    """Whether the two weighted bidisc modules have matching coordinate-ideal
    curvature invariants (as an ordered pair)."""
    a = lambda_mu_invariants(lam1, mu1)
    b = lambda_mu_invariants(lam2, mu2)
    return a.as_pair() == b.as_pair()


# ---------------------------------------------------------------------------
# The cubic family's positive root (coefficient tuples, ascending order)


def cauchy_root_bound(p) -> Fraction:
    """1 + max |c_i / c_n|: every root of p lies strictly inside it."""
    lead = p[-1]
    return 1 + max((abs(c / lead) for c in p[:-1]), default=Fraction(0))


@dataclass(frozen=True)
class CubicReport:
    alpha: Fraction
    coefficients: tuple          # ascending degree
    positive_roots: int
    isolating_intervals: tuple   # (lo, hi) pairs; lo == hi marks an exact root


_REFINE_WIDTH = Fraction(1, 16)


def _refine(p, a: Fraction, b: Fraction):
    """Narrow a one-root interval below _REFINE_WIDTH, collapsing to a
    degenerate (r, r) pair when a bisection midpoint is an exact root.

    p has one root in (a, b), a simple one, and neither endpoint is a
    root, so the root lies in (a, mid) iff p changes sign there.  The
    sign at the left end never changes, since a only moves to a midpoint
    of the same sign.  Signs are read in integers: with p scaled to integer
    coefficients C_i and the endpoints kept as lo/v and hi/v, p(u/v) has
    the sign of sum_i C_i u^i v^(n-i)."""
    den = math.lcm(*(c.denominator for c in p))
    coeffs = [c.numerator * den // c.denominator for c in p]

    def sign_form(u, v):
        acc, vk = coeffs[-1], 1
        for c in reversed(coeffs[:-1]):
            vk *= v
            acc = acc * u + c * vk
        return acc

    v = math.lcm(a.denominator, b.denominator)
    lo, hi = a.numerator * v // a.denominator, b.numerator * v // b.denominator
    positive_at_a = sign_form(lo, v) > 0
    width_num, width_den = _REFINE_WIDTH.as_integer_ratio()
    while (hi - lo) * width_den > v * width_num:
        mid, v = lo + hi, 2 * v  # the midpoint, over the doubled denominator
        value = sign_form(mid, v)
        if value == 0:
            return (Fraction(mid, v),) * 2
        if (value > 0) != positive_at_a:
            lo, hi = 2 * lo, mid
        else:
            lo, hi = mid, 2 * hi
    return (Fraction(lo, v), Fraction(hi, v))


def cubic_positive_roots(alpha) -> CubicReport:
    """Exact count and isolation of the positive roots of
    p = x^3 - (3a-2) x^2 - (2a-3) x - a for a rational parameter a > 0.

    The discriminant of p is -8 (9a^4 + 2a^3 - 20a^2 + 2a + 9), and with
    t = a + 1/a >= 2 the bracket is a^2 (9t^2 + 2t - 38) >= 2a^2 > 0.  So p
    is squarefree with one real root, which is positive because the
    product of the roots is a > 0: the count is 1, and bisection on
    (0, Cauchy bound) isolates the root (p(0) = -a != 0)."""
    a = rat(alpha)
    if a <= 0:
        raise DomainError(f"the cubic family is parametrized by alpha > 0, got {a}")
    coeffs = (-a, -(2 * a - 3), -(3 * a - 2), Fraction(1))
    interval = _refine(coeffs, Fraction(0), cauchy_root_bound(coeffs))
    return CubicReport(a, coeffs, 1, (interval,))


# ---------------------------------------------------------------------------
# Rigidity deciders


def principal_rigidity(lam, mu, p: int, lam2, mu2) -> bool:
    """Whether <z_1^p> over weights (lam, mu) and the same ideal over
    (lam2, mu2) are equivalent, decided on the curvature battery of
    polydisc_rigidity: the transverse curvature mu and the norm Hessians
    mu poch(lam, p)/p! and mu poch(lam, p+1)/(p+1)! of the frame and of its
    degree-shifted companion."""
    if exponent((p,))[0] < 1:
        raise DomainError(f"need p >= 1, got {p}")
    return polydisc_rigidity((lam, mu), (p,), (lam2, mu2))


@dataclass(frozen=True)
class RigidityReport:
    equivalent: bool
    battery_left: tuple    # ((name, Fraction), ...)
    battery_right: tuple
    invariants_used: tuple

    def __bool__(self):
        return self.equivalent


def _curvature_battery(module: WeightedPolydiscModule, data):
    """Curvature invariants of the coordinate-power submodule generated by
    z_{v+1}^i, (v, i) in data, at the origin slice point.  There the frame
    metric is diagonal with H_kk = poch(l_{v_k}, i_k)/i_k! times
    prod_free (1 - |w_j|^2)^(-l_j), so every invariant is a closed form in
    the weights.

    transverse_k: mixed log-Hessian of ||F_1||^2 in each free direction,
                  l_k (recovers the transverse weights);
    pair_k:       un-logged mixed Hessian of ||F_k||^2 in the first free
                  direction, poch(l_{v_k}, i_k)/i_k! l_{i0}, for the ideal
                  and for the ideal with the k-th exponent raised by one
                  (the shifted companion scales by (l_k + i_k)/(i_k + 1),
                  pinning the k-th weight).
    """
    m = module.dim
    # the frame builder's checks on the generators, and its variable order
    data = coordinate_power_data(IdealSpec.monomial(
        m, [unit(m, v, p) for v, p in data]))
    weights = module.weights
    gen_vars = {v for v, _ in data}
    free = [i for i in range(m) if i not in gen_vars]
    battery = [(f"transverse_log_curvature_w{i+1}", weights[i])
               for i in free]
    l0 = weights[free[0]]
    for k, (v, p) in enumerate(data):
        for name, q in ((f"norm_hessian_gen{k+1}", p),
                        (f"norm_hessian_gen{k+1}_shifted", p + 1)):
            battery.append((name,
                            pochhammer(weights[v], q) / math.factorial(q) * l0))
    return tuple(battery)


def polydisc_rigidity_report(weights1, exponents, weights2,
                             gen_vars=None) -> RigidityReport:
    """Decide equivalence of the coordinate-power submodule over two weight
    vectors, through curvature invariants only.  exponents[k] is the power
    of the 0-based variable gen_vars[k] (default: variable k); generators
    are numbered in variable order.

    Requires at least one free (transverse) variable: the exponent list must
    be shorter than the dimension.
    """
    w1 = tuple(rat(x) for x in weights1)
    w2 = tuple(rat(x) for x in weights2)
    if len(w1) != len(w2):
        raise DomainError("weight vectors must share the dimension")
    exponents = exponent(exponents)
    if len(exponents) >= len(w1):
        raise DomainError(
            "the battery needs a transverse direction: fewer exponents "
            "than variables")
    gen_vars = range(len(exponents)) if gen_vars is None else gen_vars
    data = sorted(zip(gen_vars, exponents, strict=True))
    mod1 = WeightedPolydiscModule(len(w1), w1)
    mod2 = WeightedPolydiscModule(len(w2), w2)
    left = _curvature_battery(mod1, data)
    right = _curvature_battery(mod2, data)
    names = tuple(name for name, _ in left)
    equivalent = [v for _, v in left] == [v for _, v in right]
    return RigidityReport(equivalent, left, right, names)


def polydisc_rigidity(weights1, exponents, weights2) -> bool:
    return polydisc_rigidity_report(weights1, exponents, weights2).equivalent
