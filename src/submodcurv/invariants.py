"""Numerical invariants and rigidity decision procedures.

The two-weight coordinate ideal on the bidisc has determinant-bundle
curvature diagonal (kappa_1, kappa_2) in closed form; a one-parameter family
of such metrics leads to the cubic

    x^3 - (3a - 2) x^2 - (2a - 3) x - a = 0,

whose unique positive root is certified here by exact Sturm chains over the
rationals.  The rigidity deciders compare submodules over different weight
vectors through curvature invariants computed by the frame pipeline, never
by comparing the weights directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import MultiIndex, pochhammer, rat
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
# Exact univariate root counting (dense coefficient tuples, ascending order)


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def upoly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def upoly_deriv(p):
    return _trim(tuple(k * p[k] for k in range(1, len(p))))


def _upoly_divmod(a, b):
    """Quotient and remainder of a by b over the rationals."""
    a = list(a)
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    while len(a) >= len(b):
        f = a[-1] / lb
        shift = len(a) - 1 - db
        q[shift] = f
        for k in range(len(b)):
            a[shift + k] -= f * b[k]
        a.pop()
    return _trim(q), _trim(a)


def upoly_gcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _upoly_divmod(a, b)[1]
    if not a:
        return ()
    return tuple(c / a[-1] for c in a)  # monic


def squarefree_part(p):
    p = _trim(p)
    if len(p) <= 2:
        return p
    g = upoly_gcd(p, upoly_deriv(p))
    if len(g) <= 1:
        return p
    q, r = _upoly_divmod(p, g)
    if r:
        raise DomainError("inexact polynomial division")
    return q


def sturm_chain(p):
    """Canonical Sturm chain of a squarefree polynomial."""
    p = _trim(p)
    chain = [p, _trim(upoly_deriv(p))]
    while chain[-1] and len(chain[-1]) > 1:
        r = _upoly_divmod(chain[-2], chain[-1])[1]
        chain.append(tuple(-c for c in r))
        if not chain[-1]:
            chain.pop()
            break
    return [c for c in chain if c]


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def variations_at(chain, x: Fraction) -> int:
    return _sign_variations([upoly_eval(c, x) for c in chain])


def count_roots_between(chain, a: Fraction, b: Fraction) -> int:
    """Distinct real roots in the open interval (a, b); the endpoints must
    not be roots of the chain's first polynomial."""
    p = chain[0]
    if upoly_eval(p, a) == 0 or upoly_eval(p, b) == 0:
        raise DomainError("Sturm endpoints must not be roots")
    return variations_at(chain, a) - variations_at(chain, b)


def cauchy_root_bound(p) -> Fraction:
    p = _trim(p)
    lead = p[-1]
    return 1 + max((abs(c / lead) for c in p[:-1]), default=Fraction(0))


@dataclass(frozen=True)
class CubicReport:
    alpha: Fraction
    coefficients: tuple          # ascending degree
    positive_roots: int
    isolating_intervals: tuple   # (lo, hi) pairs; lo == hi marks an exact root


_REFINE_WIDTH = Fraction(1, 16)


def _refine(chain, a: Fraction, b: Fraction):
    """Narrow a one-root interval below _REFINE_WIDTH, collapsing to a
    degenerate (r, r) pair when a bisection midpoint is an exact root.

    chain[0] is squarefree and neither endpoint is a root, so the one root
    in (a, b) is simple: it lies in (a, mid) iff p changes sign there.  The
    sign at the left end never changes, since a only moves to a midpoint
    of the same sign."""
    p = chain[0]
    positive_at_a = upoly_eval(p, a) > 0
    while b - a > _REFINE_WIDTH:
        mid = (a + b) / 2
        value = upoly_eval(p, mid)
        if value == 0:
            return (mid, mid)
        if (value > 0) != positive_at_a:
            b = mid
        else:
            a = mid
    return (a, b)


def _isolate(chain, a: Fraction, b: Fraction, out):
    """Split (a, b) until each piece holds exactly one root of chain[0]."""
    n = count_roots_between(chain, a, b)
    if n == 0:
        return
    if n == 1:
        out.append(_refine(chain, a, b))
        return
    p = chain[0]
    mid = (a + b) / 2
    if upoly_eval(p, mid) == 0:
        # an exact rational root: record it and recurse on a punctured
        # window whose radius shrinks until it separates mid from the rest
        out.append((mid, mid))
        eps = (b - a) / 16
        while (upoly_eval(p, mid - eps) == 0 or upoly_eval(p, mid + eps) == 0
               or count_roots_between(chain, mid - eps, mid + eps) != 1):
            eps /= 2
        _isolate(chain, a, mid - eps, out)
        _isolate(chain, mid + eps, b, out)
        return
    _isolate(chain, a, mid, out)
    _isolate(chain, mid, b, out)


def cubic_positive_roots(alpha) -> CubicReport:
    """Exact count and isolation of the positive roots of
    x^3 - (3a-2) x^2 - (2a-3) x - a for a rational parameter a > 0."""
    a = rat(alpha)
    if a <= 0:
        raise DomainError(f"the cubic family is parametrized by alpha > 0, got {a}")
    coeffs = (-a, -(2 * a - 3), -(3 * a - 2), Fraction(1))
    sf = squarefree_part(coeffs)
    chain = sturm_chain(sf)
    bound = cauchy_root_bound(sf)
    # p(0) = -a != 0 and the Cauchy bound is strict, so endpoints are safe
    count = count_roots_between(chain, Fraction(0), bound)
    intervals = []
    _isolate(chain, Fraction(0), bound, intervals)
    intervals.sort()
    return CubicReport(a, coeffs, count, tuple(intervals))


# ---------------------------------------------------------------------------
# Rigidity deciders


def principal_rigidity(lam, mu, p: int, lam2, mu2) -> bool:
    """Whether <z_1^p> over weights (lam, mu) and the same ideal over
    (lam2, mu2) are equivalent, decided on the curvature battery of
    polydisc_rigidity: the transverse curvature mu and the norm Hessians
    mu poch(lam, p)/p! and mu poch(lam, p+1)/(p+1)! of the frame and of its
    degree-shifted companion."""
    if p < 1:
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
        m, [MultiIndex.unit(m, v, p) for v, p in data]))
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
    exponents = tuple(int(e) for e in exponents)
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
