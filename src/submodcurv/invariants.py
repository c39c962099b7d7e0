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

from fractions import Fraction
from typing import NamedTuple

from .algebra import exponent, rat, rats
from .errors import DomainError, UnsupportedIdealError, WorkLimitError
from .rkhs import check_positive_weights, diag_coeff_rows


class LambdaMuInvariant(NamedTuple):
    """Determinant-bundle curvature diagonal of the coordinate ideal
    <z_1, z_2> over weights (lam, mu) on the bidisc, at the origin."""
    kappa1: Fraction
    kappa2: Fraction

    def as_pair(self):
        return (self.kappa1, self.kappa2)


def lambda_mu_invariants(lam, mu) -> LambdaMuInvariant:
    """kappa_1 = (lam + 1)/2 + lam mu^2/(lam + mu)^2 and kappa_2 =
    (mu + 1)/2 + lam^2 mu/(lam + mu)^2.  With lam = a/b, mu = c/d and
    s = ad + bc, kappa_1 = ((a + b) s^2 + 2 a b^2 c^2)/(2 b s^2) and
    kappa_2 = ((c + d) s^2 + 2 a^2 c d^2)/(2 d s^2), one Fraction each."""
    lam, mu = rat(lam), rat(mu)
    a, b, c, d = lam.numerator, lam.denominator, mu.numerator, mu.denominator
    if a <= 0 or c <= 0:
        raise DomainError(f"weights must be positive, got ({lam}, {mu})")
    s2 = (a * d + b * c) ** 2
    return LambdaMuInvariant(
        kappa1=Fraction((a + b) * s2 + 2 * a * b * b * c * c, 2 * b * s2),
        kappa2=Fraction((c + d) * s2 + 2 * a * a * c * d * d, 2 * d * s2),
    )


# ---------------------------------------------------------------------------
# The cubic family's positive root (coefficient tuples, ascending order)


# the most bits alpha's numerator and denominator may have together
CUBIC_ALPHA_BITS = 4096


class CubicReport(NamedTuple):
    alpha: Fraction
    coefficients: tuple          # ascending degree
    positive_roots: int
    isolating_intervals: tuple   # (lo, hi) pairs; lo == hi marks an exact root


def cubic_positive_roots(alpha) -> CubicReport:
    """Exact count and isolation of the positive roots of
    p = x^3 - (3a-2) x^2 - (2a-3) x - a for a rational parameter a > 0.

    The discriminant of p is -8 (9a^4 + 2a^3 - 20a^2 + 2a + 9), and with
    t = a + 1/a >= 2 the bracket is a^2 (9t^2 + 2t - 38) >= 2a^2 > 0.  So p
    is squarefree with one real root, which is positive because the
    product of the roots is a > 0: the count is 1.  Bisection isolates it
    on (0, B), B = 1 + max(a, |2a - 3|, |3a - 2|) the Cauchy bound of p,
    until the interval is no wider than 1/16, and stops at a midpoint that
    is the root.

    All of it runs in integers over the one denominator d of a = n/d: d p
    has the integer coefficients (-n, 3d - 2n, 2d - 3n, d), the ends are
    kept as lo/v and hi/v, and d p(u/v) v^3 has the sign of the integer
    ((d u + c_2 v) u + c_1 v^2) u + c_0 v^3.  p(0) = -a < 0, so the root
    lies left of a midpoint where that integer is positive.  Fractions are
    built for the reported coefficients and interval ends alone.

    The bisection's steps and integers grow with the bits of n and d, so
    an alpha with more than CUBIC_ALPHA_BITS of them together is refused
    before it starts (WorkLimitError): at that limit, with d = 1, it takes
    about 0.34 s (2-vCPU VM, Python 3.11.7), and the interval ends stay
    far below the digits str() writes."""
    a = rat(alpha)
    n, d = a.numerator, a.denominator
    if n <= 0:
        raise DomainError(f"the cubic family is parametrized by alpha > 0, got {a}")
    size = n.bit_length() + d.bit_length()
    if size > CUBIC_ALPHA_BITS:
        raise WorkLimitError(
            f"alpha has {size} bits in its numerator and denominator, past "
            f"the cubic's limit of {CUBIC_ALPHA_BITS}")
    c0, c1, c2 = -n, 3 * d - 2 * n, 2 * d - 3 * n
    lo, hi, v = 0, d + max(n, abs(c1), abs(c2)), d
    while (hi - lo) * 16 > v:
        mid, v = lo + hi, 2 * v  # the midpoint, over the doubled denominator
        vv = v * v
        value = ((d * mid + c2 * v) * mid + c1 * vv) * mid + c0 * vv * v
        if value == 0:
            interval = (Fraction(mid, v),) * 2
            break
        if value > 0:
            lo, hi = 2 * lo, mid
        else:
            lo, hi = mid, 2 * hi
    else:
        interval = (Fraction(lo, v), Fraction(hi, v))
    coeffs = (Fraction(c0, d), Fraction(c1, d), Fraction(c2, d), Fraction(1))
    return CubicReport(a, coeffs, 1, (interval,))


# ---------------------------------------------------------------------------
# Rigidity deciders


def principal_rigidity(lam, mu, p: int, lam2, mu2) -> bool:
    """Whether <z_1^p> over weights (lam, mu) and the same ideal over
    (lam2, mu2) are equivalent, decided on the curvature battery of
    polydisc_rigidity: the transverse curvature mu and the norm Hessians
    mu poch(lam, p)/p! and mu poch(lam, p+1)/(p+1)! of the frame and of its
    degree-shifted companion."""
    return polydisc_rigidity((lam, mu), (p,), (lam2, mu2))


class RigidityReport(NamedTuple):
    equivalent: bool
    battery_left: tuple    # ((name, Fraction), ...)
    battery_right: tuple
    invariants_used: tuple

    def __bool__(self):
        return self.equivalent


def _curvature_battery(weights, data):
    """Curvature invariants of the coordinate-power submodule generated by
    z_{v+1}^i, (v, i) in data (distinct v, sorted, i >= 1), over positive
    weights (Fractions) at the origin slice point.  There the frame metric
    is diagonal with
    H_kk = poch(l_{v_k}, i_k)/i_k! (a diag_coeff_rows entry) times
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
    gen_vars = {v for v, _ in data}
    free = [i for i in range(len(weights)) if i not in gen_vars]
    battery = [(f"transverse_log_curvature_w{i+1}", weights[i])
               for i in free]
    a, b = weights[free[0]].as_integer_ratio()  # l_{i0} = a / b
    rows = diag_coeff_rows([weights[v] for v, _ in data],
                           max(p for _, p in data) + 1)
    for k, ((v, p), (nums, dens)) in enumerate(zip(data, rows)):
        battery.append((f"norm_hessian_gen{k+1}",
                        Fraction(nums[p] * a, dens[p] * b)))
        battery.append((f"norm_hessian_gen{k+1}_shifted",
                        Fraction(nums[p + 1] * a, dens[p + 1] * b)))
    return tuple(battery)


def polydisc_rigidity_report(weights1, exponents, weights2,
                             gen_vars=None) -> RigidityReport:
    """Decide equivalence of the coordinate-power submodule over two weight
    vectors, through curvature invariants only.  exponents[k] is the power
    of the 0-based variable gen_vars[k] (default: variable k); generators
    are numbered in variable order.

    Requires one or more exponents, each >= 1, on distinct variables, and a
    free (transverse) variable: fewer exponents than variables.
    """
    w1 = rats(weights1)
    w2 = rats(weights2)
    m = len(w1)
    if len(w2) != m:
        raise DomainError("weight vectors must share the dimension")
    exponents = exponent(exponents)
    if len(exponents) >= m:
        raise DomainError(
            "the battery needs a transverse direction: fewer exponents "
            "than variables")
    if not exponents or min(exponents) < 1:
        raise DomainError(f"need one or more generator exponents, each >= 1, "
                          f"got {exponents}")
    gen_vars = tuple(range(len(exponents)) if gen_vars is None else gen_vars)
    if len(gen_vars) != len(exponents):
        raise DomainError(f"need one generator variable per exponent, got "
                          f"{len(gen_vars)} for {len(exponents)} exponents")
    if not all(isinstance(v, int) and 0 <= v < m for v in gen_vars):
        raise DomainError(f"generator variables must be integers in "
                          f"0..{m - 1}, got {gen_vars}")
    if len(set(gen_vars)) != len(gen_vars):
        raise UnsupportedIdealError(
            "two generators share a variable; the generating set is redundant")
    data = sorted(zip(gen_vars, exponents))
    check_positive_weights(w1)
    check_positive_weights(w2)
    left = _curvature_battery(w1, data)
    right = _curvature_battery(w2, data)
    names = tuple(name for name, _ in left)
    # the batteries share their names: equal exactly when their values are
    return RigidityReport(left == right, left, right, names)


def polydisc_rigidity(weights1, exponents, weights2) -> bool:
    return polydisc_rigidity_report(weights1, exponents, weights2).equivalent
