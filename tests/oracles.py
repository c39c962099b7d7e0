"""Independent oracles and helpers that only the tests use.

The library computes every invariant in exact rational arithmetic.  The
floating-point finite-difference oracles here check it from outside: they
evaluate the frame norms and the coordinate Grammian determinant directly
in floats and difference them, with no truncated-series arithmetic.  The
exact helpers (series exponential, series matrix product and identity,
rational identity matrix, Sylvester's criterion, a frame vector frozen at
its base point, the geometric sum) build fixtures and references for the
unit tests.  The reconstruction residual by full series products and the
Horner expansion of a recentered inverse power are the references for the
library's share-sum residual and coefficient-table metric.  The routes the
integer fast paths replaced stay here as their references: the localization
dimension by two Fraction echelon forms, the cubic's positive roots by a
squarefree part, a Sturm chain and chain-count bisection, and the
coordinate Grammian and curvature blocks with Fraction splitting shares.
So do the input routes that term maps and integers replaced: the
polynomial parse by Poly arithmetic from the constant 1, the centring of a
generator by evaluating it at the polynomials z_i + w_i, the config parse
by configparser and the rational parse by Fraction(str); the Hermitian
check as a loop over each pair's coefficients, which the Grammian builders
meet by construction; and Gauss-Jordan elimination over Fraction, the
nullspace reference.  The kernel routes are here
too: the remainder bound, the integer-weight ambient kernel
(ambient_kernel_exact, public until no kernel called it) and the monomial
closed form in Fractions, the rank-one correction with all four ambient
evaluations, and the Gram complement from the full table of c_a; with
them the monomial inner product that the Gram-form tests build Gram
matrices from.
"""

from __future__ import annotations

import configparser
import functools
import math
from fractions import Fraction
from typing import Callable

from submodcurv.algebra import (SeriesMatrix, TruncSeries, cofactor_det,
                                eval_terms, iter_multiindices, pochhammer,
                                rat)
from submodcurv.cli import (FLAG_LABELS, POINT_TASKS, SCHEMA, TASKS,
                            JobConfig, _check_fields, _parse_vector)
from submodcurv.errors import DomainError, InputError, ShapeError
from submodcurv.frames import FrameSeries, coordinate_power_data
from submodcurv.ideals import GENERAL, IdealSpec, LocalizationResult
from submodcurv.invariants import (_REFINE_WIDTH, CubicReport,
                                   cauchy_root_bound)
from submodcurv.linalg import RowEchelon, leading_principal_minors
from submodcurv.polynomials import Poly, _Tokenizer
from submodcurv.rkhs import (DiagonalFilteredKernel, RankOneCorrectedKernel,
                             WeightedPolydiscModule, _check_point,
                             _components, ambient_kernel_bounded, diag_coeff,
                             diag_coeff_slots)


# ---------------------------------------------------------------------------
# Exact helpers


def series_exp(s: TruncSeries) -> TruncSeries:
    """Exponential of a series with zero constant term (so the result is
    rational), via the truncated factorial sum."""
    if s.constant_term() != 0:
        raise DomainError("series_exp needs zero constant term for exactness")
    D = s.trunc
    acc = TruncSeries.constant(s.npairs, D, Fraction(1, math.factorial(D)))
    for k in range(D - 1, -1, -1):
        acc = TruncSeries.constant(s.npairs, D,
                                   Fraction(1, math.factorial(k))) + s * acc
    return acc


def geometric_sum(q: TruncSeries) -> TruncSeries:
    """1/(1 - q) for q of positive order: the sum of q^k for k <= q.trunc,
    which is exact through the truncation degree."""
    if q.constant_term() != 0:
        raise DomainError("geometric_sum needs a series of positive order")
    term = acc = TruncSeries.one(q.npairs, q.trunc)
    for _ in range(q.trunc):
        term = term * q
        acc = acc + term
    return acc


def series_identity(n: int, npairs: int, trunc: int) -> SeriesMatrix:
    return SeriesMatrix(
        [[TruncSeries.one(npairs, trunc) if i == j
          else TruncSeries.zero(npairs, trunc) for j in range(n)]
         for i in range(n)])


def series_matmul(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    """Product of two square series matrices of the same size."""
    if a.n != b.n:
        raise ShapeError("matrix shape mismatch")
    n = a.n
    zero = TruncSeries.zero(a.npairs, a.trunc)
    return SeriesMatrix(
        [[sum((a[i, k] * b[k, j] for k in range(n)), zero)
          for j in range(n)] for i in range(n)])


def mat_identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def is_positive_definite(A) -> bool:
    """Sylvester's criterion on a matrix assumed (real) symmetric."""
    return all(d > 0 for d in leading_principal_minors(A))


def monomial_norm_sq(module: WeightedPolydiscModule, alpha) -> Fraction:
    """||z^alpha||^2 = 1 / diag_coeff(alpha)."""
    return 1 / diag_coeff(module, alpha)


def poly_inner(module: WeightedPolydiscModule, p: Poly, q: Poly) -> Fraction:
    """Inner product <p, q> via monomial orthogonality.

    Coefficients are real rationals, so no conjugation shows up.
    """
    if p.nvars != module.dim or q.nvars != module.dim:
        raise ShapeError("polynomial arity does not match the module dimension")
    if len(p.coeffs) > len(q.coeffs):
        p, q = q, p
    total = Fraction(0)
    for k, v in p.coeffs.items():
        u = q.coeffs.get(k)
        if u is not None:
            total += v * u / diag_coeff(module, k)
    return total


def full_reconstruction_residual(frame: FrameSeries) -> dict:
    """The reconstruction residual by full series products: per kernel term
    alpha, sum_k ub_v^p F^k[alpha] minus c_alpha P(alpha), read from the
    frame vectors and the frame's table of recentered conjugate monomials.
    The same contract as frames.reconstruction_residual: only the nonzero
    residual series are returned."""
    m = frame.module.dim
    D = frame.trunc
    # conj(p_k)(base + u) = ub_v^p since the base vanishes there
    pbar = [TruncSeries.wbar(m, D, v, p)
            for v, p in zip(frame.gen_vars, frame.gen_powers)]
    vectors = frame.vectors
    residuals = {}
    for alpha, monomial in frame.recentered_monomials.items():
        if not any(alpha[v] >= p
                   for v, p in zip(frame.gen_vars, frame.gen_powers)):
            continue
        lhs = TruncSeries.zero(m, D)
        for k in range(frame.count):
            fk = vectors[k].get(alpha)
            if fk is not None:
                lhs = lhs + pbar[k] * fk
        diff = lhs - monomial.scale(diag_coeff(frame.module, alpha))
        if not diff.is_zero():
            residuals[alpha] = diff
    return residuals


def recentered_inverse_power(m, trunc, slot, center, weight) -> TruncSeries:
    """(1 - w w_bar)^(-weight) recentered at a real rational center,
    normalized by its value there, by Horner's scheme: the series of
    (1 - v)^(-weight) with v = (c*u + c*ub + u*ub) / (1 - c^2)."""
    c = Fraction(center)
    u = TruncSeries.w(m, trunc, slot)
    ub = TruncSeries.wbar(m, trunc, slot)
    v = (u.scale(c) + ub.scale(c) + u * ub).scale(1 / (1 - c * c))
    acc = TruncSeries.constant(m, trunc, pochhammer(weight, trunc)
                               / math.factorial(trunc))
    for n in range(trunc - 1, -1, -1):
        acc = TruncSeries.constant(m, trunc,
                                   pochhammer(weight, n) / math.factorial(n)) \
            + v * acc
    return acc


def frame_vector_at_base(frame: FrameSeries, k: int) -> dict:
    """z-exponent -> Fraction coefficient of F^k frozen at the base point."""
    out = {}
    for a, s in frame.vectors[k].items():
        c = s.constant_term()
        if c != 0:
            out[a] = c
    return out


# ---------------------------------------------------------------------------
# Replaced exact routes: the references for the integer fast paths


def metric_by_fraction_shares(frame: FrameSeries) -> SeriesMatrix:
    """The coordinate-neighborhood Grammian that
    frames._metric_by_monomial_sum replaced: the same sum over the kernel
    terms with each share l_k a_k / sum_j l_j a_j a Fraction of the
    weights, c_a a product of Fractions, and every term s_i s_j c_a
    multiplied out in Fractions; the keys go in in the same order."""
    module = frame.module
    m = module.dim
    weights = module.weights
    terms = [[{} for _ in range(m)] for _ in range(m)]
    top = frame.trunc // 2 + 1
    slots = diag_coeff_slots(module, top)
    for a in iter_multiindices(m, top):
        support = [k for k in range(m) if a[k]]
        denom = sum(weights[k] * a[k] for k in support)
        c = math.prod(slots[k][a[k]] for k in support)
        shares = {k: weights[k] * a[k] / denom for k in support}
        downs = {k: tuple(e - (q == k) for q, e in enumerate(a))
                 for k in support}
        for x, i in enumerate(support):
            ci = shares[i] * c
            for j in support[x:]:
                v = ci * shares[j]
                terms[i][j][downs[i] + downs[j]] = v
                terms[j][i][downs[j] + downs[i]] = v
    return SeriesMatrix([[TruncSeries._trusted(m, frame.trunc, t)
                          for t in row] for row in terms])


def coordinate_tensor_by_fraction_shares(frame: FrameSeries) -> tuple:
    """The coordinate blocks that curvature.curvature_tensor replaced:
    block (k, q) has entry (i, j) s_i(a) s_j(a) c_a / l_i for
    a = e_i + e_k = e_j + e_q, with Fraction shares and weights, and 0
    where no such a exists."""
    module = frame.module
    m = module.dim
    t = frame.count
    weights = module.weights
    blocks = [[[[Fraction(0)] * t for _ in range(t)] for _ in range(m)]
              for _ in range(m)]
    slots = diag_coeff_slots(module, 2)
    for a in iter_multiindices(m, 2, 2):
        support = [k for k in range(m) if a[k]]
        denom = sum(weights[k] * a[k] for k in support)
        c = math.prod(slots[k][a[k]] for k in support)
        pairs = [(i, next(k for k in support if a[k] - (k == i)),
                  weights[i] * a[i] / denom) for i in support]
        for i, k, si in pairs:
            for j, q, sj in pairs:
                blocks[k][q][i][j] = si * sj * c / weights[i]
    return tuple(tuple(tuple(tuple(row) for row in block) for block in brow)
                 for brow in blocks)


def diagonal_tail_bound_by_fractions(total_weight: Fraction, rho: Fraction,
                                     N: int) -> Fraction:
    """The remainder bound that rkhs._diagonal_tail_bound writes in
    integers, in Fractions: exact terms poch(L, n)/n! rho^n are summed while
    the ratio rho (L + n)/(n + 1) is at least 1, and the tail closes as a
    geometric series in the largest ratio still to come, which is the
    current one for L >= 1 (the ratios fall) and rho for L < 1 (they rise
    toward rho)."""
    if rho == 0:
        return Fraction(0)
    if not 0 < rho < 1:
        raise DomainError(f"tail bound needs 0 <= rho < 1, got {rho}")
    n = N + 1
    term = pochhammer(total_weight, n) / math.factorial(n) * rho ** n
    if total_weight < 1:
        return term / (1 - rho)
    total = Fraction(0)
    while True:
        ratio = rho * (total_weight + n) / (n + 1)
        if ratio < 1:
            return total + term / (1 - ratio)
        total += term
        term *= ratio
        n += 1


def ambient_kernel_exact(module: WeightedPolydiscModule, z, w) -> Fraction:
    """prod (1 - z_i w_i)^(-l_i) at real rational points, integer weights
    only, as a product of Fraction powers: the reference for the integer
    closed form rkhs._ambient_exact."""
    z = _check_point(module, z, "z")
    w = _check_point(module, w, "w")
    if not module.has_integer_weights():
        raise DomainError("closed-form ambient kernel needs integer weights")
    out = Fraction(1)
    for l, zi, wi in zip(module.weights, z, w):
        out *= (1 - zi * wi) ** (-int(l))
    return out


def filtered_kernel_by_corner_loop(kernel: DiagonalFilteredKernel, z,
                                   w) -> Fraction:
    """DiagonalFilteredKernel.eval_exact one corner at a time: for every
    corner and slot, the head sum_{a < g} poch(l, a)/a! x^a by the ratio
    recurrence in Fractions, subtracted from (1 - x)^(-l)."""
    x = [rat(zi) * rat(wi) for zi, wi in zip(z, w)]
    total = Fraction(0)
    for gamma, sign in kernel.corners:
        term = Fraction(1)
        for l, xi, g in zip(kernel.module.weights, x, gamma):
            head, c = Fraction(0), Fraction(1)
            for a in range(g):
                head += c
                c = c * (l + a) * xi / (a + 1)
            term *= (1 - xi) ** (-int(l)) - head
        total += sign * term
    return total


def rank_one_by_four_calls(kernel: RankOneCorrectedKernel, z, w, N=None):
    """K(z, w) - K(z, a) K(a, w) / K(a, a) with four ambient evaluations,
    all made: the closed form when N is None, else the Bounded degree-N
    sums."""
    module, a = kernel.module, kernel.point
    z, w = tuple(map(rat, z)), tuple(map(rat, w))
    if N is None:
        def K(x, y):
            return ambient_kernel_exact(module, x, y)
    else:
        def K(x, y):
            return ambient_kernel_bounded(module, x, y, N)
    return K(z, w) - K(z, a) * K(a, w) / K(a, a)


def gram_complement_by_full_table(module: WeightedPolydiscModule,
                                  ideal: IdealSpec, degree: int) -> tuple:
    """(complement, gram) as GramFormKernel.from_ideal built them with c_a
    tabulated, as a product of Fractions, for every monomial of degree
    <= N: the same components, echelon forms and null vectors, then
    f = c g and H_jk = sum_a f_j[a] g_k[a] inside a component."""
    m = module.dim
    monomials = list(iter_multiindices(m, degree))
    index = {a: k for k, a in enumerate(monomials)}
    rows = [{index[k]: v for k, v in g.shift_by_monomial(beta).coeffs.items()}
            for g in ideal.generators
            for beta in iter_multiindices(m, degree - g.degree)]
    echelon_of = {k: e for cols in _components(len(monomials), rows)
                  for e in [RowEchelon()] for k in cols}
    for row in rows:
        echelon_of[next(iter(row))].add(row)
    slots = diag_coeff_slots(module, degree)
    coeff = [math.prod(row[e] for row, e in zip(slots, a)) for a in monomials]
    free = [k for k in range(len(monomials)) if k not in echelon_of[k].rows]
    nulls = [echelon_of[k].null_vector(k) for k in free]
    fs = [{k: coeff[k] * x for k, x in g.items()} for g in nulls]
    complement = [Poly(m, {monomials[k]: x for k, x in f.items()})
                  for f in fs]
    n = len(nulls)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for j, fj in enumerate(fs):
        for k, gk in enumerate(nulls[j:], j):
            if echelon_of[free[k]] is echelon_of[free[j]]:
                gram[j][k] = gram[k][j] = sum(
                    x * gk[a] for a, x in fj.items() if a in gk)
    return complement, gram


def parse_poly_by_poly_arithmetic(text: str, nvars: int) -> Poly:
    """The parse that polynomials.parse_poly replaced, on the same grammar
    and tokenizer: every atom is built through Poly.constant or
    Poly.variable, a leading sign multiplies the first term by -1 or 1,
    and a power multiplies up from the constant 1."""
    tk = _Tokenizer(text, nvars)

    def power(base: Poly, n: int) -> Poly:
        out = Poly.constant(nvars, 1)
        for _ in range(n):
            out = out * base
        return out

    def parse_expr() -> Poly:
        sign = 1
        c = tk.peek()
        if c in "+-":
            tk.pos += 1
            sign = -1 if c == "-" else 1
        out = parse_term() * sign
        while True:
            c = tk.peek()
            if c == "+":
                tk.pos += 1
                out = out + parse_term()
            elif c == "-":
                tk.pos += 1
                out = out - parse_term()
            else:
                return out

    def parse_term() -> Poly:
        out = parse_factor()
        while True:
            c = tk.peek()
            if c == "*":
                tk.pos += 1
                out = out * parse_factor()
            elif c.isdigit() or c == "z" or c == "(":
                out = out * parse_factor()
            else:
                return out

    def parse_factor() -> Poly:
        base = parse_atom()
        c = tk.peek()
        if c == "^":
            tk.pos += 1
            return power(base, tk.take_int())
        if c == "*" and tk.text[tk.pos:tk.pos + 2] == "**":
            tk.pos += 2
            return power(base, tk.take_int())
        return base

    def parse_atom() -> Poly:
        c = tk.peek()
        if c == "(":
            tk.pos += 1
            inner = parse_expr()
            if tk.peek() != ")":
                raise tk.error("expected ')'")
            tk.pos += 1
            return inner
        if c.isdigit():
            return Poly.constant(nvars, tk.take_number())
        if c == "z":
            tk.pos += 1
            start = tk.pos
            while tk.pos < len(tk.text) and tk.text[tk.pos].isdigit():
                tk.pos += 1
            if start == tk.pos:
                raise tk.error("expected a variable index after 'z'")
            idx = int(tk.text[start:tk.pos])
            if not 1 <= idx <= nvars:
                raise InputError(
                    f"variable z{idx} out of range for {nvars} variables",
                    column=start)
            return Poly.variable(nvars, idx - 1)
        if c == "":
            raise tk.error("unexpected end of input")
        raise tk.error(f"unexpected character {c!r}")

    result = parse_expr()
    if tk.peek() != "":
        raise tk.error(f"trailing input {tk.text[tk.pos:]!r}")
    return result


def centre_by_eval_terms(g: Poly, point) -> Poly:
    """The centring that ideals.localization_dim replaced: g(w + x), by
    evaluating g's terms at the polynomials x_i + w_i with Poly products
    (Poly.zero + keeps a constant generator a Poly)."""
    m = g.nvars
    xs = [Poly.variable(m, i) + rat(w) for i, w in enumerate(point)]
    return Poly.zero(m) + eval_terms(g.coeffs, xs)


def parse_rational_by_fraction_str(text: str, fieldname: str) -> Fraction:
    """The rational parse that cli._parse_rational's integer path
    replaced: every spelling through Fraction(str)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"not a rational number: {text.strip()!r} ({e})",
                         field=fieldname)


@functools.cache
def _config_reader() -> configparser.ConfigParser:
    """The config reader, built on the first parse_config call and reused
    by every later one: building one costs more than a job's read."""
    # ';' separates points, so only '#' opens an inline comment; a line
    # that starts with ';' is still a comment.  Values are read verbatim:
    # with interpolation a '%' would raise while the value is read
    return configparser.ConfigParser(inline_comment_prefixes=("#",),
                                     interpolation=None)


def parse_config_by_configparser(text: str, args=None) -> JobConfig:
    """The parse_config that cli's line reader replaced: the same schema
    checks over configparser's read of the text.

    Every call empties and reuses the process's one config reader, so
    calls must not run in concurrent threads.
    """
    cp = _config_reader()
    # clear() keeps [DEFAULT]; emptying first also drops what a read that
    # raised part-way left behind
    cp.clear()
    cp.defaults().clear()
    try:
        cp.read_string(text)
    except configparser.ParsingError as e:
        line = e.errors[0][0] if getattr(e, "errors", None) else None
        raise InputError(f"config syntax: {e.message.splitlines()[0]}",
                         line=line)
    except configparser.Error as e:
        raise InputError(f"config syntax: {e}")

    for section in cp.sections():
        if section not in SCHEMA:
            raise InputError(f"unknown section [{section}]", field=section)

    fields = {}
    for section, parsers in SCHEMA.items():
        # each section read once: its own keys first, then [DEFAULT]'s
        vals = dict(cp.items(section)) if cp.has_section(section) else {}
        sec = {k: vals[k] for k in cp.options(section)} if vals else {}
        for key in sec:
            if key not in parsers:
                raise InputError(f"unknown key {key!r} in [{section}]",
                                 field=key)
        for key, at in (("generators", "ideal"), ("family", "ideal.family")):
            if "catalogue" in sec and key in sec:
                raise InputError(f"give either {key} or a catalogue name, "
                                 "not both", field=at)
        fields.update((key, parse(sec[key], f"{section}.{key}"))
                      for key, parse in parsers.items() if key in sec)
        if ("dimension" in fields) != ("weights" in fields):
            raise InputError("[module] needs both dimension and weights",
                             field="module")
        if len(fields.get("weights", ())) != fields.get("dimension", 0):
            raise InputError(
                f"got {len(fields['weights'])} weights for dimension "
                f"{fields['dimension']}", field="module.weights")

    task = fields.pop("name", None)
    if task is None:
        raise InputError("missing task name ([task] name = ...)",
                         field="task.name")
    if task not in TASKS:
        raise InputError(f"unknown task {task!r}; choose from "
                         f"{', '.join(TASKS)}", field="task.name")
    labels = {key: f"task.{key}" for key in SCHEMA["task"]}
    if args is not None:
        task = args.task
        flags = {"output": args.output, "trunc_degree": args.trunc_degree,
                 "ideal_degree": args.ideal_degree}
        if args.point is not None:
            if task not in POINT_TASKS:
                raise InputError(
                    f"task {task!r} reads no points; --point applies "
                    f"only to the {' and '.join(POINT_TASKS)} tasks",
                    field="--point")
            flags["points"] = (_parse_vector(args.point, "--point"),)
        for key, value in flags.items():
            if value is not None:
                fields[key] = value
                labels[key] = FLAG_LABELS[key]
    _check_fields(fields, labels)
    return JobConfig(task=task, **fields)


def is_hermitian_by_pair_loop(matrix: SeriesMatrix) -> bool:
    """Whether entry (i, j) of a series matrix is the conjugate of entry
    (j, i): a length test, then each coefficient of (j, i) looked up at the
    key-swapped monomial of (i, j).  Both Grammian builders write H_ji as
    the key-swapped H_ij, so frames.grammian does not check it."""
    m = matrix.npairs
    for i in range(matrix.n):
        for j in range(i, matrix.n):
            a = matrix.entries[i][j].coeffs
            b = matrix.entries[j][i].coeffs
            if len(a) != len(b) or any(a.get(k[m:] + k[:m]) != v
                                       for k, v in b.items()):
                return False
    return True


def _rref(M):
    """Reduced row echelon form over Fraction, the Gauss-Jordan elimination
    that linalg's solves and inverses used before its one pivoting
    Bareiss sweep; returns (rref, pivot columns)."""
    R = [row[:] for row in M]
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if R[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        R[row], R[piv] = R[piv], R[row]
        inv = Fraction(1) / R[row][col]
        R[row] = [x * inv for x in R[row]]
        for r in range(nrows):
            if r != row and R[r][col] != 0:
                f = R[r][col]
                R[r] = [a - f * b for a, b in zip(R[r], R[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return R, pivots


class FractionRowEchelon:
    """The Fraction echelon form that linalg.RowEchelon replaced: every kept
    row is scaled so that its smallest column holds 1, and a new row is
    reduced by the rows leading at its successive smallest columns."""

    def __init__(self):
        self.rows = {}  # leading column -> row

    def add(self, row) -> bool:
        r = {c: Fraction(x) for c, x in row.items() if x}
        while r:
            lead = min(r)
            pivot_row = self.rows.get(lead)
            if pivot_row is None:
                inv = 1 / r[lead]
                self.rows[lead] = {c: x * inv for c, x in r.items()}
                return True
            f = r[lead]
            for c, x in pivot_row.items():
                rest = r.get(c, 0) - f * x
                if rest:
                    r[c] = rest
                else:
                    del r[c]
        return False


def localization_dim_two_spans(ideal: IdealSpec, point,
                               max_degree: int = 8) -> LocalizationResult:
    """The localization route that ideals.localization_dim replaced: every
    multiple x^beta q_j goes into J_N, those with |beta| >= 1 also into
    J'_N, two Fraction echelon forms keyed by exponent tuples, and
    d_N = rank J_N - rank J'_N, with the same checks and stopping rule."""
    m = ideal.nvars
    w = [rat(x) for x in point]
    if len(w) != m:
        raise DomainError(
            f"point has arity {len(w)}, ideal lives in {m} variables")
    dmax = ideal.max_degree
    if max_degree < dmax + 1:
        raise DomainError(
            f"max_degree {max_degree} too small; need at least {dmax + 1}")
    centred = [(g.degree, centre_by_eval_terms(g, w))
               for g in ideal.generators]
    j_span, jp_span = FractionRowEchelon(), FractionRowEchelon()
    dims = []
    stabilized_at = None
    for N in range(dmax, max_degree + 1):
        for dg, q in centred:
            low = N - dg if N > dmax else 0
            for beta in iter_multiindices(m, N - dg, low):
                row = q.shift_by_monomial(beta).coeffs
                j_span.add(row)
                if any(beta):
                    jp_span.add(row)
        dims.append((N, len(j_span.rows) - len(jp_span.rows)))
        if len(dims) >= 2 and dims[-1][1] == dims[-2][1]:
            stabilized_at = N
            break
    return LocalizationResult(dims[-1][1], stabilized_at, tuple(dims),
                              conditional=(ideal.family == GENERAL))


# Univariate polynomials are dense coefficient tuples, ascending order.


def upoly_trim(p):
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
    return upoly_trim(tuple(k * p[k] for k in range(1, len(p))))


def upoly_divmod(a, b):
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
    return upoly_trim(q), upoly_trim(a)


def upoly_gcd(a, b):
    a, b = upoly_trim(a), upoly_trim(b)
    while b:
        a, b = b, upoly_divmod(a, b)[1]
    if not a:
        return ()
    return tuple(c / a[-1] for c in a)  # monic


def squarefree_part(p):
    p = upoly_trim(p)
    if len(p) <= 2:
        return p
    g = upoly_gcd(p, upoly_deriv(p))
    if len(g) <= 1:
        return p
    q, r = upoly_divmod(p, g)
    if r:
        raise DomainError("inexact polynomial division")
    return q


def sturm_chain(p):
    """Canonical Sturm chain of a squarefree polynomial."""
    p = upoly_trim(p)
    chain = [p, upoly_trim(upoly_deriv(p))]
    while chain[-1] and len(chain[-1]) > 1:
        r = upoly_divmod(chain[-2], chain[-1])[1]
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


def refine_by_chain_count(chain, a, b):
    """The bisection that counts Sturm-chain sign variations on (a, mid) at
    every step, in Fractions."""
    p = chain[0]
    while b - a > _REFINE_WIDTH:
        mid = (a + b) / 2
        if upoly_eval(p, mid) == 0:
            return (mid, mid)
        if count_roots_between(chain, a, mid) == 1:
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
        out.append(refine_by_chain_count(chain, a, b))
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


def cubic_positive_roots_by_sturm(alpha) -> CubicReport:
    """The cubic route that invariants.cubic_positive_roots replaced: the
    squarefree part, its Sturm chain, the root count on (0, Cauchy bound)
    and isolation by chain counts, for any alpha > 0."""
    a = rat(alpha)
    if a <= 0:
        raise DomainError(
            f"the cubic family is parametrized by alpha > 0, got {a}")
    coeffs = (-a, -(2 * a - 3), -(3 * a - 2), Fraction(1))
    sf = squarefree_part(coeffs)
    chain = sturm_chain(sf)
    bound = cauchy_root_bound(sf)
    count = count_roots_between(chain, Fraction(0), bound)
    intervals = []
    _isolate(chain, Fraction(0), bound, intervals)
    intervals.sort()
    return CubicReport(a, coeffs, count, tuple(intervals))


# ---------------------------------------------------------------------------
# Floating-point finite-difference oracle


def fd_mixed_hessian(f: Callable, point, i: int, j: int, h: float = 1e-3):
    """Central finite-difference estimate of d_i dbar_j f at a point.

    f maps a tuple of complex numbers to a real float.  The diagonal uses
    the five-point quarter-Laplacian; off-diagonal terms combine four-point
    mixed stencils through the Wirtinger identities.  Truncation error is
    O(h^2) against the analytic value.
    """
    pt = [complex(x) for x in point]

    def at(*shifts):
        q = list(pt)
        for slot, dz in shifts:
            q[slot] = q[slot] + dz
        return f(tuple(q))

    if i == j:
        lap = (at((i, h)) + at((i, -h)) + at((i, 1j * h)) + at((i, -1j * h))
               - 4.0 * at())
        return lap / (4.0 * h * h)

    def mixed(di, dj):
        return (at((i, di), (j, dj)) - at((i, di), (j, -dj))
                - at((i, -di), (j, dj)) + at((i, -di), (j, -dj))) / (4.0 * h * h)

    dxx = mixed(h, h)
    dyy = mixed(1j * h, 1j * h)
    dxy = mixed(h, 1j * h)
    dyx = mixed(1j * h, h)
    return 0.25 * (dxx + dyy) + 0.25j * (dxy - dyx)


def fd_log_hessian(f: Callable, point, i: int, j: int, h: float = 1e-3):
    """Finite-difference mixed Hessian of log f, for positive real f."""
    return fd_mixed_hessian(lambda w: math.log(f(w)), point, i, j, h)


def zero_set_metric_fn(module: WeightedPolydiscModule, ideal: IdealSpec,
                       k: int = 0) -> Callable:
    """Float evaluator of the squared norm of the k-th zero-variety frame
    vector as a function of the variety point: the closed product form
    evaluated directly in floating point.

    Independent of the exact series machinery by construction.
    """
    data = coordinate_power_data(ideal)
    gen_vars = [v for v, _ in data]
    v, p = data[k]
    lead = float(pochhammer(module.weights[v], p) / math.factorial(p))
    free = [i for i in range(module.dim) if i not in gen_vars]
    weights = [float(w) for w in module.weights]

    def f(w):
        out = lead
        for i in free:
            out *= (1.0 - (w[i] * w[i].conjugate()).real) ** (-weights[i])
        return out
    return f


# kernel terms summed by coordinate_det_fn: the tail beyond this degree is
# far below double precision for |w| << 1
FLOAT_DEGREE_CAP = 24


def coordinate_det_fn(module: WeightedPolydiscModule) -> Callable:
    """Float evaluator of det H(w) for the coordinate-ideal frame Grammian,
    summed termwise in complex floats from the definition
    H_ij = sum_a s_i s_j c_a w^(a - e_i) conj(w)^(a - e_j) over the kernel
    terms of degree <= FLOAT_DEGREE_CAP.

    No truncated-series arithmetic is involved, so this serves as an
    independent cross-check of the exact pipeline near the origin.
    """
    m = module.dim
    weights = module.weights
    terms = []
    for alpha in iter_multiindices(m, FLOAT_DEGREE_CAP):
        if not any(alpha):
            continue
        denom = sum(weights[k] * alpha[k] for k in range(m))
        c = diag_coeff(module, alpha)
        svals = [float(weights[k] * alpha[k] / denom * c) if alpha[k] else 0.0
                 for k in range(m)]
        terms.append((tuple(alpha), svals, c))

    def f(w):
        H = [[0.0 + 0.0j for _ in range(m)] for _ in range(m)]
        for alpha, svals, c in terms:
            zpows = []
            cpows = []
            for i in range(m):
                if svals[i] == 0.0:
                    zpows.append(0.0)
                    cpows.append(0.0)
                    continue
                zp = 1.0 + 0.0j
                cp = 1.0 + 0.0j
                for k, e in enumerate(alpha):
                    ek = e - (1 if k == i else 0)
                    if ek:
                        zp *= w[k] ** ek
                        cp *= w[k].conjugate() ** ek
                zpows.append(zp)
                cpows.append(cp)
            for i in range(m):
                if svals[i] == 0.0:
                    continue
                si_c = svals[i]
                for j in range(m):
                    if svals[j] == 0.0:
                        continue
                    # one factor of c_a total: s_i s_j c_a with svals = s*c
                    H[i][j] += si_c * svals[j] / float(c) * zpows[i] * cpows[j]
        return cofactor_det(H).real
    return f
