"""Frame decompositions of submodule kernels and their Grammian metrics.

For an ideal generated by coordinate powers z_{v_1}^{i_1}, ..., z_{v_t}^{i_t}
the submodule kernel splits as

    K_M(., u) = sum_k conj(p_k)(u) F^k(., u)

with frame vectors built by distributing each diagonal kernel term c_a z^a
conj(u)^a over the generators that divide it.  The splitting rule used here
weights generator k on exponent a by

    s_k(a) = l_k a_k [a_k >= i_k] / sum_j l_j a_j [a_j >= i_j]

which reproduces the kernel exactly (the weights sum to 1 on the support)
and restricts on the zero variety to the product closed form
(poch(l_k, i_k)/i_k!) z_k^{i_k} prod_{free i} (1 - z_i conj(w_i))^{-l_i}.
Other splittings differ by a gauge transformation; the rule in force is
recorded on the frame so reports can state it.

A frame is its spec; its vectors, maps from z-exponents to truncated series
in the displacement (u, ubar) from the base point, are built on first read,
which only the tests and the benchmark's tracer do.  The Grammian and the
reconstruction check read the spec alone.  The coordinate-neighborhood
Grammian sums the kernel terms s_i(a) s_j(a) c_a, with the shares in
integers (share_numerators); a zero-variety Grammian is the outer product
of one finite coefficient table per free slot, with a positive base-point
constant, folded in when rational and otherwise (a fractional power) kept
as the metric's one scale, in text, since it never influences curvature.
Both builders write each entry's terms in the order its text prints them,
graded-lex, from a layout cached per shape (_coordinate_layout,
_zero_set_layout): each term an integer pair in lowest terms, reduced by
one gcd and written once as text, which the metric task prints; H_ij and
H_ji of a coordinate frame share their coefficients and their texts'
prefixes.  The series matrix of Fractions is built only when read.  The
base point vanishes on each generator variable,
so conj(p_k) F^k restores exactly the share s_k of each kernel term, and
the check sums the integer share numerators against their denominator.
Every c_a and lead coefficient is read from the integer rows of
rkhs.diag_coeff_rows, and every walk over exponents is the cached tuple of
algebra.iter_multiindices.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import islice
from operator import getitem, mul

from .algebra import (ZERO, Record, SeriesMatrix, TruncSeries,
                      _series_names, graded_lex, iter_multiindices,
                      join_terms, monomial_text, rat, ratio_prefixes, rats)
from .errors import DegeneracyError, DomainError, ShapeError, TruncationError
from .ideals import IdealSpec
from .linalg import _common_denominator, leading_principal_minors
from .rkhs import (WeightedPolydiscModule, cleared_row, diag_coeff,
                   diag_coeff_rows, in_open_polydisc)

COORDINATE_KIND = "coordinate_neighborhood"
ZERO_SET_KIND = "zero_set_slice"


class FrameSeries(Record):
    """The spec of a finite frame for a submodule kernel near a base point.

    Generator k is the monomial z_{gen_vars[k]+1} to the power
    gen_powers[k]; free_slots lists the variables transverse to the
    generators (all variables for the coordinate-neighborhood kind).
    vectors[k] maps a z-exponent to the truncated (u, ubar)-series of that
    coefficient of F^k.  It and recentered_monomials, the table of
    conj(z)^beta about the base point it is built from, are built on first
    read; no task reads the vectors, and the reconstruction check reads the
    table only where the splitting shares fail to sum to 1.
    """

    _fields = ("module", "kind", "base_point", "trunc", "gen_vars",
               "gen_powers", "free_slots", "lead_coeffs")
    splitting_note = ("kernel terms split over generators proportionally to "
                      "weight*exponent on the generator variable, restricted "
                      "to generators whose power divides the term")

    @property
    def count(self) -> int:
        return len(self.gen_vars)

    @cached_property
    def recentered_monomials(self) -> dict:
        return _recentered_monomials(self)

    @cached_property
    def vectors(self) -> tuple:
        return _build_splitting_frame(self)


def _recentered_monomials(frame) -> dict:
    """beta -> P(beta) = prod_j (ub_j + b_j)^beta_j, the conjugate monomial
    conj(z)^beta about the base point b, for |beta| <= D + max power.  Each
    P(beta) is its predecessor P(beta - e_j), j the first slot of beta,
    times one linear factor."""
    m = frame.module.dim
    D = frame.trunc
    lin = [TruncSeries.wbar(m, D, j) + frame.base_point[j] for j in range(m)]
    table = {(0,) * m: TruncSeries.one(m, D)}
    for beta in iter_multiindices(m, D + max(frame.gen_powers), 1):
        j = next(j for j, e in enumerate(beta) if e)
        table[beta] = table[beta[:j] + (beta[j] - 1,) + beta[j + 1:]] * lin[j]
    return table


def share_generators(frame):
    """(gens, scale): gens holds (k, v, p, L_v) per generator z_v^p, where
    scale is the lcm of the weights' denominators and L = scale * weights,
    the weights as integers of the same ratios."""
    L, scale = _common_denominator(frame.module.weights)
    return tuple((k, v, p, L[v]) for k, (v, p)
                 in enumerate(zip(frame.gen_vars, frame.gen_powers))), scale


def share_numerators(gens, alpha):
    """The splitting rule in integers: (parts, denom), parts holding
    (k, v, p, x_k) for each of share_generators' gens dividing z^alpha, with
    x_k = L_v alpha_v and denom = sum x_k, so that s_k(alpha) = x_k / denom."""
    parts = [(k, v, p, w * alpha[v]) for k, v, p, w in gens if alpha[v] >= p]
    return parts, sum(x for *_, x in parts)


def _splitting_shares(gens, alpha) -> list:
    """(k, v, p, s_k(alpha)) for each of share_generators' gens dividing
    z^alpha."""
    parts, denom = share_numerators(gens, alpha)
    return [(k, v, p, Fraction(x, denom)) for k, v, p, x in parts]


def _build_splitting_frame(frame):
    """F^k[alpha] = s_k(alpha) c_alpha P(alpha - p_k e_{v_k}) for every
    kernel term alpha that generator k divides."""
    gens, _ = share_generators(frame)
    monomials = frame.recentered_monomials
    nums, dens = zip(*diag_coeff_rows(frame.module.weights,
                                      frame.trunc + max(frame.gen_powers)))
    vectors = [dict() for _ in gens]
    for alpha in monomials:
        c = Fraction(math.prod(map(getitem, nums, alpha)),
                     math.prod(map(getitem, dens, alpha)))
        for k, v, p, s in _splitting_shares(gens, alpha):
            down = alpha[:v] + (alpha[v] - p,) + alpha[v + 1:]
            series = monomials[down].scale(s * c)
            if not series.is_zero():
                vectors[k][alpha] = series
    return tuple(vectors)


def decompose_coordinate_ideal(module: WeightedPolydiscModule,
                               trunc: int) -> FrameSeries:
    """Frame for the submodule generated by all the coordinates z_1, ..., z_m
    near the origin.

    The frame lives over a full neighborhood of 0 (all variables vary), one
    vector per coordinate generator, with F^k(., 0) = l_k z_k.
    """
    m = module.dim
    if trunc < 2:
        raise TruncationError("frame truncation degree must be >= 2")
    return FrameSeries(module, COORDINATE_KIND, (Fraction(0),) * m, trunc,
                       tuple(range(m)), (1,) * m, tuple(range(m)),
                       module.weights)


def frame_on_zero_set(module: WeightedPolydiscModule, ideal: IdealSpec,
                      base_point, trunc: int) -> FrameSeries:
    """Frame for a coordinate-power ideal at a point of its zero variety.

    The base point must vanish on every generator variable and stay inside
    the open polydisc.  Frame vectors restrict on the variety to the product
    closed form and are pairwise orthogonal there.
    """
    if trunc < 2:
        raise TruncationError("frame truncation degree must be >= 2")
    m = module.dim
    data = ideal.coordinate_powers
    gen_vars = tuple(v for v, _ in data)
    gen_powers = tuple(p for _, p in data)
    base = rats(base_point)
    if len(base) != m:
        raise ShapeError(f"base point has arity {len(base)}, expected {m}")
    if not in_open_polydisc(base):
        raise DomainError(f"base point {base} is outside the open polydisc")
    for v in gen_vars:
        if base[v] != 0:
            raise DomainError(
                f"base point must lie on the zero variety: z{v+1} component "
                f"is {base[v]}, expected 0")
    free = tuple(i for i in range(m) if i not in gen_vars)
    rows = diag_coeff_rows(module.weights, max(gen_powers))
    leads = tuple(Fraction(rows[v][0][p], rows[v][1][p]) for v, p in data)
    return FrameSeries(module, ZERO_SET_KIND, base, trunc,
                       gen_vars, gen_powers, free, leads)


# ---------------------------------------------------------------------------
# Grammian metric


class MetricSeries(Record):
    """Grammian of a frame as a matrix of truncated series.

    Entry (i, j) is <F_j, F_i> expanded around the base point.  terms[i][j]
    is the entry as two aligned sequences (keys, pairs): its exponent keys
    (w-half then wbar-half, npairs slots each, total degree <= trunc) in
    graded-lex order, the order its text writes them, and each nonzero
    coefficient as a (numerator, denominator) pair in lowest terms with a
    positive denominator.  texts[i][j] is the entry's text, str() of
    matrix[i, j], which the builder writes with its terms.  matrix, the
    same entries as a SeriesMatrix of TruncSeries with one Fraction per
    term, is built on first read; the metric task does not read it.  No
    entry is kept as a dict.  scale is the irrational base-point
    constant of a zero-variety frame, as the text "(b)^(e) * ...", one
    positive number that multiplies every stored series and drops out of
    every log-derivative; None when there is none, or when it was rational
    and folded into the series.  minors are the leading principal minors
    of the base-point values, all positive on a metric grammian returns;
    empty on a metric built otherwise.
    """

    _fields = ("terms", "texts", "npairs", "trunc", "scale", "minors")
    _defaults = {"scale": None, "minors": ()}

    @property
    def size(self) -> int:
        return len(self.terms)

    @cached_property
    def matrix(self) -> SeriesMatrix:
        return SeriesMatrix([[TruncSeries._trusted(
            self.npairs, self.trunc,
            {k: Fraction(n, d) for k, (n, d) in zip(keys, pairs)})
            for keys, pairs in row] for row in self.terms])

    def is_diagonal(self) -> bool:
        return not any(keys for i, row in enumerate(self.terms)
                       for j, (keys, _) in enumerate(row) if i != j)

    def value_at_base(self):
        """Constant-term matrix as a list of lists of Fractions: the first
        term of an entry, where graded-lex order puts the constant."""
        zero = (0,) * (2 * self.npairs)
        return [[Fraction(*pairs[0]) if keys and keys[0] == zero else ZERO
                 for keys, pairs in row] for row in self.terms]


@lru_cache(maxsize=32)
def _coordinate_walk(m: int, low: int, top: int, gen_vars: tuple,
                     gen_powers: tuple) -> tuple:
    """What coordinate_terms reads of each exponent a of
    iter_multiindices(m, top, low), which no weight changes: one tuple per
    a of (k, v, a_v, a - e_v) per generator k = z_v^p that divides z^a.
    One tuple per shape, cached; callers only read it."""
    return tuple(tuple((k, v, a[v], a[:v] + (a[v] - 1,) + a[v + 1:])
                       for k, (v, p) in enumerate(zip(gen_vars, gen_powers))
                       if a[v] >= p)
                 for a in iter_multiindices(m, top, low))


def coordinate_terms(frame: FrameSeries, low: int, top: int):
    """The kernel terms c_a of a coordinate-neighborhood frame with
    low <= |a| <= top, in integers: one (num, den, downs) per a, with
    num/den = c_a / denom^2, denom the sum of the share numerators, and
    downs holding (i, x_i, a - e_i) per generator z_i dividing z^a, x_i its
    share numerator x_i = L_v a_v (share_numerators).  c_a is the product
    of the poch(l, n)/n! entries of a's support, so num and den are the
    products of their numerators and denominators, read from the integer
    rows of diag_coeff_rows.  The exponents and which generators divide
    each are _coordinate_walk's cached tuple, so each a takes one pass over
    its dividing generators."""
    gens, _ = share_generators(frame)
    nums, dens = zip(*diag_coeff_rows(frame.module.weights, top))
    for divs in _coordinate_walk(frame.module.dim, low, top,
                                 frame.gen_vars, frame.gen_powers):
        num = den = 1
        denom = 0
        downs = []
        for k, v, e, down in divs:
            x = gens[k][3] * e
            denom += x
            num *= nums[v][e]
            den *= dens[v][e]
            downs.append((k, x, down))
        yield num, den * denom * denom, downs


def _key_texts(m: int, keys) -> tuple:
    """monomial_text of each exponent key (w-half then wbar-half, m slots
    each), written from the texts of its two halves, each half written
    once."""
    names = _series_names(m)
    w = {h: monomial_text(names[:m], h) for h in {k[:m] for k in keys}}
    b = {h: monomial_text(names[m:], h) for h in {k[m:] for k in keys}}
    return tuple(f"{tw}*{tb}" if tw and tb else tw or tb
                 for k in keys for tw, tb in ((w[k[:m]], b[k[m:]]),))


@lru_cache(maxsize=32)
def _coordinate_layout(m: int, trunc: int) -> tuple:
    """The coordinate Grammian of m variables through degree trunc as its
    text writes it, all but what the weights give: (steps, entries).  The
    kernel exponents a with |a| <= trunc//2 + 1 are numbered in graded-lex
    order, 0 for a = 0.  steps holds (p, v, a_v) per a > 0, p numbering a
    with its first nonzero slot v set to 0.  entries holds (i, j, rows,
    keys, texts, mirror_keys, mirror_texts) per i <= j: rows has (x, a_i
    a_j) for each a, numbered x, with a_i, a_j >= 1; keys and texts the
    key (a - e_i, a - e_j) of each of H_ij's terms and its monomial's
    text, and the mirrors those of H_ji at the swapped key.  Lex order on
    either key is lex order on a, so both entries are in graded-lex order.
    One tuple per (m, trunc), cached; callers only read it."""
    exps = graded_lex(iter_multiindices(m, trunc // 2 + 1))
    number = {a: x for x, a in enumerate(exps)}
    steps = []
    for a in exps[1:]:
        v = next(v for v, e in enumerate(a) if e)
        steps.append((number[a[:v] + (0,) + a[v + 1:]], v, a[v]))
    downs = [[a[:i] + (a[i] - 1,) + a[i + 1:] for i in range(m)]
             for a in exps]
    entries, every_key = [], []
    for i in range(m):
        for j in range(i, m):
            rows = [(x, a[i] * a[j]) for x, a in enumerate(exps)
                    if a[i] and a[j]]
            keys = tuple(downs[x][i] + downs[x][j] for x, _ in rows)
            mirror = tuple(downs[x][j] + downs[x][i] for x, _ in rows)
            entries.append((i, j, tuple(rows), keys, mirror))
            every_key += keys + mirror
    # one text per key, in the order of every_key
    texts = iter(_key_texts(m, every_key))
    return tuple(steps), tuple(
        (i, j, rows, keys, tuple(islice(texts, len(keys))),
         mirror, tuple(islice(texts, len(mirror))))
        for i, j, rows, keys, mirror in entries)


def _metric_by_monomial_sum(frame: FrameSeries):
    """(terms, texts) of the Grammian of a coordinate-neighborhood frame
    (those of a MetricSeries), summed over the kernel terms: each c_a with
    a_i, a_j >= 1 puts s_i(a) s_j(a) c_a at w^(a - e_i) wbar^(a - e_j) of
    H_ij.  That term has degree 2|a| - 2, so 1 <= |a| <= D//2 + 1 reaches
    the truncation degree D.  With the integer shares (share_numerators)
    the term is c_a a_i a_j L_i L_j / denom^2, denom = sum_k L_k a_k.
    c_a is built one slot factor at a time along _coordinate_layout's
    steps, and num/den = c_a / denom^2 is reduced once per a, so a term
    is num s / den, s = a_i a_j L_i L_j, reduced by gcd(s, den).  The term
    is symmetric in (i, j), so each (i <= j) pair is reduced and written
    once and read by H_ij and H_ji at their keys: H is Hermitian by
    construction."""
    weights = frame.module.weights
    m = len(weights)
    steps, entries = _coordinate_layout(m, frame.trunc)
    L, _ = _common_denominator(weights)
    coeffs = diag_coeff_rows(weights, frame.trunc // 2 + 1)
    gcd = math.gcd
    # per a: c_a as num/den, denom, and c_a / denom^2 in lowest terms,
    # which a = 0 has not
    nums, dens, denoms = [1], [1], [0]
    cn, cd = [None], [None]
    for p, v, e in steps:
        n = nums[p] * coeffs[v][0][e]
        d = dens[p] * coeffs[v][1][e]
        denom = denoms[p] + L[v] * e
        nums.append(n)
        dens.append(d)
        denoms.append(denom)
        d *= denom * denom
        g = gcd(n, d)
        cn.append(n // g)
        cd.append(d // g)
    terms = [[None] * m for _ in range(m)]
    texts = [[None] * m for _ in range(m)]
    for i, j, rows, keys, monos, mirror, mirror_monos in entries:
        LL = L[i] * L[j]
        pairs = [(cn[x] * s // g, d // g) for x, aa in rows
                 for s, d in ((aa * LL, cd[x]),) for g in (gcd(s, d),)]
        prefixes = ratio_prefixes(pairs)
        terms[i][j] = keys, pairs
        texts[i][j] = join_terms(prefixes, monos)
        if j != i:
            terms[j][i] = mirror, pairs
            texts[j][i] = join_terms(prefixes, mirror_monos)
    return terms, texts


def _slot_coefficients(row, c):
    """(table, den): table maps (beta, gamma) to the integer numerator over
    den of [u^beta ub^gamma] ((1 - (c+u)(c+ub)) / (1 - c^2))^(-l), for
    beta + gamma <= D, zero entries left out, where row = (R, S) is l's
    cleared_row: (l)_n/n! = R[n]/S, n = 0..D.  That coefficient is
    (l)_beta/beta! sum_{j <= min(beta, gamma)} C(beta, j) (l+beta)_{gamma-j}
    /(gamma-j)! c^(beta+gamma-2j) q^(beta+gamma-j), q = 1/(1 - c^2).  With
    c = u/d, e = d^2 - u^2 and n = beta + gamma it is d^n/(e^n S) sum_j
    C(beta, j) C(n-j, beta) R[n-j] u^(n-2j) e^j, so over den = e^D S its
    numerator is that sum times d^n e^(D-n).  The table is symmetric in
    (beta, gamma).  Every term of the sum has the sign of u^n and e > 0,
    so the entries left out are those with beta != gamma at c = 0, which
    are not summed."""
    R, S = row
    trunc = len(R) - 1
    u, d = c.numerator, c.denominator
    upow = [u ** k for k in range(trunc + 1)]
    epow = [(d * d - u * u) ** k for k in range(trunc + 1)]
    table = {}
    for b in range(trunc // 2 + 1):
        # at c = 0 only u^0 survives: the one nonzero n is 2b
        for n in range(2 * b, trunc + 1 if u else 2 * b + 1):
            x = sum(math.comb(b, j) * math.comb(n - j, b) * R[n - j]
                    * upow[n - 2 * j] * epow[j] for j in range(b + 1))
            if x:
                table[b, n - b] = table[n - b, b] = \
                    x * d ** n * epow[trunc - n]
    return table, epow[trunc] * S


@lru_cache(maxsize=32)
def _zero_set_layout(m: int, trunc: int, slots: tuple) -> tuple:
    """The diagonal entries of a zero-variety Grammian through degree
    trunc as their text writes them, all but the coefficients: (keys,
    texts, columns).  slots holds (i, centred) per free slot i, centred
    when the base point's c_i != 0: that slot's table (_slot_coefficients)
    then holds every (beta, gamma) with beta + gamma <= trunc, and
    otherwise only beta == gamma.  keys are the exponent keys of the
    product of the slot tables, the disjoint slots' outer product through
    degree trunc, in graded-lex order, and texts their monomials' texts;
    columns holds, per slot, the (beta, gamma) each key reads of that
    slot's table.  One tuple per (m, trunc, slots), cached; callers only
    read it."""
    products = [((0,) * (2 * m), ())]
    for i, centred in slots:
        pairs = [(b, g) for b, g in iter_multiindices(2, trunc)
                 if centred or b == g]
        products = [(k[:i] + (b,) + k[i + 1:m + i] + (g,) + k[m + i + 1:],
                     reads + ((b, g),))
                    for k, reads in products for room in (trunc - sum(k),)
                    for b, g in pairs if b + g <= room]
    reads = dict(products)
    keys = tuple(graded_lex(reads))
    return (keys, _key_texts(m, keys),
            tuple(zip(*map(reads.__getitem__, keys))))


def _metric_by_closed_form(frame: FrameSeries):
    """(terms, texts, scale): the diagonal zero-variety metric from the
    recentered product form H_kk = lead_k prod_{free i} (1 - w_i
    wbar_i)^(-l_i) about the base point.

    The base-point constant prod_{free i} (1 - c_i^2)^(-l_i) is the same for
    every generator.  Its factors are merged by base, {1 - c_i^2: -sum l_i}
    over the free slots with c_i != 0.  When every merged exponent is an
    integer the constant is folded into the series, so reported values are
    the true norms, and the scale is None; otherwise (an irrational power
    from fractional weights) it is returned as the scale, the text
    "(b)^(e) * ..." sorted by base.  The slot tables multiply as integer
    numerators over the product of their denominators, read at the keys
    of _zero_set_layout, in the order the text writes them; each stored
    term of H_kk is a p / (den q) reduced by one gcd, p/q = lead_k times
    the folded constant, and written once.  H is diagonal, and each slot
    table is symmetric in (beta, gamma), so every entry is its own
    key-swapped conjugate: H is Hermitian by construction.
    """
    module = frame.module
    D = frame.trunc
    powers = {}
    rows = diag_coeff_rows(module.weights, D)
    slots, tables = [], []
    den = 1
    for i in frame.free_slots:
        c = rat(frame.base_point[i])
        if c:
            powers[1 - c * c] = powers.get(1 - c * c, 0) - module.weights[i]
        table, slot_den = _slot_coefficients(cleared_row(rows[i]), c)
        slots.append((i, c != 0))
        tables.append(table)
        den *= slot_den
    keys, monos, columns = _zero_set_layout(module.dim, D, tuple(slots))
    values = [1] * len(keys)
    for table, column in zip(tables, columns):
        values = list(map(mul, values, map(table.__getitem__, column)))
    if all(e.denominator == 1 for e in powers.values()):
        fold, scale = math.prod(b ** int(e) for b, e in powers.items()), None
    else:
        fold, scale = 1, " * ".join(f"({b})^({e})"
                                    for b, e in sorted(powers.items()))
    t = frame.count
    empty = ((), ())
    terms = [[empty] * t for _ in range(t)]
    texts = [["0"] * t for _ in range(t)]
    gcd = math.gcd
    for k, lead in enumerate(frame.lead_coeffs):
        p, q = (rat(lead) * fold).as_integer_ratio()
        if p:
            q *= den
            pairs = [(n // g, q // g) for a in values
                     for n in (a * p,) for g in (gcd(n, q),)]
            terms[k][k] = keys, pairs
            texts[k][k] = join_terms(ratio_prefixes(pairs), monos)
    return terms, texts, scale


def grammian(frame: FrameSeries) -> MetricSeries:
    """Grammian metric of a frame, exact through the truncation degree,
    read from the frame's spec; no frame vector is built.  Each entry's
    terms and its text are written together, in the text's order.

    A coordinate-neighborhood frame sums its kernel terms with their
    splitting shares.  A zero-variety frame, at the origin slice or any other
    base point, takes the recentered closed form, which is diagonal; away
    from the origin infinitely many kernel terms hit every series degree.
    """
    if frame.kind == COORDINATE_KIND:
        (terms, texts), scale = _metric_by_monomial_sum(frame), None
    else:
        terms, texts, scale = _metric_by_closed_form(frame)
    metric = MetricSeries(tuple(map(tuple, terms)), tuple(map(tuple, texts)),
                          frame.module.dim, frame.trunc, scale)
    # both builders are Hermitian by construction; a FrameSeries built by
    # hand may carry any lead_coeffs, so positivity is checked
    minors = leading_principal_minors(metric.value_at_base())
    if any(d <= 0 for d in minors):
        raise DegeneracyError(
            "frame is linearly dependent (Grammian not positive definite "
            f"at the base point; principal minors {minors})")
    return metric._replace(minors=tuple(minors))


# ---------------------------------------------------------------------------
# Reconstruction check


def reconstruction_residual(frame: FrameSeries) -> dict:
    """Residual of sum_k conj(p_k) F^k against the kernel, per z-exponent.

    The kernel term at alpha is c_alpha P(alpha), P(alpha) = conj(z)^alpha
    about the base point, which vanishes on each generator variable: so
    P(alpha) = ub_v^p P(alpha - p e_v) through degree D, and the residual
    at alpha is (sum_k s_k(alpha) - 1) c_alpha P(alpha).  The shares are
    read in integers, s_k(alpha) = x_k / denom (share_numerators), and
    sum_k x_k != denom is the test; a Fraction and a series are built only
    where it fails.  The test restates share_numerators, whose denom is
    that sum, so on every frame it passes and the result is {}.  Only
    nonzero residuals are returned; an empty dict certifies the identity
    through the truncation degree.  No task calls it; ROADMAP item 10
    moves it once item 1b releases the tracer's binding.
    """
    gens, _ = share_generators(frame)
    residuals = {}
    for alpha in iter_multiindices(frame.module.dim,
                                   frame.trunc + max(frame.gen_powers)):
        parts, denom = share_numerators(gens, alpha)
        total = sum(x for *_, x in parts)
        if parts and total != denom:
            diff = frame.recentered_monomials[alpha].scale(
                (Fraction(total, denom) - 1) * diag_coeff(frame.module, alpha))
            if not diff.is_zero():
                residuals[alpha] = diff
    return residuals
