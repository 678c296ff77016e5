"""Exact symmetric-function arithmetic in the Schur and power-sum bases.

Everything is an int.  Schur coefficients are integers, and the power-sum
side holds a symmetric function as its class function rho -> <f, p_rho>,
which is integral wherever f is Schur-integral; divisions by n! happen once,
at the end, and are checked to be exact.  Littlewood-Richardson
coefficients come from direct lattice-word tableaux enumeration, and basis
changes go through Murnaghan-Nakayama border strips on beta-sets.

The branching functions are class functions.  g_sym and its sum over every
gamma come from one walk over part sizes that restricts chi^beta to Young
subgroups, with no plethysm; only the Pieri products s_alpha * h_i that feed
it are multiplied in the Schur basis.  The sum of h_eps over singleton-free
eps comes from the series h[h_2 + h_3 + ...].
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, defaultdict

from plethyra.partitions import as_partition, partitions_of


class SchurPoly:
    """An integer linear combination of Schur functions.

    Terms are keyed by partition.  Homogeneous values have all keys of one
    degree; mixed degrees are permitted for intermediate sums.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for lam, c in (terms or {}).items():
            if c:
                clean[tuple(lam)] = c
        self.terms = clean

    @classmethod
    def schur(cls, lam) -> "SchurPoly":
        return cls({as_partition(lam): 1})

    @classmethod
    def one(cls) -> "SchurPoly":
        return cls({(): 1})

    def coefficient(self, lam) -> int:
        return self.terms.get(tuple(lam), 0)

    def degree(self):
        """Degree of a homogeneous value; None for 0, error if mixed."""
        degrees = {sum(lam) for lam in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"value is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def inner(self, other: "SchurPoly") -> int:
        """Hall inner product: Schur functions are orthonormal."""
        small, big = self.terms, other.terms
        if len(big) < len(small):
            small, big = big, small
        return sum(c * big.get(lam, 0) for lam, c in small.items())

    def to_pairs(self):
        """(partition, coefficient) pairs, lexicographically descending."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __add__(self, other):
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) + c
        return SchurPoly(out)

    def __mul__(self, other):
        out = {}
        for mu, a in self.terms.items():
            for nu, b in other.terms.items():
                # one cache entry per unordered pair, larger factor first
                pair = (mu, nu) if (sum(mu), mu) >= (sum(nu), nu) else (nu, mu)
                for lam, c in _schur_times_schur(*pair).items():
                    out[lam] = out.get(lam, 0) + a * b * c
        return SchurPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, SchurPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "SchurPoly(0)"
        bits = [f"{c}*s{list(lam)}" for lam, c in self.to_pairs()]
        return "SchurPoly(" + " + ".join(bits) + ")"


class PowerSumPoly:
    """A symmetric function f held as its class function rho -> <f, p_rho>.

    ``terms`` maps each cycle type rho to z_rho times the coefficient of
    p_rho in f: the character of the matching S_n-module, so an int wherever
    f is Schur-integral (for s_lam it is chi^lam).  The constructor takes the
    coefficients of the p_rho and rejects any whose class value is not an
    integer.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for rho, c in (terms or {}).items():
            rho = tuple(rho)
            value = c * zee(rho)
            if value != int(value):
                raise ValueError(f"class value {value} at {rho} is not an integer")
            if value:
                self.terms[rho] = int(value)

    @classmethod
    def from_values(cls, values) -> "PowerSumPoly":
        """The symmetric function with class function ``values``."""
        out = cls.__new__(cls)
        out.terms = {rho: v for rho, v in values.items() if v}
        return out

    def __mul__(self, other):
        """(fg)(rho) = sum over sigma + tau = rho of
        prod_k C(m_k(rho), m_k(tau)) f(sigma) g(tau), where m_k counts the
        parts equal to k; only the parts of tau can give a factor other
        than 1, so tau runs over the smaller support.  A factor 1 returns
        the other factor itself."""
        if self.terms == {(): 1} or other.terms == {(): 1}:
            return other if self.terms == {(): 1} else self
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        factors = [(tau, v, [(k, tau.count(k)) for k in set(tau)]) for tau, v in small.items()]
        acc = {}
        for sigma, a in big.items():
            for tau, b, mults in factors:
                c = a * b
                for k, m in mults:
                    shared = sigma.count(k)
                    if shared:
                        c *= math.comb(shared + m, m)
                key = tuple(sorted(sigma + tau, reverse=True))
                acc[key] = acc.get(key, 0) + c
        return PowerSumPoly.from_values(acc)

    __rmul__ = __mul__

    def schur_coefficient(self, lam) -> int:
        """<self, s_lam> = (1/n!) sum over rho of (n!/z_rho) self(rho)
        chi^lam(rho), for self homogeneous of degree n = |lam|: one
        character row over self's support and one exact division."""
        lam = tuple(lam)
        n = sum(lam)
        weights = _factorial_coefficients(self.terms, n)
        total = sum(w * chi for w, chi in zip(weights.values(), _character_row(lam, weights)))
        return _divide_exactly(total, math.factorial(n), "Schur coefficient", lam)

    def scale_parts(self, k: int) -> "PowerSumPoly":
        """Substitute p_j -> p_{jk}, the plethysm by p_k: the class value
        at k*sigma is k^ell(sigma) times the value at sigma."""
        return PowerSumPoly.from_values(
            {tuple(k * part for part in rho): k ** len(rho) * v
             for rho, v in self.terms.items()}
        )

    def __eq__(self, other):
        return isinstance(other, PowerSumPoly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        bits = []
        for r, v in sorted(self.terms.items(), reverse=True):
            z = zee(r)
            g = math.gcd(v, z)
            c = str(v // g) if z == g else f"{v // g}/{z // g}"
            bits.append(f"{c}*p{list(r)}")
        return "PowerSumPoly(" + (" + ".join(bits) or "0") + ")"


def weighted_sum(pairs) -> PowerSumPoly:
    """The sum of c * f over the (c, f) pairs, f a PowerSumPoly; a lone
    pair (1, f) gives f itself."""
    pairs = list(pairs)
    if len(pairs) == 1 and pairs[0][0] == 1:
        return pairs[0][1]
    acc = defaultdict(int)
    for c, f in pairs:
        for rho, v in f.terms.items():
            acc[rho] += c * v
    return PowerSumPoly.from_values(acc)


def _factorial_coefficients(values, n) -> dict:
    """n! times the coefficient of p_rho, (n!/z_rho) f(rho), for each rho of
    size n in the class function ``values``: all integers."""
    scale = math.factorial(n)
    return {rho: scale // zee(rho) * v for rho, v in values.items()}


def _divide_exactly(total, scale, what, where) -> int:
    """total / scale, where the value is known to be an integer."""
    q, r = divmod(total, scale)
    if r:
        g = math.gcd(total, scale)
        raise ValueError(
            f"non-integral {what} {total // g}/{scale // g} at {where}; "
            "arithmetic bug upstream"
        )
    return q


def _divided(values, scale) -> PowerSumPoly:
    """The class function ``values`` / scale, each value known to be an
    integer."""
    return PowerSumPoly.from_values(
        {rho: _divide_exactly(v, scale, "class value", rho) for rho, v in values.items()})


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients by lattice-word tableaux enumeration.


def _contains(lam, mu) -> bool:
    return len(mu) <= len(lam) and all(lam[i] >= mu[i] for i in range(len(mu)))


def _lr_fillings(lam, mu, nu) -> int:
    """Count LR fillings of the skew shape lam/mu with content nu.

    Rows weakly increase, columns strictly increase, and the reverse
    reading word (right to left along rows, top to bottom) is a lattice
    word.  Cells are filled in reading order, so the lattice condition is
    checked at placement time: letter k may appear only while the count of
    k stays strictly below the count of k - 1.
    """
    rows = len(lam)
    mu_full = tuple(mu) + (0,) * (rows - len(mu))
    nletters = len(nu)
    order = [
        (i, j)
        for i in range(rows)
        for j in range(lam[i] - 1, mu_full[i] - 1, -1)
    ]
    if not order:
        return 1 if not nu else 0
    grid = [[None] * lam[i] for i in range(rows)]

    def fill(pos, counts):
        if pos == len(order):
            return 1
        i, j = order[pos]
        right = grid[i][j + 1] if j + 1 < lam[i] else nletters
        above = grid[i - 1][j] if i > 0 and j < lam[i - 1] else None
        lo = 1 if above is None else above + 1
        total = 0
        for letter in range(lo, right + 1):
            if counts[letter - 1] == nu[letter - 1]:
                continue
            if letter > 1 and counts[letter - 2] <= counts[letter - 1]:
                continue
            grid[i][j] = letter
            new_counts = counts[: letter - 1] + (counts[letter - 1] + 1,) + counts[letter:]
            total += fill(pos + 1, new_counts)
            grid[i][j] = None
        return total

    return fill(0, (0,) * nletters)


@functools.lru_cache(maxsize=None)
def lr_coefficient(lam, mu, nu) -> int:
    """The Littlewood-Richardson coefficient c^lam_{mu nu}."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    if not _contains(lam, mu) or not _contains(lam, nu):
        return 0
    return _lr_fillings(lam, mu, nu)


@functools.lru_cache(maxsize=None)
def _schur_times_schur(mu, nu) -> dict:
    """Expansion of s_mu * s_nu as {lam: c^lam_{mu, nu}}, one LR filling
    count per lam of size |mu| + |nu| containing both.  Filling costs grow
    with |nu|, so callers pass the larger factor first."""
    out = {}
    for lam in partitions_of(sum(mu) + sum(nu)):
        if _contains(lam, mu) and _contains(lam, nu):
            c = _lr_fillings(lam, mu, nu)
            if c:
                out[lam] = c
    return out


@functools.lru_cache(maxsize=None)
def generalized_lr(beta, seq) -> int:
    """Generalized LR coefficient: multiplicity of the tensor product of
    the Specht modules labelled by ``seq`` in the restriction of the one
    labelled by ``beta``.  Insensitive to the order of ``seq``.
    """
    beta = tuple(beta)
    factors = tuple(tuple(x) for x in seq if x)
    if sum(sum(x) for x in factors) != sum(beta):
        return 0
    if not factors:
        return 1 if beta == () else 0
    if len(factors) == 1:
        return 1 if factors[0] == beta else 0
    head, rest = factors[0], factors[1:]
    total = 0
    for eta in partitions_of(sum(beta) - sum(head)):
        c = lr_coefficient(beta, eta, head)
        if c:
            total += c * generalized_lr(eta, rest)
    return total


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama characters and the Schur <-> power-sum transition.
#
# A partition lam with ell(lam) <= c is held as its beta-set with c beads,
# {lam_i + c - i}, packed into the bits of an int.  Adding a border strip of
# size k moves one bead k places up into an empty place, removing one moves
# it k places down, and the strip's height is the number of beads passed.


def _beads(lam, count: int) -> int:
    """The beta-set of lam with ``count`` >= ell(lam) beads, as a bitmask."""
    mask = 0
    for i in range(count):
        mask |= 1 << ((lam[i] if i < len(lam) else 0) + count - 1 - i)
    return mask


def _shape(beads: int) -> tuple:
    """The partition whose beta-set is ``beads``."""
    places = [i for i in range(beads.bit_length()) if beads >> i & 1]
    return tuple(x for x in (p - i for i, p in enumerate(places)) if x)[::-1]


def _strips(beads: int, k: int) -> list:
    """Every border strip of size |k| added to (k > 0) or removed from
    (k < 0) the shape of ``beads``: the pairs (new beads, (-1)^height)."""
    out = []
    rest = beads >> max(-k, 0) << max(-k, 0)
    while rest:
        low = rest & -rest
        rest ^= low
        b = low.bit_length() - 1
        t = b + k
        if beads >> t & 1:
            continue
        lo, hi = (t, b) if k < 0 else (b, t)
        passed = beads >> (lo + 1) & ((1 << (hi - lo - 1)) - 1)
        out.append((beads ^ low ^ (1 << t), -1 if passed.bit_count() & 1 else 1))
    return out


def _character_row(lam, rhos) -> list:
    """[chi^lam(rho) for rho in rhos]: border strips of sizes rho_l, ...,
    rho_2, rho_1 are removed from lam in turn (Murnaghan-Nakayama), keeping
    the signed count of each shape left.  The rho are visited in the order
    of their reversals, so each resumes from the counts of the longest tail
    it shares with the one before; those counts and the strips already found
    live for this call only."""
    lam = tuple(lam)
    n = sum(lam)
    rhos = [tuple(rho) for rho in rhos]
    if any(sum(rho) != n for rho in rhos):
        raise ValueError("character requires |lam| = |rho|")
    strips = {}
    stack = [{_beads(lam, len(lam)): 1}]  # stack[i]: counts after i strips
    previous = ()
    empty = (1 << len(lam)) - 1
    row = {}
    for parts in sorted({rho[::-1] for rho in rhos}):
        shared = 0
        for a, b in zip(parts, previous):
            if a != b:
                break
            shared += 1
        del stack[shared + 1:]
        for k in parts[shared:]:
            counts = defaultdict(int)
            for beads, c in stack[-1].items():
                moves = strips.get((beads, k))
                if moves is None:
                    moves = strips[beads, k] = _strips(beads, -k)
                for new, sign in moves:
                    counts[new] += sign * c
            stack.append(counts)
        previous = parts
        row[parts] = stack[-1].get(empty, 0)
    return [row[rho[::-1]] for rho in rhos]


@functools.lru_cache(maxsize=None)
def character(lam, rho) -> int:
    """Symmetric-group character value chi^lam(rho) by border-strip removal."""
    return _character_row(lam, (rho,))[0]


def zee(rho) -> int:
    """Order of the centralizer of a permutation of cycle type rho."""
    out = 1
    for k in set(rho):
        m = rho.count(k)
        out *= k**m * math.factorial(m)
    return out


def _horner(coeffs, unit, times) -> dict:
    """sum of c_rho X_{rho_1} X_{rho_2} ... over the rho in ``coeffs``, for
    commuting linear maps X_k on dicts, with ``times(d, k)`` = X_k d and
    ``unit`` the key of 1.  The terms are grouped by their smallest part k,
    and X_k is applied once per group, to the group's remainders summed
    recursively: Horner's rule over the parts."""
    out = defaultdict(int)
    groups = defaultdict(dict)
    for rho, c in coeffs.items():
        if rho:
            groups[rho[-1]][rho[:-1]] = c
        else:
            out[unit] += c
    for k, group in groups.items():
        for key, c in times(_horner(group, unit, times), k).items():
            out[key] += c
    return out


def schur_to_powersum(f: SchurPoly) -> PowerSumPoly:
    """The class function of f: the sum of its Schur terms' character rows."""
    values = defaultdict(int)
    for lam, c in f.terms.items():
        rhos = partitions_of(sum(lam))
        for rho, chi in zip(rhos, _character_row(lam, rhos)):
            values[rho] += c * chi
    return PowerSumPoly.from_values(values)


def _add_strips(schur, k) -> dict:
    """p_k times a Schur form keyed by beads: every k-strip added, signed by
    its height (Murnaghan-Nakayama)."""
    out = defaultdict(int)
    for beads, c in schur.items():
        if c:
            for new, sign in _strips(beads, k):
                out[new] += sign * c
    return out


def powersum_to_schur(g: PowerSumPoly) -> SchurPoly:
    """Inverse transition; requires integral Schur coefficients.  Each
    degree n is converted as n! g = sum (n!/z_rho) g(rho) p_rho, one border
    strip per part, and divided by n! once."""
    by_degree = defaultdict(dict)
    for rho, v in g.terms.items():
        by_degree[sum(rho)][rho] = v
    out = {}
    for n, values in by_degree.items():
        coeffs = _factorial_coefficients(values, n)
        scale = math.factorial(n)
        for beads, c in _horner(coeffs, _beads((), n), _add_strips).items():
            lam = _shape(beads)
            out[lam] = _divide_exactly(c, scale, "Schur coefficient", lam)
    return SchurPoly(out)


# ---------------------------------------------------------------------------
# Plethysm.


def _require_homogeneous(f: SchurPoly, name: str) -> int:
    try:
        deg = f.degree()
    except ValueError as exc:
        raise ValueError(f"plethysm requires homogeneous {name}: {exc}") from exc
    return 0 if deg is None else deg


def plethysm_powersum(f: SchurPoly, g: SchurPoly) -> PowerSumPoly:
    """Power-sum expansion of the plethysm f o g (f, g homogeneous):
    f o g = (1/n!) sum over rho of n of (n!/z_rho) f(rho) prod_i p_{rho_i} o g,
    with one exact division at the end."""
    n = _require_homogeneous(f, "left operand")
    dg = _require_homogeneous(g, "right operand")
    if dg < 1:
        raise ValueError("plethysm requires deg(g) >= 1")
    gp = schur_to_powersum(g)
    scaled = {}

    def times_p_of_g(values, k):
        if k not in scaled:
            scaled[k] = gp.scale_parts(k)
        return (PowerSumPoly.from_values(values) * scaled[k]).terms

    weights = _factorial_coefficients(schur_to_powersum(f).terms, n)
    return _divided(_horner(weights, (), times_p_of_g), math.factorial(n))


def plethysm(f: SchurPoly, g: SchurPoly) -> SchurPoly:
    """The plethysm f o g of homogeneous symmetric functions."""
    return powersum_to_schur(plethysm_powersum(f, g))


# Bounded so a long-lived process does not grow without limit; the stable
# route reads no plethysm, so the rc-sweep benchmark workload fills none,
# and `verify --suite acceptance` fills 72 (brute force and h_eps).
PLETHYSM_CACHE_SIZE = 256


@functools.lru_cache(maxsize=PLETHYSM_CACHE_SIZE)
def _plethysm_expansion(nu, mu) -> PowerSumPoly:
    """The one plethysm cache, keyed by (nu, mu): s_nu o s_mu as a class
    function."""
    return plethysm_powersum(SchurPoly.schur(nu), SchurPoly.schur(mu))


@functools.lru_cache(maxsize=None)
def h_eps(eps) -> PowerSumPoly:
    """Product over part sizes j of s_(e_j) o s_(j), where e_j is the
    multiplicity of j in eps, as a class function: the permutation
    character on set-partitions with block sizes eps.
    """
    eps = tuple(eps)
    mult = {}
    for part in eps:
        mult[part] = mult.get(part, 0) + 1
    out = PowerSumPoly({(): 1})
    for j, e in sorted(mult.items()):
        out = out * _plethysm_expansion((e,), (j,))
    return out


def _pieri(alpha, i) -> SchurPoly:
    """s_alpha * h_i, with no Schur product when either factor is 1."""
    if not i:
        return SchurPoly.schur(alpha)
    if not alpha:
        return SchurPoly.schur((i,))
    return SchurPoly.schur(alpha) * SchurPoly.schur((i,))


def _branching_walk(alpha, beta, counts=None, degrees=()) -> dict:
    """{degree: sum of the G^alpha_{beta,gamma} of that degree} over the gamma
    with multiplicities ``counts`` ({part size: count}, size 0 for the
    distinguished zero parts) or, when ``counts`` is None, over every gamma,
    keeping the degrees in ``degrees``.

    Summing generalized LR coefficients over pieces restricts chi^beta to a
    Young subgroup (Macdonald I.7): G = (1/b!) sum over u |- b = |beta| of
    chi^beta(u) (b!/z_u) W(u).  The walk visits each part size i once (0
    only for alpha nonempty), picking a count c and a cycle type rho |- c;
    W(u) sums over the picks whose cycle types have union u, each step
    weighted by z_{u+rho}/(z_u z_rho) = prod_k C(m_k(u+rho), m_k(rho)) and
    by A_i(rho) = sum_mu k_mu prod_j p_{rho_j}[s_mu], the k_mu s_mu being
    the Schur components of s_alpha h_i.  With free counts, a pick is
    dropped when the blocks left, each of degree >= |alpha| + i + 1, do
    not fit under max(degrees).
    """
    a, b = sum(alpha), sum(beta)
    one = PowerSumPoly({(): 1})
    if not b:
        return {0: one}
    us = partitions_of(b)
    final = {u: chi * (math.factorial(b) // zee(u))
             for u, chi in zip(us, _character_row(beta, us))}
    top = max(degrees, default=0)
    states, done = {((), 0): one}, defaultdict(list)  # (u, degree) -> W, |u| < b
    for i in sorted(counts) if counts is not None else itertools.count(0 if alpha else 1):
        if not states:
            break
        components = [(k, schur_to_powersum(SchurPoly.schur(mu)))
                      for mu, k in _pieri(alpha, i).terms.items()]
        factors, steps = {(): one}, defaultdict(list)
        for (u, d), acc in states.items():
            left = b - sum(u)
            for c in (counts[i],) if counts is not None else range(left + 1):
                e = d + c * (a + i)
                if counts is None and (e + (left - c) * (a + i + 1) > top
                                       or c == left and e not in degrees):
                    continue
                for rho in partitions_of(c):
                    v = tuple(sorted(u + rho, reverse=True))
                    if c < left or final[v]:
                        if rho not in factors:
                            factors[rho] = weighted_sum(
                                (k, math.prod(map(f.scale_parts, rho), start=one))
                                for k, f in components)
                        w = math.prod(math.comb(v.count(k), rho.count(k)) for k in set(rho))
                        steps[v, e].append((w, acc * factors[rho]))
        states = {}
        for (v, e), pairs in steps.items():
            if sum(v) < b:
                states[v, e] = weighted_sum(pairs)
            else:
                done[e].append((final[v], weighted_sum(pairs)))
    return {e: _divided(weighted_sum(pairs).terms, math.factorial(b)) for e, pairs in done.items()}


def g_sym(alpha, beta, gamma) -> PowerSumPoly:
    """The branching symmetric function G^alpha_{beta, gamma}, as a class
    function: ``_branching_walk`` with the multiplicities of gamma as fixed
    counts.  Zero parts of gamma are dropped, and gamma carries
    |beta| - ell(gamma) distinguished zero parts.  Returns 0 exactly when
    the side conditions fail: ell(gamma) > |beta|, or zero parts with alpha
    empty.
    """
    gamma = [x for x in gamma if x]
    zeros = sum(beta) - len(gamma)
    if zeros < 0 or (zeros and not alpha):
        return PowerSumPoly()
    walk = _branching_walk(alpha, beta, Counter(gamma + [0] * zeros))
    return next(iter(walk.values()), PowerSumPoly())


def singleton_free_series(top) -> list:
    """[H_0, ..., H_top], H_n the sum of h_eps over the singleton-free
    eps |- n.  Their sum is h[h_2 + h_3 + ...] (Macdonald I.2), so n H_n is
    the sum over m >= 2 of M_m H_{n-m}, M_m = sum over jk = m, j >= 2, of
    j p_k[h_j]."""
    h = [PowerSumPoly.from_values(dict.fromkeys(partitions_of(j), 1)) for j in range(top + 1)]
    logs = [weighted_sum((j, h[j].scale_parts(m // j)) for j in range(2, m + 1) if m % j == 0)
            for m in range(top + 1)]
    series = [PowerSumPoly({(): 1})]
    for n in range(1, top + 1):
        series.append(_divided(weighted_sum(
            (1, logs[m] * series[n - m]) for m in range(2, n + 1) if series[n - m]).terms, n))
    return series
