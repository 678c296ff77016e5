"""Exact symmetric-function arithmetic in the Schur and power-sum bases.

Schur coefficients are integers; the power-sum basis carries exact
rationals.  Littlewood-Richardson coefficients come from direct
lattice-word tableaux enumeration, and basis changes go through
Murnaghan-Nakayama character values.  All heavy primitives are memoized.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from fractions import Fraction

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

    def __sub__(self, other):
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) - c
        return SchurPoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return SchurPoly({lam: c * other for lam, c in self.terms.items()})
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
    """A rational linear combination of power-sum functions p_rho."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for rho, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[tuple(rho)] = c
        self.terms = clean

    def __add__(self, other):
        out = dict(self.terms)
        for rho, c in other.terms.items():
            out[rho] = out.get(rho, 0) + c
        return PowerSumPoly(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PowerSumPoly({r: c * other for r, c in self.terms.items()})
        out = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                key = tuple(sorted(r1 + r2, reverse=True))
                out[key] = out.get(key, 0) + c1 * c2
        return PowerSumPoly(out)

    __rmul__ = __mul__

    def schur_coefficient(self, lam) -> int:
        """<self, s_lam> for self homogeneous of degree |lam|: the pairing
        with the single character column chi^lam."""
        total = sum(c * character(lam, rho) for rho, c in self.terms.items())
        if total.denominator != 1:
            raise ValueError(
                f"non-integral Schur coefficient {total} at {lam}; "
                "arithmetic bug upstream"
            )
        return int(total)

    def scale_parts(self, k: int) -> "PowerSumPoly":
        """Substitute p_j -> p_{jk}, the plethysm by p_k."""
        return PowerSumPoly(
            {tuple(sorted((k * part for part in rho), reverse=True)): c
             for rho, c in self.terms.items()}
        )

    def __eq__(self, other):
        return isinstance(other, PowerSumPoly) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        bits = [f"{c}*p{list(r)}" for r, c in sorted(self.terms.items(), reverse=True)]
        return "PowerSumPoly(" + (" + ".join(bits) or "0") + ")"


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
    """Expansion of s_mu * s_nu as {lam: c^lam_{mu, nu}}.

    lam grows from mu row by row over the shapes an LR filling of lam/mu
    with content nu can reach: max(mu_i, nu_i) <= lam_i <= mu_i + nu_1,
    lam_i <= lam_{i-1}, lam_i <= mu_{i - ell(nu)} (a column of lam/mu holds
    at most ell(nu) distinct letters) and |lam/mu| = |nu|.  Filling costs
    grow with |nu|, so callers pass the larger factor first.
    """
    if not nu:
        return {mu: 1}
    rows = len(mu) + len(nu)
    mu_full = mu + (0,) * len(nu)
    nu_full = nu + (0,) * len(mu)
    depth, width = len(nu), nu[0]
    out = {}
    lam = []

    def grow(i, left):
        if left == 0:
            if all(mu_full[j] >= nu_full[j] for j in range(i, rows)):
                shape = tuple(lam) + mu[i:]
                c = _lr_fillings(shape, mu, nu)
                if c:
                    out[shape] = c
            return
        if i == rows:
            return
        top = mu_full[i] + min(left, width)
        if i:
            top = min(top, lam[-1])
        if i >= depth:
            top = min(top, mu_full[i - depth])
        for row in range(max(mu_full[i], nu_full[i]), top + 1):
            lam.append(row)
            grow(i + 1, left - (row - mu_full[i]))
            lam.pop()

    grow(0, sum(nu))
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


@functools.lru_cache(maxsize=None)
def character(lam, rho) -> int:
    """Symmetric-group character value chi^lam(rho) by border-strip removal."""
    lam, rho = tuple(lam), tuple(rho)
    if not lam:
        return 1 if not rho else 0
    if sum(lam) != sum(rho):
        raise ValueError("character requires |lam| = |rho|")
    k = rho[0]
    rest = rho[1:]
    ell = len(lam)
    beta = tuple(lam[i] + (ell - 1 - i) for i in range(ell))
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(x - (ell - 1 - i) for i, x in enumerate(new_beta))
        new_lam = tuple(x for x in new_lam if x > 0)
        sign = -1 if height % 2 else 1
        total += sign * character(new_lam, rest)
    return total


def zee(rho) -> int:
    """Order of the centralizer of a permutation of cycle type rho."""
    out = 1
    mult = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1
    for k, m in mult.items():
        out *= k**m * math.factorial(m)
    return out


@functools.lru_cache(maxsize=None)
def _schur_in_powersums(lam) -> PowerSumPoly:
    n = sum(lam)
    return PowerSumPoly(
        {rho: Fraction(character(lam, rho), zee(rho)) for rho in partitions_of(n)}
    )


def schur_to_powersum(f: SchurPoly) -> PowerSumPoly:
    out = PowerSumPoly()
    for lam, c in f.terms.items():
        out = out + _schur_in_powersums(lam) * c
    return out


def powersum_to_schur(g: PowerSumPoly) -> SchurPoly:
    """Inverse transition; requires integral Schur coefficients."""
    by_degree = defaultdict(PowerSumPoly)
    for rho, c in g.terms.items():
        by_degree[sum(rho)].terms[rho] = c
    out = {}
    for degree, part in by_degree.items():
        for lam in partitions_of(degree):
            out[lam] = part.schur_coefficient(lam)
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
    """Power-sum expansion of the plethysm f o g (f, g homogeneous)."""
    _require_homogeneous(f, "left operand")
    dg = _require_homogeneous(g, "right operand")
    if dg is None or dg < 1:
        raise ValueError("plethysm requires deg(g) >= 1")
    fp = schur_to_powersum(f)
    gp = schur_to_powersum(g)
    scaled = {}

    def g_scaled(k):
        if k not in scaled:
            scaled[k] = gp.scale_parts(k)
        return scaled[k]

    acc = PowerSumPoly()
    for rho, c in fp.terms.items():
        term = PowerSumPoly({(): Fraction(1)})
        for part in rho:
            term = term * g_scaled(part)
        acc = acc + term * c
    return acc


def plethysm(f: SchurPoly, g: SchurPoly) -> SchurPoly:
    """The plethysm f o g of homogeneous symmetric functions."""
    return powersum_to_schur(plethysm_powersum(f, g))


class PlethysmExpansion:
    """s_nu o s_mu, held once: its power-sum expansion, and the Schur form
    built from that expansion the first time it is asked for."""

    def __init__(self, powersum: PowerSumPoly):
        self.powersum = powersum

    @functools.cached_property
    def schur(self) -> SchurPoly:
        return powersum_to_schur(self.powersum)


@functools.lru_cache(maxsize=None)
def _plethysm_expansion(nu, mu) -> PlethysmExpansion:
    """The one plethysm cache, keyed by (nu, mu)."""
    return PlethysmExpansion(plethysm_powersum(SchurPoly.schur(nu), SchurPoly.schur(mu)))


@functools.lru_cache(maxsize=None)
def h_eps(eps) -> SchurPoly:
    """Product over part sizes j of s_(e_j) o s_(j), where e_j is the
    multiplicity of j in eps.  Corresponds to the permutation module on
    set-partitions with block sizes eps.
    """
    eps = tuple(eps)
    mult = {}
    for part in eps:
        mult[part] = mult.get(part, 0) + 1
    out = SchurPoly.one()
    for j, e in sorted(mult.items()):
        out = out * _plethysm_expansion((e,), (j,)).schur
    return out


def _compose_on_components(outer, inner: SchurPoly) -> SchurPoly:
    """Apply s_outer to each Schur component of ``inner`` separately.

    This is composition in the semisimple sense: the inner value is first
    split into its irreducible summands and the outer shape is applied to
    each, which is how the branching tables for a decomposable inner
    module are assembled.
    """
    out = SchurPoly()
    for mu, c in inner.terms.items():
        out = out + _plethysm_expansion(tuple(outer), mu).schur * c
    return out


@functools.lru_cache(maxsize=None)
def _pieri(alpha, i) -> SchurPoly:
    if i == 0:
        return SchurPoly.schur(alpha)
    return SchurPoly.schur(alpha) * SchurPoly.schur((i,))


def g_sym(alpha, beta, gamma) -> SchurPoly:
    """The branching symmetric function G^alpha_{beta, gamma}.

    Zero parts of gamma are dropped; for nonempty alpha, gamma carries
    |beta| - ell(gamma) distinguished zero parts.  Returns 0 exactly when
    the side conditions fail: alpha empty with ell(gamma) != |beta|, or
    alpha nonempty with ell(gamma) > |beta|.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    gamma = tuple(x for x in tuple(gamma) if x)
    b = sum(beta)
    if alpha == ():
        if len(gamma) != b:
            return SchurPoly()
        c0 = 0
    else:
        if len(gamma) > b:
            return SchurPoly()
        c0 = b - len(gamma)
    mult = {}
    for part in gamma:
        mult[part] = mult.get(part, 0) + 1
    if c0:
        mult[0] = c0
    sizes = sorted(mult.items(), reverse=True)  # [(i, c_i)] with c_i > 0
    total = SchurPoly()
    choices = [partitions_of(c) for _, c in sizes]

    def descend(idx, seq, acc):
        nonlocal total
        if idx == len(sizes):
            coeff = generalized_lr(beta, tuple(seq))
            if coeff:
                total = total + acc * coeff
            return
        i, _ = sizes[idx]
        for piece in choices[idx]:
            if alpha == ():
                factor = (_plethysm_expansion(piece, (i,)).schur if i
                          else SchurPoly.schur(piece))
            else:
                factor = _compose_on_components(piece, _pieri(alpha, i))
            if factor:
                descend(idx + 1, seq + [piece], acc * factor)

    descend(0, [], SchurPoly.one())
    return total
