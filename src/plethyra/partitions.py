"""Integer partitions, tableaux counts, and set-partitions of a line.

Partitions are plain tuples of weakly decreasing positive integers; ``()``
is the empty partition.  Every count is an exact Python integer.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple


class MarkedPartition(NamedTuple):
    """Pair (gamma, epsilon) with epsilon singleton-free."""

    gamma: tuple
    epsilon: tuple


def as_partition(parts: Iterable[int]) -> tuple:
    """Validate and canonicalize a partition given as any iterable."""
    lam = tuple(int(x) for x in parts)
    if any(x <= 0 for x in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def pad(alpha: tuple, total: int) -> tuple:
    """The partition alpha[total] = (total - |alpha|, alpha_1, ...)."""
    first = total - sum(alpha)
    if first < (alpha[0] if alpha else 0):
        raise ValueError(f"invalid padding: {total} - |{alpha}| is smaller "
                         f"than the first part of {alpha}")
    return (first,) + tuple(alpha) if first else ()


def conjugate(lam: tuple) -> tuple:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


def horizontal_strips(alpha: tuple, k: int) -> list:
    """Every lam containing alpha with lam/alpha a horizontal k-strip,
    alpha_i <= lam_i <= alpha_{i-1}: the Schur components of s_alpha h_k,
    each with coefficient 1 (Pieri, Macdonald I.5.16).  Lexicographically
    descending."""
    rows = tuple(alpha) + (0,)

    def grow(i, left):
        if i == len(rows):
            return [()] if not left else []
        room = left if i == 0 else min(left, rows[i - 1] - rows[i])
        return [(rows[i] + x,) + rest
                for x in range(room, -1, -1) for rest in grow(i + 1, left - x)]

    return [lam if lam[-1] else lam[:-1] for lam in grow(0, k)]


@functools.lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None, min_part: int = 1) -> tuple:
    """All partitions of n with parts in [min_part, max_part], ordered
    lexicographically descending."""
    if n < 0:
        return ()
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(max_part, min_part - 1, -1):
        for rest in partitions_of(n - first, first, min_part):
            out.append((first,) + rest)
    return tuple(out)


def partition_count_series(n: int) -> list:
    """p(0), ..., p(n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def partitions_no_singletons(q: int) -> tuple:
    """All partitions of q with every part at least 2; {()} when q = 0."""
    return partitions_of(q, min_part=2)


def marked_partitions(b: int, r: int, cap: int | None = None) -> list:
    """All b-marked partitions of r: ell(gamma) = b, epsilon singleton-free.

    With ``cap`` given, additionally gamma_1 <= cap and epsilon_1 <= cap.
    """
    if b < 0 or r < 0 or (cap is not None and cap < 0):
        raise ValueError(
            f"marked_partitions requires b, r, cap >= 0: b = {b}, r = {r}, cap = {cap}")
    out = []
    for p in range(r + 1):
        for gamma in partitions_of(p, cap):
            if len(gamma) != b:
                continue
            for eps in partitions_no_singletons(r - p):
                if cap is not None and eps and eps[0] > cap:
                    continue
                out.append(MarkedPartition(gamma, eps))
    return out


def marked_partitions_distinct(b: int, r: int, cap: int | None = None) -> list:
    """The b-marked partitions of r whose gamma has pairwise distinct parts,
    with the optional ``cap`` of ``marked_partitions``."""
    return [
        mp
        for mp in marked_partitions(b, r, cap)
        if len(set(mp.gamma)) == len(mp.gamma)
    ]


def std_tableaux_count(lam: tuple) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    n = sum(lam)
    conj = conjugate(lam)
    den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            den *= row - j + conj[j] - i - 1
    return math.factorial(n) // den


def hook_content_series(lam: tuple, top: int, nvars: int | None = None) -> list:
    """Coefficients 0..top of s_lam(1, q, q^2, ...) in ``nvars`` variables
    (infinitely many when None), by the hook-content formula
    q^n(lam) prod_u (1 - q^(nvars + c(u))) / (1 - q^h(u)) (Stanley, EC2 7.21).

    A factor whose exponent exceeds ``top`` is 1 modulo q^(top+1); since
    h(u) >= lam_i - j, each row visits at most top + 1 cells per factor.
    """
    if top < 0 or (nvars is not None and nvars < 0):
        raise ValueError(
            f"hook_content_series requires top, nvars >= 0: top = {top}, nvars = {nvars}")
    series = [0] * (top + 1)
    shift = sum(i * row for i, row in enumerate(lam))
    if shift > top or (nvars is not None and len(lam) > nvars):
        return series
    series[shift] = 1
    for i, row in enumerate(lam):
        if nvars is not None:
            for j in range(min(row, top - nvars + i + 1)):
                e = nvars + j - i
                for t in range(top, e - 1, -1):
                    series[t] -= series[t - e]
        for j in range(max(0, row - top), row):
            h = row - j + sum(1 for below in lam[i + 1:] if below > j)
            for t in range(h, top + 1):
                series[t] += series[t - h]
    return series


def cayley_tableaux_count(m: int, n: int, k: int, r: int) -> int:
    """Count semistandard (n-k, k)-tableaux, entries in {0..m}, entry sum r
    (0 for r < 0 or r > mn)."""
    if min(m, n, k) < 0:
        raise ValueError(
            f"cayley_tableaux_count requires m, n, k >= 0: m = {m}, n = {n}, k = {k}")
    if n - k < k:
        raise ValueError(f"need n - k >= k, got n - k = {n - k} < k = {k}")
    if r < 0 or r > m * n:
        return 0
    shape = tuple(part for part in (n - k, k) if part)
    return hook_content_series(shape, r, m + 1)[r]


# ---------------------------------------------------------------------------
# Set-partitions of {1, ..., q} and the coarsening lattice.


def canonical_set_partition(blocks) -> tuple:
    """Canonical form: blocks sorted internally and ordered by minima."""
    return tuple(sorted((tuple(sorted(b)) for b in blocks if b), key=lambda b: b[0]))


@functools.lru_cache(maxsize=None)
def line_set_partitions(q: int) -> tuple:
    """All set-partitions of {1, ..., q} in canonical form."""
    if q == 0:
        return ((),)
    out = []
    for part in line_set_partitions(q - 1):
        # q is the largest vertex, so each extension stays canonical
        out.append(part + ((q,),))
        out.extend(part[:i] + (part[i] + (q,),) + part[i + 1:] for i in range(len(part)))
    return tuple(sorted(out))


def is_coarser(fine, coarse) -> bool:
    """True when ``fine`` and ``coarse`` have one ground set and every block
    of ``fine`` is contained in a block of ``coarse``."""
    owner = {v: idx for idx, block in enumerate(coarse) for v in block}
    if {v for block in fine for v in block} != owner.keys():
        return False
    return all(len({owner[v] for v in block}) == 1 for block in fine)


def mobius_coarsenings(part) -> list:
    """Every set-partition coarser than ``part`` (itself included), in canonical
    form, with mu(part, coarse).  A coarsening merges the blocks of ``part``
    along a set-partition of their indices; mu is read off its group sizes,
    (-1)^(k-1) (k-1)! for each group of k blocks (Rota 1964)."""
    blocks = canonical_set_partition(part)
    out = []
    for grouping in line_set_partitions(len(blocks)):
        # groups are ordered by their first index, so the merged blocks by minima
        coarse = tuple(tuple(sorted(v for i in group for v in blocks[i - 1]))
                       for group in grouping)
        mu = math.prod((-1) ** (len(g) - 1) * math.factorial(len(g) - 1) for g in grouping)
        out.append((coarse, mu))
    return out


# ---------------------------------------------------------------------------
# Generating function for marked partitions.


def stable_two_row_gf(b: int, n: int) -> list:
    """Coefficients 0..n of the b-marked-partition generating function.

    This is the series for (partitions with exactly b parts) times
    (partitions with no singleton parts).  For b >= 1 it agrees with
    z^b / ((1-z^2)...(1-z^b)) * P(z); at b = 0 the (1-z) factor of the
    singleton-free series survives, so the series is (1-z) P(z).
    """
    if b < 0 or n < 0:
        raise ValueError(f"stable_two_row_gf requires b, n >= 0: b = {b}, n = {n}")
    p = partition_count_series(n)
    if b == 0:
        return [p[i] - (p[i - 1] if i else 0) for i in range(n + 1)]
    series = [0] * (n + 1)
    for i in range(b, n + 1):
        series[i] = p[i - b]
    for j in range(2, b + 1):
        for i in range(j, n + 1):
            series[i] += series[i - j]
    return series
