"""Independent oracles used to freeze expected values.

Each oracle deliberately avoids the code path it checks: plethysm via raw
monomial substitution, tableaux by brute enumeration, Moebius by the
closed product formula, LR coefficients through character sums.
"""

import math
from fractions import Fraction
from functools import lru_cache


def ssyt_monomials(shape, nvars):
    """Exponent vectors of all semistandard tableaux entries <= nvars."""
    shape = tuple(shape)
    if not shape:
        return [(0,) * nvars]
    out = []

    def rows(i):
        if i == len(shape):
            out.append([row[:] for row in grid[: len(shape)]])
            return
        width = shape[i]

        def cells(j, prev):
            if j == width:
                rows(i + 1)
                return
            lo = prev
            if i > 0 and j < shape[i - 1]:
                lo = max(lo, grid[i - 1][j] + 1)
            for v in range(lo, nvars + 1):
                grid[i][j] = v
                cells(j + 1, v)

        cells(0, 1)

    grid = [[0] * shape[0] for _ in shape]
    rows(0)
    vecs = []
    for tab in out:
        vec = [0] * nvars
        for i, row in enumerate(tab):
            for j in range(shape[i]):
                vec[row[j] - 1] += 1
        vecs.append(tuple(vec))
    return vecs


def monomial_plethysm(nu, mu, nvars=None):
    """Schur expansion of s_nu o s_mu by substituting monomials of s_mu.

    Returns a dict partition -> coefficient, computed by greedy
    subtraction of leading monomials.
    """
    nu, mu = tuple(nu), tuple(mu)
    degree = sum(nu) * sum(mu)
    if nvars is None:
        nvars = degree
    mu_vecs = ssyt_monomials(mu, nvars)
    poly = {}
    for tab_vec_indices in ssyt_monomials(nu, len(mu_vecs)):
        # tab_vec_indices is an exponent vector over the monomial alphabet
        total = [0] * nvars
        for idx, mult in enumerate(tab_vec_indices):
            if mult:
                for pos in range(nvars):
                    total[pos] += mult * mu_vecs[idx][pos]
        key = tuple(total)
        poly[key] = poly.get(key, 0) + 1
    result = {}
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        lam = tuple(x for x in lead if x)
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)), (
            "leading exponent is not a partition; polynomial not symmetric"
        )
        result[lam] = coeff
        for vec in ssyt_monomials(lam, nvars):
            new = poly.get(vec, 0) - coeff
            if new:
                poly[vec] = new
            else:
                poly.pop(vec, None)
    return {k: v for k, v in result.items() if v}


def brute_standard_tableaux(lam):
    """Count standard tableaux by direct recursive filling."""
    lam = tuple(lam)
    n = sum(lam)
    if n == 0:
        return 1
    count = 0
    grid = [[0] * r for r in lam]

    # place v in any cell whose left and upper neighbours are filled
    def place(v):
        nonlocal count
        if v > n:
            count += 1
            return
        for i, row in enumerate(lam):
            for j in range(row):
                if grid[i][j]:
                    continue
                if j > 0 and not grid[i][j - 1]:
                    continue
                if i > 0 and not grid[i - 1][j]:
                    continue
                grid[i][j] = v
                place(v + 1)
                grid[i][j] = 0

    place(1)
    return count


def bell_by_recurrence(n):
    vals = [1]
    for m in range(n):
        vals.append(sum(math.comb(m, k) * vals[k] for k in range(m + 1)))
    return vals[n]


def mobius_closed_form(fine, coarse):
    """Product formula for the set-partition lattice Moebius function."""
    lookup = {}
    for idx, block in enumerate(coarse):
        for v in block:
            lookup[v] = idx
    inside = {}
    for block in fine:
        owners = {lookup[v] for v in block}
        assert len(owners) == 1
        idx = owners.pop()
        inside[idx] = inside.get(idx, 0) + 1
    out = 1
    for count in inside.values():
        out *= (-1) ** (count - 1) * math.factorial(count - 1)
    return out


def lr_by_characters(lam, mu, nu):
    """c^lam_{mu nu} as a character inner product (independent of tableaux)."""
    from plethyra.partitions import partitions_of
    from plethyra.symfunc import character, zee

    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    total = Fraction(0)
    for rho1 in partitions_of(sum(mu)):
        chi1 = character(mu, rho1)
        if not chi1:
            continue
        for rho2 in partitions_of(sum(nu)):
            chi2 = character(nu, rho2)
            if not chi2:
                continue
            merged = tuple(sorted(rho1 + rho2, reverse=True))
            total += Fraction(chi1, zee(rho1)) * Fraction(chi2, zee(rho2)) * character(lam, merged)
    assert total.denominator == 1
    return int(total)


def characters_by_jacobi_trudi(lam):
    """{rho: chi^lam(rho)} for every rho of |lam|, from the Jacobi-Trudi
    determinant s_lam = det(h_{lam_i - i + j}), or its dual in the e_a when
    lam has more rows than columns, multiplied out in class functions: h_a
    is the trivial character of S_a, e_a the sign character, and
    (fg)(rho) = sum over sigma + tau = rho of
    prod_k C(m_k(rho), m_k(sigma)) f(sigma) g(tau).  No border strips."""
    from itertools import permutations

    from plethyra.partitions import conjugate, partitions_of

    lam = tuple(lam)
    dual = len(lam) > (lam[0] if lam else 0)
    rows = conjugate(lam) if dual else lam

    def factor(a):
        if a < 0:
            return {}
        return {rho: (-1) ** (a - len(rho)) if dual else 1 for rho in partitions_of(a)}

    def times(f, g):
        out = {}
        for sigma, x in f.items():
            for tau, y in g.items():
                rho = tuple(sorted(sigma + tau, reverse=True))
                weight = 1
                for k in set(sigma):
                    weight *= math.comb(rho.count(k), sigma.count(k))
                out[rho] = out.get(rho, 0) + weight * x * y
        return out

    total = {}
    for perm in permutations(range(len(rows))):
        inversions = sum(1 for i in range(len(perm)) for j in range(i) if perm[j] > perm[i])
        term = {(): 1}
        for i, j in enumerate(perm):
            term = times(term, factor(rows[i] - i + j))
        for rho, value in term.items():
            total[rho] = total.get(rho, 0) + (-1) ** inversions * value
    return {rho: total.get(rho, 0) for rho in partitions_of(sum(lam))}


def ramified_branching_by_summands(alpha, beta, kappa):
    """rc(alpha^beta, kappa) as the sum of <G^alpha_{beta,gamma} H_eps, s_kappa>
    over every pair (gamma, eps), each product built in full."""
    from plethyra.coefficients import DomainError
    from plethyra.partitions import (
        as_partition,
        partitions_exact_length,
        partitions_no_singletons,
        partitions_of,
    )
    from plethyra.symfunc import SchurPoly, g_sym, h_eps

    alpha, beta, kappa = as_partition(alpha), as_partition(beta), as_partition(kappa)
    r = sum(kappa)
    a, b = sum(alpha), sum(beta)
    if r < a * b:
        raise DomainError(f"rc requires |kappa| >= |alpha|*|beta|: {r} < {a * b}")
    s_kappa = SchurPoly.schur(kappa)
    total = 0
    for p in range(r - a * b + 1):
        q = r - a * b - p
        eps_list = partitions_no_singletons(q)
        if not eps_list:
            continue
        if alpha == ():
            gammas = partitions_exact_length(p, b)
        else:
            gammas = [g for g in partitions_of(p) if len(g) <= b]
        for gamma in gammas:
            g_poly = g_sym(alpha, beta, gamma)
            if not g_poly:
                continue
            for eps in eps_list:
                total += (g_poly * h_eps(eps)).inner(s_kappa)
    return total


def brute_cayley_tableaux(m, n, k, r):
    """Enumerate two-row bounded tableaux directly."""
    width = n - k
    count = 0

    def fill_top(j, prev, top):
        nonlocal count
        if j == width:
            fill_bottom(0, 0, top, 0)
            return
        for v in range(prev, m + 1):
            fill_top(j + 1, v, top + [v])

    def fill_bottom(j, prev, top, acc):
        nonlocal count
        if j == k:
            if acc + sum(top) == r:
                count += 1
            return
        for v in range(max(prev, top[j] + 1), m + 1):
            fill_bottom(j + 1, v, top, acc + v)

    fill_top(0, 0, [])
    return count


def count_partitions_brute(n):
    """Partitions of n by naive recursion (pentagonal-free)."""

    @lru_cache(maxsize=None)
    def rec(n, max_part):
        if n == 0:
            return 1
        return sum(rec(n - k, k) for k in range(min(n, max_part), 0, -1))

    return rec(n, n)


def dense_rank(matrix):
    """Rank of a dense matrix (list of equal-length rows) by Gauss-Jordan
    elimination over Fraction, column by column."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank
