"""Independent oracles used to freeze expected values.

Each oracle deliberately avoids the code path it checks: plethysm via raw
monomial substitution, tableaux by brute enumeration, Moebius by
recursive inversion, LR coefficients through character sums, branching
functions by generalized LR coefficients over pieces, commutation by
matrix products, ranks by dense elimination, associativity over every
triple.
"""

import itertools
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


@lru_cache(maxsize=None)
def mobius_by_recursion(fine, coarse):
    """Moebius function of the coarsening order from its definition:
    mu(x, x) = 1, and mu(fine, .) sums to zero over every interval
    [fine, coarse] with fine != coarse.  Arguments in canonical form."""
    from plethyra.partitions import coarsenings, is_coarser

    if not is_coarser(fine, coarse):
        raise ValueError("mobius requires comparable set-partitions")
    if fine == coarse:
        return 1
    return -sum(mobius_by_recursion(fine, mid) for mid in coarsenings(fine)
                if mid != coarse and is_coarser(mid, coarse))


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


def g_sym_by_pieces(alpha, beta, gamma):
    """G^alpha_{beta,gamma} as a class function, by the pieces: each part
    size i of gamma (zero parts included, |beta| - ell(gamma) of them) with
    multiplicity c takes a piece |- c, each sequence of pieces is weighted
    by its generalized LR coefficient, and a piece contributes the sum of
    its plethysms with the Schur components of s_alpha * h_i.  No
    Young-subgroup restriction."""
    from plethyra.partitions import partitions_of
    from plethyra.symfunc import (
        PowerSumPoly, SchurPoly, _plethysm_expansion, generalized_lr, weighted_sum)

    alpha, beta = tuple(alpha), tuple(beta)
    gamma = tuple(x for x in gamma if x)
    zeros = sum(beta) - len(gamma)
    if zeros < 0 or (zeros and alpha == ()):
        return PowerSumPoly()
    mult = {i: gamma.count(i) for i in set(gamma)}
    if zeros:
        mult[0] = zeros
    levels = []
    for i, c in sorted(mult.items(), reverse=True):
        components = (SchurPoly.schur(alpha) * SchurPoly.schur((i,) if i else ())).terms.items()
        levels.append([(piece, weighted_sum((k, _plethysm_expansion(piece, mu))
                                            for mu, k in components))
                       for piece in partitions_of(c)])

    def descend(idx, seq, acc):
        if idx == len(levels):
            coeff = generalized_lr(beta, tuple(seq))
            if coeff:
                yield coeff, acc
            return
        for piece, factor in levels[idx]:
            yield from descend(idx + 1, seq + [piece], acc * factor)

    return weighted_sum(descend(0, [], PowerSumPoly({(): 1})))


def ramified_branching_by_summands(alpha, beta, kappa):
    """rc(alpha^beta, kappa) as the sum of <G^alpha_{beta,gamma} H_eps, s_kappa>
    over every pair (gamma, eps): G from ``g_sym_by_pieces`` and the
    package's h_eps are converted to Schur form and each product is
    multiplied out by LR coefficients, not in the class functions that
    assemble F."""
    from plethyra.coefficients import DomainError
    from plethyra.partitions import (
        as_partition,
        partitions_no_singletons,
        partitions_of,
    )
    from plethyra.symfunc import SchurPoly, h_eps, powersum_to_schur

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
        gammas = [g for g in partitions_of(p) if len(g) == b or (alpha and len(g) < b)]
        for gamma in gammas:
            g_poly = powersum_to_schur(g_sym_by_pieces(alpha, beta, gamma))
            if not g_poly:
                continue
            for eps in eps_list:
                total += (g_poly * powersum_to_schur(h_eps(eps))).inner(s_kappa)
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


def commute_by_products(m, n, r, swap_roles=False):
    """check_commute by matrix products: every wreath generator's
    permutation matrix against every transposed ramified generator matrix,
    compared as a @ b == b @ a."""
    from plethyra.schur_weyl import (
        ramified_action,
        ramified_generators,
        sym_action,
        wreath_embed,
        wreath_generators,
    )

    d = m * n
    group_mats = [sym_action(wreath_embed(sigmas, pi, m, n), d, r)
                  for sigmas, pi in wreath_generators(m, n)]
    algebra_ops = [ramified_action(rd, m, n, r, swap_roles=swap_roles).transpose()
                   for rd in ramified_generators(r)]
    return all(a @ b == b @ a for a in group_mats for b in algebra_ops)


def compose_by_search(d1, d2):
    """compose by depth-first search over labelled vertices: d1 joins its
    northern vertices ("n", i) and the middle row ("m", j), d2 joins the
    middle row and its southern vertices ("s", l).  Returns the blocks over
    1..k+s (("s", l) as k+l), ordered by minima, and the number of
    components that meet only the middle row."""
    k, r = d1.r, d1.s
    adjacent = {}
    for d, rows in ((d1, ("n", "m")), (d2, ("m", "s"))):
        for block in d.blocks:
            labels = [(rows[0], v) if v <= d.r else (rows[1], v - d.r) for v in block]
            for x in labels:
                adjacent.setdefault(x, set()).update(labels)
    vertices = ([("n", i) for i in range(1, k + 1)] + [("m", j) for j in range(1, r + 1)]
                + [("s", l) for l in range(1, d2.s + 1)])
    seen, blocks, loops = set(), [], 0
    for start in vertices:
        if start in seen:
            continue
        seen.add(start)
        stack, component = [start], []
        while stack:
            x = stack.pop()
            component.append(x)
            for y in adjacent[x] - seen:
                seen.add(y)
                stack.append(y)
        outer = sorted(i if row == "n" else k + i for row, i in component if row != "m")
        if outer:
            blocks.append(tuple(outer))
        else:
            loops += 1
    return sorted(blocks), loops


def associative_by_triples(table):
    """Associativity of a product table over every triple (i, j, k), loop
    counts included: ``table[i][j]`` is (loops, index of the product).
    Returns the first failing triple, or None."""
    for i, ti in enumerate(table):
        for j, (t1, ij) in enumerate(ti):
            tij, tj = table[ij], table[j]
            for k in range(len(table)):
                t2, left = tij[k]
                u1, jk = tj[k]
                u2, right = ti[jk]
                if left != right or t1 + t2 != u1 + u2:
                    return i, j, k
    return None


def v0_choices_by_rejection(r, a, b):
    """The V^0_r(a^b) basis choices of ``diagrams._v0_choices``, by trying
    every b-subset of blocks and rejecting those of the wrong sizes."""
    from plethyra.partitions import line_set_partitions

    k = max(a, 1) * b
    if k > r:
        raise ValueError(f"v0_basis needs {k} <= r = {r}")
    for blocks in line_set_partitions(r):
        for prop_idx in itertools.combinations(range(len(blocks)), b):
            prop = [blocks[i] for i in prop_idx]
            rest = [bl for i, bl in enumerate(blocks) if i not in prop_idx]
            if any(len(bl) < max(a, 1) for bl in prop) or any(len(bl) < 2 for bl in rest):
                continue
            for pairing in itertools.product(*(itertools.combinations(bl, a) for bl in prop)):
                yield prop, pairing, rest
