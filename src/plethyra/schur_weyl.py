"""Exact verification of the tensor-space actions.

The symmetric group (or a wreath product subgroup) acts diagonally on the
left of tensor space; partition diagrams (or ramified diagrams) act on the
right.  All matrices are sparse with exact integer entries.  The
faithfulness rank is XOR elimination over GF(2) on the distinct columns of
the 0/1 diagram actions, certified exact by reaching their count; the
columns are read from block valuations, not from the action matrices.
Commutation is checked as invariance of each ramified generator's matrix
under relabelling both indices by a wreath generator, which is what the
two matrix products agreeing amounts to.  Floating point is banned here:
rank and commutation claims are theorems.
"""

from __future__ import annotations

import itertools
import operator

from plethyra.diagrams import PartitionDiagram, RamifiedDiagram
from plethyra.partitions import line_set_partitions

DEFAULT_ENTRY_CAP = 10**6


class BudgetError(ValueError):
    """The instance would exceed the configured sparse-entry budget."""


class SparseExactMatrix:
    """Sparse exact matrix keyed by (first index, second index).

    Left actions store operators keyed (dest, src) and compose with ``@``
    in application order; right actions store row-convention matrices
    keyed (src, dest) so that the matrix of a product of diagrams is the
    ``@`` product of their matrices.
    """

    __slots__ = ("rows",)

    def __init__(self, entries=None):
        self.rows = {}
        for (first, second), val in (entries or {}).items():
            if val:
                self.rows.setdefault(first, {})[second] = val

    def transpose(self) -> "SparseExactMatrix":
        return SparseExactMatrix(
            {(second, first): val for (first, second), val in self.entries()}
        )

    def entries(self):
        for dest, row in self.rows.items():
            for src, val in row.items():
                yield (dest, src), val

    def nnz(self):
        return sum(len(row) for row in self.rows.values())

    def __matmul__(self, other: "SparseExactMatrix") -> "SparseExactMatrix":
        out = SparseExactMatrix()
        rows = out.rows
        for dest, row in self.rows.items():
            acc = {}
            for mid, val in row.items():
                for src, val2 in other.rows.get(mid, {}).items():
                    acc[src] = acc.get(src, 0) + val * val2
            acc = {src: v for src, v in acc.items() if v}
            if acc:
                rows[dest] = acc
        return out

    def __eq__(self, other):
        return isinstance(other, SparseExactMatrix) and self.rows == other.rows

    def __add__(self, other):
        out = SparseExactMatrix()
        for (dest, src), val in self.entries():
            out.rows.setdefault(dest, {})[src] = val
        for (dest, src), val in other.entries():
            row = out.rows.setdefault(dest, {})
            new = row.get(src, 0) + val
            if new:
                row[src] = new
            else:
                row.pop(src, None)
        out.rows = {d: r for d, r in out.rows.items() if r}
        return out

    def scale(self, c):
        return SparseExactMatrix({k: c * v for k, v in self.entries()})

    def __repr__(self):
        return f"SparseExactMatrix({self.nnz()} entries)"


def _check_budget(estimate: int, cap: int):
    if estimate > cap:
        raise BudgetError(
            f"estimated {estimate} stored entries exceeds the cap {cap}"
        )


def sym_action(sigma, d: int, r: int, cap: int = DEFAULT_ENTRY_CAP) -> SparseExactMatrix:
    """Diagonal left action of a permutation of {1..d} on (C^d)^(x r).

    ``sigma`` is one-line, 1-based.  The matrix is the 0/1 permutation
    matrix with d^r ones, keyed by multi-index tuples.
    """
    _check_budget(d**r, cap)
    entries = {}
    for src in itertools.product(range(1, d + 1), repeat=r):
        dest = tuple(sigma[i - 1] for i in src)
        entries[(dest, src)] = 1
    return SparseExactMatrix(entries)


def _valuations(blocks, assignments, r: int):
    """The values of vertices 1..2r under each assignment of one value per
    block.  Blocks are nonempty, so distinct assignments give distinct
    valuations."""
    for values in assignments:
        of = [0] * (2 * r)
        for block, val in zip(blocks, values):
            for v in block:
                of[v - 1] = val
        yield of


def diagram_action(diag: PartitionDiagram, d: int, r: int,
                   cap: int = DEFAULT_ENTRY_CAP) -> SparseExactMatrix:
    """Right action of a diagram basis element on (C^d)^(x r).

    Row convention, keys (src, dest): the entry is 1 when the combined
    multi-index is constant on every block; one free value per block, so
    the matrix has d^(number of blocks) entries.
    """
    if (diag.r, diag.s) != (r, r):
        raise ValueError("diagram_action needs an (r, r)-diagram")
    _check_budget(d ** len(diag.blocks), cap)
    values = itertools.product(range(1, d + 1), repeat=len(diag.blocks))
    return SparseExactMatrix({(tuple(of[:r]), tuple(of[r:])): 1
                              for of in _valuations(diag.blocks, values, r)})


def _role_blocks(rd: RamifiedDiagram, swap_roles: bool):
    """The blocks that constrain subscripts and those that constrain
    superscripts: inner and outer, or the other way round."""
    if swap_roles:
        return rd.outer.blocks, rd.inner.blocks
    return rd.inner.blocks, rd.outer.blocks


def ramified_action(rd: RamifiedDiagram, m: int, n: int, r: int,
                    cap: int = DEFAULT_ENTRY_CAP,
                    swap_roles: bool = False) -> SparseExactMatrix:
    """Right action of a ramified diagram on (C^(mn))^(x r).

    Row convention, keys (src, dest).  The inner partition constrains
    subscripts (range m) and the outer partition superscripts (range n);
    indices are flattened through v^j_i = e^((j-1)m+i),
    as the subscript plus the superscript's offset (j-1)m.  ``swap_roles``
    deliberately exchanges the two rules and serves as a negative control.
    """
    if (rd.r, rd.s) != (r, r):
        raise ValueError("ramified_action needs an (r, r)-ramified diagram")
    sub_blocks, sup_blocks = _role_blocks(rd, swap_roles)
    _check_budget(m ** len(sub_blocks) * n ** len(sup_blocks), cap)
    subs = _valuations(sub_blocks, itertools.product(range(1, m + 1), repeat=len(sub_blocks)), r)
    offsets = [[(j - 1) * m for j in j_of] for j_of in _valuations(
        sup_blocks, itertools.product(range(1, n + 1), repeat=len(sup_blocks)), r)]
    out = SparseExactMatrix()
    rows = out.rows
    for i_of in subs:
        for off in offsets:
            flat = tuple(map(operator.add, i_of, off))
            rows.setdefault(flat[:r], {})[flat[r:]] = 1
    return out


# ---------------------------------------------------------------------------
# Wreath products.


def wreath_embed(sigmas, pi, m: int, n: int):
    """Embed (sigma_1, ..., sigma_n; pi) into the symmetric group on mn
    points: (j-1)m + i maps to (pi(j)-1)m + sigma_{pi(j)}(i)."""
    if len(sigmas) != n or any(len(s) != m for s in sigmas):
        raise ValueError("need n permutations of m letters")
    out = [0] * (m * n)
    for j in range(1, n + 1):
        pj = pi[j - 1]
        for i in range(1, m + 1):
            out[(j - 1) * m + i - 1] = (pj - 1) * m + sigmas[pj - 1][i - 1]
    return tuple(out)


def wreath_generators(m: int, n: int):
    """Generators of the wreath product: base transpositions in every copy
    and the adjacent top transpositions."""
    gens = []
    id_m = tuple(range(1, m + 1))
    id_n = tuple(range(1, n + 1))
    for copy in range(n):
        for i in range(1, m):
            sig = list(id_m)
            sig[i - 1], sig[i] = sig[i], sig[i - 1]
            sigmas = [id_m] * n
            sigmas[copy] = tuple(sig)
            gens.append((tuple(sigmas), id_n))
    for j in range(1, n):
        pi = list(id_n)
        pi[j - 1], pi[j] = pi[j], pi[j - 1]
        gens.append(((id_m,) * n, tuple(pi)))
    return gens


def ramified_generators(r: int):
    """The Coxeter, one-strand and two-strand generators of the ramified
    algebra, each as a ramified diagram: s_i, p_i, p_i^(2), p_{i,i+1},
    p_{i,i+1}^(2)."""
    gens = []
    ident = PartitionDiagram.identity(r)
    for i in range(1, r):
        perm = list(range(1, r + 1))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        gens.append(RamifiedDiagram.diagonal(PartitionDiagram.from_permutation(perm)))
    for i in range(1, r + 1):
        p = PartitionDiagram.p_gen(r, i)
        gens.append(RamifiedDiagram.diagonal(p))
        gens.append(RamifiedDiagram(p, ident))  # inner cut only
    for i in range(1, r):
        pp = PartitionDiagram.pp_gen(r, i, i + 1)
        gens.append(RamifiedDiagram.diagonal(pp))
        gens.append(RamifiedDiagram(ident, pp))  # outer merge only
    return gens


def check_commute(m: int, n: int, r: int, cap: int = DEFAULT_ENTRY_CAP,
                  swap_roles: bool = False) -> bool:
    """True when every wreath generator action commutes with every ramified
    generator action on (C^(mn))^(x r).

    With P the permutation operator of a wreath generator sigma and B a
    ramified generator's operator, (PB)[x, z] = B[sigma^-1 x, z] and
    (BP)[x, z] = B[x, sigma z], so PB = BP exactly when B[sigma x, sigma z]
    = B[x, z] for all x, z.  Since sigma is a bijection it suffices that
    every stored entry's image is stored with the same value; the check
    reads each stored entry once per wreath generator and multiplies no
    matrices.  The work, (wreath generators) x (stored entries of the
    ramified generators), is budgeted against ``cap`` before anything is
    built.
    """
    if min(m, n, r) < 0:
        raise ValueError(f"check_commute requires m, n, r >= 0: m = {m}, n = {n}, r = {r}")
    d = m * n
    _check_budget(d**r * d, cap)
    algebra_gens = ramified_generators(r)
    # n(m-1) base transpositions and n-1 top transpositions
    group_count = n * max(m - 1, 0) + max(n - 1, 0)
    stored = sum(m ** len(sub) * n ** len(sup)
                 for sub, sup in (_role_blocks(rd, swap_roles) for rd in algebra_gens))
    _check_budget(group_count * stored, cap)
    # one table of d^r index images per wreath generator; there are fewer
    # than d generators, so the d^(r+1) check above bounds the tables
    indices = list(itertools.product(range(1, d + 1), repeat=r))
    relabels = []
    for sigmas, pi in wreath_generators(m, n):
        image = (0,) + wreath_embed(sigmas, pi, m, n)  # 1-based lookup
        relabels.append({x: tuple(map(image.__getitem__, x)) for x in indices})
    for rd in algebra_gens:
        rows = ramified_action(rd, m, n, r, cap=cap, swap_roles=swap_roles).rows
        for relabel in relabels:
            for src, row in rows.items():
                if rows.get(relabel[src]) != {relabel[dest]: val for dest, val in row.items()}:
                    return False
    return True


# ---------------------------------------------------------------------------
# Faithfulness rank.


def _gf2_rank(vectors) -> int:
    """Rank over GF(2) of int bitmasks: each vector is reduced by XOR at its
    lowest set bit against the pivot owning that bit, or becomes its pivot."""
    pivots = {}
    for vec in vectors:
        while vec:
            low = vec & -vec
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = vec
                break
            vec ^= pivot
    return len(pivots)


def faithfulness_rank(d: int, r: int, cap: int = DEFAULT_ENTRY_CAP) -> int:
    """Rank of the span of all (r, r)-diagram actions on (C^d)^(x r).

    Each column, keyed by the combined multi-index src + dest, is the
    bitmask of the diagrams constant on its blocks, the ones with a 1 there;
    each of a diagram's block valuations sets its bit in one column, and no
    ``diagram_action`` matrix is built.  The rank over GF(2) of the distinct
    columns is at most the rational rank, which is at most their number, so
    a GF(2) rank that reaches the count is the exact rank.  It always does:
    the distinct columns are the set-partitions with at most d blocks, and
    their rows hold the unitriangular zeta matrix of the refinement order.
    """
    if d < 0 or r < 0:
        raise ValueError(f"faithfulness_rank requires d, r >= 0: d = {d}, r = {r}")
    diagrams = line_set_partitions(2 * r)
    _check_budget(sum(d ** len(blocks) for blocks in diagrams), cap)
    columns = {}
    for i, blocks in enumerate(diagrams):
        bit = 1 << i
        values = itertools.product(range(1, d + 1), repeat=len(blocks))
        for of in _valuations(blocks, values, r):
            key = tuple(of)
            columns[key] = columns.get(key, 0) | bit
    distinct = set(columns.values())
    rank = _gf2_rank(distinct)
    if rank != len(distinct):
        raise ValueError(f"uncertified rank: GF(2) rank {rank} is below the {len(distinct)} "
                         f"distinct columns at d = {d}, r = {r}; arithmetic bug upstream")
    return rank
