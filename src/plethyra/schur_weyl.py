"""Exact verification of the tensor-space actions.

The symmetric group (or a wreath product subgroup) acts diagonally on the
left of tensor space; partition diagrams (or ramified diagrams) act on the
right.  All matrices are sparse with exact integer entries, and the rank
computation is fraction-free echelon elimination over the integers.
Floating point is banned here: rank and commutation claims are theorems.
"""

from __future__ import annotations

import itertools
from math import gcd

from plethyra.diagrams import PartitionDiagram, RamifiedDiagram
from plethyra.partitions import canonical_set_partition, line_set_partitions

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


def _block_action(diag: PartitionDiagram, d: int, r: int, cap: int, name: str,
                  assignments) -> SparseExactMatrix:
    """The 0/1 matrix keyed (src, dest) with one entry per assignment of
    values in 1..d to the blocks of ``diag``."""
    if (diag.r, diag.s) != (r, r):
        raise ValueError(f"{name} needs an (r, r)-diagram")
    _check_budget(d ** len(diag.blocks), cap)
    return SparseExactMatrix({(tuple(of[:r]), tuple(of[r:])): 1
                              for of in _valuations(diag.blocks, assignments, r)})


def diagram_action(diag: PartitionDiagram, d: int, r: int,
                   cap: int = DEFAULT_ENTRY_CAP) -> SparseExactMatrix:
    """Right action of a diagram basis element on (C^d)^(x r).

    Row convention, keys (src, dest): the entry is 1 when the combined
    multi-index is constant on every block; one free value per block, so
    the matrix has d^(number of blocks) entries.
    """
    return _block_action(diag, d, r, cap, "diagram_action",
                         itertools.product(range(1, d + 1), repeat=len(diag.blocks)))


def orbit_action(diag: PartitionDiagram, d: int, r: int,
                 cap: int = DEFAULT_ENTRY_CAP) -> SparseExactMatrix:
    """Right action of an orbit basis element: block values must be distinct."""
    return _block_action(diag, d, r, cap, "orbit_action",
                         itertools.permutations(range(1, d + 1), len(diag.blocks)))


def flatten_index(i: int, j: int, m: int) -> int:
    """The identification v^j_i = e^((j-1)m + i)."""
    return (j - 1) * m + i


def ramified_action(rd: RamifiedDiagram, m: int, n: int, r: int,
                    cap: int = DEFAULT_ENTRY_CAP,
                    swap_roles: bool = False) -> SparseExactMatrix:
    """Right action of a ramified diagram on (C^(mn))^(x r).

    Row convention, keys (src, dest).  The inner partition constrains
    subscripts (range m) and the outer partition superscripts (range n);
    indices are flattened through v^j_i = e^((j-1)m+i).  ``swap_roles``
    deliberately exchanges the two rules and serves as a negative control.
    """
    if (rd.r, rd.s) != (r, r):
        raise ValueError("ramified_action needs an (r, r)-ramified diagram")
    sub_blocks, sup_blocks = rd.inner.blocks, rd.outer.blocks
    if swap_roles:
        sub_blocks, sup_blocks = sup_blocks, sub_blocks
    _check_budget(m ** len(sub_blocks) * n ** len(sup_blocks), cap)
    subs = _valuations(sub_blocks, itertools.product(range(1, m + 1), repeat=len(sub_blocks)), r)
    sups = list(_valuations(sup_blocks,
                            itertools.product(range(1, n + 1), repeat=len(sup_blocks)), r))
    entries = {}
    for i_of in subs:
        for j_of in sups:
            flat = [flatten_index(i, j, m) for i, j in zip(i_of, j_of)]
            entries[(tuple(flat[:r]), tuple(flat[r:]))] = 1
    return SparseExactMatrix(entries)


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
    generator action on (C^(mn))^(x r), by exact matrix equality."""
    if min(m, n, r) < 0:
        raise ValueError(f"check_commute requires m, n, r >= 0: m = {m}, n = {n}, r = {r}")
    d = m * n
    _check_budget(d**r * d, cap)
    group_mats = [
        sym_action(wreath_embed(sigmas, pi, m, n), d, r, cap=cap)
        for sigmas, pi in wreath_generators(m, n)
    ]
    algebra_ops = [
        ramified_action(rd, m, n, r, cap=cap, swap_roles=swap_roles).transpose()
        for rd in ramified_generators(r)
    ]
    for a in group_mats:
        for b in algebra_ops:
            if a @ b != b @ a:
                return False
    return True


# ---------------------------------------------------------------------------
# Faithfulness rank.


def _sparse_rank(rows) -> int:
    """Exact rank of a list of sparse integer row dicts, with every entry an int.

    Incremental echelon form: a row is reduced at its smallest column
    against the pivot row that owns that column, as a*row - b*pivot, and
    divided by the gcd of its entries; when no pivot row owns its smallest
    column it becomes one.  The rank is the number of pivot rows.  The
    input rows are not mutated.
    """
    pivots = {}
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            g = gcd(pivot[col], row[col])
            a, b = pivot[col] // g, row[col] // g
            new = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                val = new.get(c, 0) - b * v
                if val:
                    new[c] = val
                else:
                    del new[c]
            g = gcd(*new.values())
            row = {c: v // g for c, v in new.items()} if g > 1 else new
    return len(pivots)


def faithfulness_rank(d: int, r: int, cap: int = DEFAULT_ENTRY_CAP) -> int:
    """Rank of the span of all (r, r)-diagram actions on (C^d)^(x r)."""
    if d < 0 or r < 0:
        raise ValueError(f"faithfulness_rank requires d, r >= 0: d = {d}, r = {r}")
    diagrams = [
        PartitionDiagram(r, r, blocks) for blocks in line_set_partitions(2 * r)
    ]
    estimate = sum(d ** len(diag.blocks) for diag in diagrams)
    _check_budget(estimate, cap)
    return _sparse_rank(dict(diagram_action(diag, d, r, cap=cap).entries())
                        for diag in diagrams)


# ---------------------------------------------------------------------------
# Value types of pure tensors.


def value_type(index) -> tuple:
    """Set-partition of positions grouping equal values."""
    groups = {}
    for pos, val in enumerate(index, start=1):
        groups.setdefault(val, []).append(pos)
    return canonical_set_partition(groups.values())


def ramified_value_type(index) -> tuple:
    """(R, S) for a tuple of (subscript, superscript) pairs: S groups equal
    superscripts, R groups positions equal in both."""
    s_part = value_type(tuple(j for _, j in index))
    r_part = value_type(tuple((i, j) for i, j in index))
    return r_part, s_part


def minimal_r_tuple(r_part, s_part) -> tuple:
    """Left-to-right minimal subscripts realizing the ramified value
    type (R, S): a position copies its earlier R-partner, otherwise takes
    the least value unused by earlier R-classes inside its S-block."""
    from plethyra.partitions import is_coarser

    if not is_coarser(r_part, s_part):
        raise ValueError("minimal_r_tuple requires R to refine S")
    r_lookup = {}
    for block in r_part:
        for v in block:
            r_lookup[v] = block
    s_lookup = {}
    for block in s_part:
        for v in block:
            s_lookup[v] = block
    n = sum(len(b) for b in r_part)
    out = {}
    for pos in range(1, n + 1):
        earlier = [q for q in r_lookup[pos] if q < pos]
        if earlier:
            out[pos] = out[earlier[0]]
            continue
        used = {
            out[q]
            for q in s_lookup[pos]
            if q < pos and r_lookup[q] is not r_lookup[pos]
        }
        val = 1
        while val in used:
            val += 1
        out[pos] = val
    return tuple(out[pos] for pos in range(1, n + 1))
