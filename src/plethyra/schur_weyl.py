"""Exact verification of the tensor-space actions.

The symmetric group (or a wreath product subgroup) acts diagonally on the
left of tensor space; partition diagrams (or ramified diagrams) act on the
right.  All matrices are sparse with exact integer or rational entries,
and the rank computation is exact Gaussian elimination.  Floating point
is banned here: rank and commutation claims are theorems.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

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

    def entry(self, first, second):
        return self.rows.get(first, {}).get(second, 0)

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


def diagram_action(diag: PartitionDiagram, d: int, r: int,
                   cap: int = DEFAULT_ENTRY_CAP) -> SparseExactMatrix:
    """Right action of a diagram basis element on (C^d)^(x r).

    Row convention, keys (src, dest): the entry is 1 when the combined
    multi-index is constant on every block; one free value per block, so
    the matrix has d^(number of blocks) entries.
    """
    if (diag.r, diag.s) != (r, r):
        raise ValueError("diagram_action needs an (r, r)-diagram")
    blocks = diag.blocks
    _check_budget(d ** len(blocks), cap)
    entries = {}
    for values in itertools.product(range(1, d + 1), repeat=len(blocks)):
        combined = {}
        for block, val in zip(blocks, values):
            for v in block:
                combined[v] = val
        src = tuple(combined[i] for i in range(1, r + 1))
        dest = tuple(combined[r + i] for i in range(1, r + 1))
        entries[(src, dest)] = entries.get((src, dest), 0) + 1
    return SparseExactMatrix(entries)


def orbit_action(diag: PartitionDiagram, d: int, r: int,
                 cap: int = DEFAULT_ENTRY_CAP) -> SparseExactMatrix:
    """Right action of an orbit basis element: block values must be distinct."""
    if (diag.r, diag.s) != (r, r):
        raise ValueError("orbit_action needs an (r, r)-diagram")
    blocks = diag.blocks
    _check_budget(d ** len(blocks), cap)
    entries = {}
    for values in itertools.permutations(range(1, d + 1), len(blocks)):
        combined = {}
        for block, val in zip(blocks, values):
            for v in block:
                combined[v] = val
        src = tuple(combined[i] for i in range(1, r + 1))
        dest = tuple(combined[r + i] for i in range(1, r + 1))
        entries[(src, dest)] = 1
    return SparseExactMatrix(entries)


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
    inner_blocks, outer_blocks = rd.inner.blocks, rd.outer.blocks
    if swap_roles:
        inner_range, outer_range = n, m
    else:
        inner_range, outer_range = m, n
    _check_budget(inner_range ** len(inner_blocks) * outer_range ** len(outer_blocks), cap)
    entries = {}
    for ivals in itertools.product(range(1, inner_range + 1), repeat=len(inner_blocks)):
        i_of = {}
        for block, val in zip(inner_blocks, ivals):
            for v in block:
                i_of[v] = val
        for jvals in itertools.product(range(1, outer_range + 1), repeat=len(outer_blocks)):
            j_of = {}
            for block, val in zip(outer_blocks, jvals):
                for v in block:
                    j_of[v] = val
            if swap_roles:
                flat = lambda v: flatten_index(j_of[v], i_of[v], m)
            else:
                flat = lambda v: flatten_index(i_of[v], j_of[v], m)
            src = tuple(flat(i) for i in range(1, r + 1))
            dest = tuple(flat(r + i) for i in range(1, r + 1))
            entries[(src, dest)] = entries.get((src, dest), 0) + 1
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
    """Exact rank of a list of sparse row dicts over the rationals.

    Deterministic pivoting: smallest column key among the remaining rows.
    """
    rows = [dict(row) for row in rows if row]
    rank = 0
    while rows:
        pivot_col = min(min(row) for row in rows)
        pivot_row = next(row for row in rows if pivot_col in row)
        rows.remove(pivot_row)
        rank += 1
        pivot_val = pivot_row[pivot_col]
        reduced = []
        for row in rows:
            if pivot_col in row:
                factor = Fraction(row[pivot_col], pivot_val)
                new = dict(row)
                for col, val in pivot_row.items():
                    entry = new.get(col, 0) - factor * val
                    if entry:
                        new[col] = entry
                    else:
                        new.pop(col, None)
                row = new
            if row:
                reduced.append(row)
        rows = reduced
    return rank


def faithfulness_rank(d: int, r: int, cap: int = DEFAULT_ENTRY_CAP) -> int:
    """Rank of the span of all (r, r)-diagram actions on (C^d)^(x r)."""
    if d < 0 or r < 0:
        raise ValueError(f"faithfulness_rank requires d, r >= 0: d = {d}, r = {r}")
    diagrams = [
        PartitionDiagram(r, r, blocks) for blocks in line_set_partitions(2 * r)
    ]
    estimate = sum(d ** len(diag.blocks) for diag in diagrams)
    _check_budget(estimate, cap)
    rows = []
    for diag in diagrams:
        mat = diagram_action(diag, d, r, cap=cap)
        rows.append({key: val for key, val in mat.entries()})
    return _sparse_rank(rows)


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
