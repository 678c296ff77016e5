"""The partition algebra and the two-parameter ramified partition algebra.

Diagrams are canonical set-partitions of r northern and s southern
vertices; southern vertices are stored as r+1 .. r+s.  Parameters are
never substituted during composition: products carry their delta
exponents symbolically, so the same kernel serves every parameter value
including zero.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import NamedTuple

from plethyra.coefficients import _branching_function
from plethyra.partitions import (
    as_partition,
    canonical_set_partition,
    is_coarser,
    line_set_partitions,
    mobius_coarsenings,
    partitions_of,
    std_tableaux_count,
)


class PartitionDiagram:
    """An (r, s)-set-partition in canonical block form."""

    __slots__ = ("r", "s", "blocks")

    def __init__(self, r: int, s: int, blocks):
        self.r = r
        self.s = s
        self.blocks = canonical_set_partition(blocks)
        seen = [v for b in self.blocks for v in b]
        if sorted(seen) != list(range(1, r + s + 1)):
            raise ValueError(
                f"blocks must partition 1..{r + s}: got {self.blocks}"
            )

    # -- constructors -------------------------------------------------

    @classmethod
    def _canonical(cls, r: int, s: int, blocks: tuple) -> "PartitionDiagram":
        """Trusted constructor: ``blocks`` already partition 1..r+s in
        canonical form, as the coarsening walk and ``compose`` emit them."""
        d = object.__new__(cls)
        d.r, d.s, d.blocks = r, s, blocks
        return d

    @classmethod
    def identity(cls, r: int) -> "PartitionDiagram":
        return cls(r, r, [(i, r + i) for i in range(1, r + 1)])

    @classmethod
    def from_permutation(cls, perm) -> "PartitionDiagram":
        """Diagram of a permutation given in one-line form (1-based images)."""
        r = len(perm)
        return cls(r, r, [(i, r + perm[i - 1]) for i in range(1, r + 1)])

    @classmethod
    def p_gen(cls, r: int, i: int) -> "PartitionDiagram":
        """The generator with singletons at northern and southern position i."""
        blocks = [(k, r + k) for k in range(1, r + 1) if k != i]
        return cls(r, r, blocks + [(i,), (r + i,)])

    @classmethod
    def pp_gen(cls, r: int, i: int, j: int) -> "PartitionDiagram":
        """The generator joining positions i and j through one block."""
        blocks = [(k, r + k) for k in range(1, r + 1) if k not in (i, j)]
        return cls(r, r, blocks + [(i, j, r + i, r + j)])

    @classmethod
    def parse(cls, text: str, r: int | None = None, s: int | None = None):
        """Parse "{1,2,4,2',5'}|{3}|{1'}" with primes marking southern vertices."""
        try:
            groups = [[(v.endswith("'"), int(v.removesuffix("'")))
                       for v in chunk.strip("{}").split(",") if v]
                      for chunk in text.replace(" ", "").split("|")]
        except ValueError:
            raise ValueError("diagram labels are integers, primed for the southern row, "
                             f"like {{1,2'}}|{{2,1'}}; got {text!r}") from None
        if r is None:
            r = max((v for g in groups for south, v in g if not south), default=0)
        if s is None:
            s = max((v for g in groups for south, v in g if south), default=0)
        return cls(r, s, [tuple(v + r if south else v for south, v in g) for g in groups])

    # -- presentation --------------------------------------------------

    def format(self) -> str:
        bits = []
        for block in self.blocks:
            labels = [str(v) if v <= self.r else f"{v - self.r}'" for v in block]
            bits.append("{" + ",".join(labels) + "}")
        return "|".join(bits)

    def __repr__(self):
        return f"PartitionDiagram({self.r},{self.s}: {self.format()})"

    # -- structure ------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, PartitionDiagram)
            and (self.r, self.s, self.blocks) == (other.r, other.s, other.blocks)
        )

    def __hash__(self):
        return hash((self.r, self.s, self.blocks))

    def is_propagating(self, block) -> bool:
        return any(v <= self.r for v in block) and any(v > self.r for v in block)

    def propagating_blocks(self):
        return [b for b in self.blocks if self.is_propagating(b)]

    def propagating_data(self):
        """Number of propagating blocks and the induced permutation.

        Propagating blocks are ranked by northern minima; the permutation
        (one-line form) sends rank i to the rank of the block's southern
        minimum.
        """
        props = self.propagating_blocks()
        by_north = sorted(props, key=lambda b: min(v for v in b if v <= self.r))
        south_minima = sorted(min(v for v in b if v > self.r) for b in props)
        rank = {v: i + 1 for i, v in enumerate(south_minima)}
        perm = tuple(rank[min(v for v in b if v > self.r)] for b in by_north)
        return len(props), perm

    def coarser_diagrams(self):
        """All diagrams whose set-partition is coarser, self included."""
        return [
            PartitionDiagram._canonical(self.r, self.s, blocks)
            for blocks, _ in mobius_coarsenings(self.blocks)
        ]


class ScaledDiagram(NamedTuple):
    """A diagram with symbolic parameter exponents.

    Plain partition-diagram products carry a single parameter in
    ``exp_out``; ramified products use both slots.
    """

    diagram: object
    exp_in: int
    exp_out: int


def compose(d1: PartitionDiagram, d2: PartitionDiagram) -> ScaledDiagram:
    """Product d1 * d2: stack d1 above d2, join blocks through the middle
    row and count the components that lie inside it as loops.

    On the vertices 1..k+r+s, with (k, r) = (d1.r, d1.s), d1 keeps its
    labels and d2's move up by k, so the middle row is k+1..k+r; the
    southern labels then move down by r.  Visiting the top row and then
    the bottom row in order emits each block sorted and the blocks ordered
    by their minima, which is the canonical form.
    """
    if d1.s != d2.r:
        raise ValueError(f"size mismatch: ({d1.r},{d1.s}) * ({d2.r},{d2.s})")
    k, r, s = d1.r, d1.s, d2.s
    parent = list(range(k + r + s + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for shift, blocks in ((0, d1.blocks), (k, d2.blocks)):
        for block in blocks:
            root = find(block[0] + shift)
            for v in block[1:]:
                parent[find(v + shift)] = root
    blocks = {}
    for v in (*range(1, k + 1), *range(k + r + 1, k + r + s + 1)):
        blocks.setdefault(find(v), []).append(v if v <= k else v - r)
    loops = len({find(v) for v in range(k + 1, k + r + 1)} - blocks.keys())
    # tuple() of an iterator over-allocates and shrinks: +0.5 MiB RSS at r = 3
    diagram = PartitionDiagram._canonical(k, s, tuple([tuple(b) for b in blocks.values()]))
    return ScaledDiagram(diagram, 0, loops)


# ---------------------------------------------------------------------------
# Orbit basis.


def orbit_expand(d: PartitionDiagram) -> dict:
    """Coefficients of d_Lambda in the orbit basis: 1 on every coarsening."""
    return {coarse: 1 for coarse in d.coarser_diagrams()}


def orbit_collapse(x: PartitionDiagram) -> dict:
    """Coefficients of x_Lambda in the diagram basis: mu(x, coarse) on every coarsening."""
    return {
        PartitionDiagram._canonical(x.r, x.s, blocks): mu
        for blocks, mu in mobius_coarsenings(x.blocks)
    }


# ---------------------------------------------------------------------------
# Ramified diagrams.


class RamifiedDiagram:
    """A pair (inner, outer) of (r, s)-set-partitions with inner refining outer."""

    __slots__ = ("inner", "outer")

    def __init__(self, inner: PartitionDiagram, outer: PartitionDiagram):
        if (inner.r, inner.s) != (outer.r, outer.s):
            raise ValueError("inner and outer must have matching sizes")
        if not is_coarser(inner.blocks, outer.blocks):
            raise ValueError("inner set-partition must refine the outer one")
        self.inner = inner
        self.outer = outer

    @property
    def r(self):
        return self.inner.r

    @property
    def s(self):
        return self.inner.s

    @classmethod
    def from_blocks(cls, r, s, inner_blocks, outer_blocks):
        return cls(PartitionDiagram(r, s, inner_blocks), PartitionDiagram(r, s, outer_blocks))

    @classmethod
    def diagonal(cls, d: PartitionDiagram) -> "RamifiedDiagram":
        """The embedding d -> (d, d) of the one-parameter algebra."""
        return cls(d, d)

    @classmethod
    def parse(cls, text: str):
        if text.count("@") != 1:
            raise ValueError("a ramified diagram is written inner@outer with exactly "
                             f"one @, like {{1,1'}}@{{1,1'}}; got {text!r}")
        inner_text, outer_text = text.split("@")
        inner = PartitionDiagram.parse(inner_text)
        return cls(inner, PartitionDiagram.parse(outer_text, r=inner.r, s=inner.s))

    def format(self) -> str:
        return f"{self.inner.format()}@{self.outer.format()}"

    def __repr__(self):
        return f"RamifiedDiagram({self.r},{self.s}: {self.format()})"

    def __eq__(self, other):
        return (
            isinstance(other, RamifiedDiagram)
            and (self.inner, self.outer) == (other.inner, other.outer)
        )

    def __hash__(self):
        return hash((self.inner, self.outer))


def ramified_compose(r1: RamifiedDiagram, r2: RamifiedDiagram) -> ScaledDiagram:
    """Compose inner and outer independently, recording both exponents."""
    if r1.s != r2.r:
        raise ValueError("size mismatch in ramified product")
    inner = compose(r1.inner, r2.inner)
    outer = compose(r1.outer, r2.outer)
    return ScaledDiagram(
        RamifiedDiagram(inner.diagram, outer.diagram),
        inner.exp_out,
        outer.exp_out,
    )


def propagating_index(rd: RamifiedDiagram) -> tuple:
    """Inner propagating counts per outer propagating block, sorted weakly
    decreasing; zero entries mark outer blocks with no inner propagating pair."""
    inner_props = rd.inner.propagating_blocks()
    index = []
    for block in rd.outer.blocks:
        if not rd.outer.is_propagating(block):
            continue
        members = set(block)
        index.append(sum(1 for ib in inner_props if set(ib) <= members))
    return tuple(sorted(index, reverse=True))


# ---------------------------------------------------------------------------
# The poset of propagating indices.

DEFAULT_THETA_BOUND = 6


def theta_elements(r: int) -> list:
    """All propagating indices realizable on r strands."""
    out = []
    for zeros in range(r + 1):
        for total in range(r - zeros + 1):
            for positive in partitions_of(total):
                if sum(positive) + zeros <= r:
                    out.append(positive + (0,) * zeros)
    return sorted(set(out), key=lambda t: (len(t), t), reverse=True)


def _theta_covers(theta) -> set:
    """Indices directly below theta: decrement an entry, merge two entries,
    or drop from (0) to the empty index."""
    out = set()
    n = len(theta)
    for i in range(n):
        if theta[i] >= 1:
            cand = theta[:i] + (theta[i] - 1,) + theta[i + 1:]
            out.add(tuple(sorted(cand, reverse=True)))
    for i in range(n):
        for j in range(i + 1, n):
            merged = [theta[k] for k in range(n) if k not in (i, j)]
            merged.append(theta[i] + theta[j])
            out.add(tuple(sorted(merged, reverse=True)))
    if theta == (0,):
        out.add(())
    return out


def theta_poset(r: int, bound: int = DEFAULT_THETA_BOUND):
    """Elements of Theta_r with the order relation as a dict of down-sets.

    Returns (elements, strictly_below) where strictly_below[t] is the set
    of indices strictly smaller than t in the transitive closure.
    """
    if r < 0:
        raise ValueError(f"theta_poset requires r >= 0, got r = {r}")
    if r > bound:
        raise ValueError(f"theta_poset bound exceeded: r = {r} > {bound}")
    elements = theta_elements(r)
    element_set = set(elements)
    below = {}

    def descend(t):
        if t in below:
            return below[t]
        acc = set()
        for cov in _theta_covers(t):
            if cov in element_set:
                acc.add(cov)
                acc |= descend(cov)
        below[t] = acc
        return acc

    for t in elements:
        descend(t)
    return elements, below


# ---------------------------------------------------------------------------
# Depth quotient basis and types.


class DiagramType(NamedTuple):
    gamma: tuple  # propagating type, zeros allowed when inner pairs exist
    epsilon: tuple  # non-propagating type, all parts >= 2


def type_of(rd: RamifiedDiagram) -> DiagramType:
    """Propagating and non-propagating type of a depth-quotient diagram."""
    r = rd.r
    gamma, eps = [], []
    inner_by_vertex = {}
    for block in rd.inner.blocks:
        for v in block:
            inner_by_vertex[v] = block
    for block in rd.outer.blocks:
        south = [v for v in block if v > r]
        if rd.outer.is_propagating(block):
            singles = sum(
                1 for v in south if inner_by_vertex[v] == (v,)
            )
            gamma.append(singles)
        else:
            eps.append(len(south))
    return DiagramType(
        tuple(sorted(gamma, reverse=True)), tuple(sorted(eps, reverse=True))
    )


def _v0_choices(r: int, a: int, b: int):
    """The choices that fix a basis diagram of V^0_r(a^b), in basis order:
    a set-partition of the r southern vertices, b of its blocks (ordered by
    minima) as propagating blocks of size >= max(a, 1) with every other
    block of size >= 2, and a paired vertices in each propagating block.
    Singletons must propagate, so the rest are drawn from blocks of size >= max(a, 2)."""
    k = max(a, 1) * b
    if k > r:
        raise ValueError(f"v0_basis needs {k} <= r = {r}")
    for blocks in line_set_partitions(r):
        singles = [i for i, bl in enumerate(blocks) if len(bl) == 1]
        if len(singles) > b or (singles and a > 1):
            continue
        wide = [i for i, bl in enumerate(blocks) if len(bl) >= max(a, 2)]
        for extra in itertools.combinations(wide, b - len(singles)):
            prop_idx = sorted(singles + list(extra))
            prop = [blocks[i] for i in prop_idx]
            rest = [bl for i, bl in enumerate(blocks) if i not in prop_idx]
            for pairing in itertools.product(*(itertools.combinations(bl, a) for bl in prop)):
                yield prop, pairing, rest


def v0_basis(r: int, a: int, b: int) -> list:
    """Canonical basis diagrams of the depth quotient V^0_r(a^b).

    Diagrams are (ab, r)-ramified ((b, r) when a = 0) with propagating
    index (a^b), no inner southern pairs, no outer southern singletons,
    identity block permutations.
    """
    width = max(a, 1)
    k = width * b
    out = []
    for prop, pairing, rest in _v0_choices(r, a, b):
        inner, outer = [], []
        for j, (bl, paired) in enumerate(zip(prop, pairing)):
            norths = range(j * width + 1, (j + 1) * width + 1)
            outer.append((*norths, *(k + v for v in bl)))
            inner.extend((north, k + v) for north, v in zip(norths, paired))
            inner.extend((north,) for north in norths[a:])
            inner.extend((k + v,) for v in bl if v not in paired)
        for bl in rest:
            outer.append(tuple(k + v for v in bl))
            inner.extend((k + v,) for v in bl)
        out.append(RamifiedDiagram.from_blocks(k, r, inner, outer))
    return out


def _v0_count(r: int, b: int) -> int:
    """|V^0_r(0^b)| = sum_j C(r, j) S(j, b) NS(r - j): j southern vertices
    fill the b propagating blocks (S the Stirling numbers of the second
    kind) and the other r - j form singleton-free blocks (NS)."""
    stirling = [[1]]
    for m in range(1, r + 1):
        prev = stirling[-1] + [0]
        stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, m + 1)])
    bell = [sum(row) for row in stirling]
    ns = [sum((-1) ** i * comb(n, i) * bell[n - i] for i in range(n + 1)) for n in range(r + 1)]
    return sum(comb(r, j) * stirling[j][b] * ns[r - j] for j in range(b, r + 1))


def dq_dimension_check(r: int, beta) -> tuple:
    """Diagrammatic vs character-side dimension of the depth quotient.

    Diagrammatic: f^beta times |V^0_r(0^|beta|)| by its closed-form count.
    Formula: sum over kappa of rc(empty^beta, kappa) weighted by f^kappa.
    """
    beta = as_partition(beta)
    if sum(beta) > r:
        raise ValueError(f"dq-check requires |beta| <= r, got |beta| = {sum(beta)}, r = {r}")
    diagrammatic = std_tableaux_count(beta) * _v0_count(r, sum(beta))
    formula = sum(c * std_tableaux_count(kappa)
                  for kappa, c in _branching_function((), beta, r).terms.items())
    return diagrammatic, formula
