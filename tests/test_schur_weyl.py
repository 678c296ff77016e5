import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from plethyra import schur_weyl
from plethyra.cli import run
from plethyra.diagrams import PartitionDiagram, RamifiedDiagram, compose, ramified_compose
from plethyra.partitions import line_set_partitions
from plethyra.schur_weyl import (
    BudgetError,
    SparseExactMatrix,
    check_commute,
    diagram_action,
    faithfulness_rank,
    ramified_action,
    ramified_generators,
    sym_action,
    wreath_embed,
    wreath_generators,
)

from oracles import bell_by_recurrence, commute_by_products, dense_rank, orbit_action


def all_diagrams(r):
    return [PartitionDiagram(r, r, blocks) for blocks in line_set_partitions(2 * r)]


def rand_perm(rng, d):
    p = list(range(1, d + 1))
    rng.shuffle(p)
    return tuple(p)


class TestSymAction:
    def test_identity(self):
        mat = sym_action((1, 2, 3), 3, 2)
        assert all(dest == src for (dest, src), _ in mat.entries())
        assert mat.nnz() == 9

    def test_permutation_matrix_shape(self):
        rng = random.Random(0)
        for _ in range(5):
            sigma = rand_perm(rng, 3)
            mat = sym_action(sigma, 3, 2)
            assert mat.nnz() == 9
            assert all(v == 1 for _, v in mat.entries())

    def test_composition_convention(self):
        rng = random.Random(1)
        for _ in range(20):
            s, t = rand_perm(rng, 3), rand_perm(rng, 3)
            st = tuple(s[t[i] - 1] for i in range(3))
            assert sym_action(st, 3, 2) == sym_action(s, 3, 2) @ sym_action(t, 3, 2)


class TestDiagramAction:
    def test_identity_diagram(self):
        ident = PartitionDiagram.identity(2)
        mat = diagram_action(ident, 3, 2)
        assert all(src == dest for (src, dest), _ in mat.entries())
        assert mat.nnz() == 9

    def test_p1_all_ones(self):
        p1 = PartitionDiagram.p_gen(1, 1)
        mat = diagram_action(p1, 2, 1)
        assert sorted(mat.entries()) == [
            (((1,), (1,)), 1), (((1,), (2,)), 1), (((2,), (1,)), 1), (((2,), (2,)), 1)
        ]

    @pytest.mark.parametrize("d", (2, 3))
    def test_coarsening_identity_exhaustive(self, d):
        for diag in all_diagrams(2):
            total = SparseExactMatrix()
            for coarse in diag.coarser_diagrams():
                total = total + orbit_action(coarse, d, 2)
            assert total == diagram_action(diag, d, 2)

    def test_algebra_map_random(self):
        rng = random.Random(7)
        diags = all_diagrams(2)
        for _ in range(100):
            d1, d2 = rng.choice(diags), rng.choice(diags)
            sc = compose(d1, d2)
            lhs = diagram_action(sc.diagram, 3, 2).scale(3 ** sc.exp_out)
            assert lhs == diagram_action(d1, 3, 2) @ diagram_action(d2, 3, 2)

    def test_left_right_consistency(self):
        rng = random.Random(8)
        diags = all_diagrams(2)
        for _ in range(30):
            sigma = rand_perm(rng, 3)
            a = sym_action(sigma, 3, 2)
            op = diagram_action(rng.choice(diags), 3, 2).transpose()
            assert a @ op == op @ a


class TestWreathEmbedding:
    def test_identity(self):
        assert wreath_embed(((1, 2), (1, 2)), (1, 2), 2, 2) == (1, 2, 3, 4)

    def test_pure_top_permutes_blocks(self):
        embedded = wreath_embed(((1, 2), (1, 2)), (2, 1), 2, 2)
        assert embedded == (3, 4, 1, 2)

    def test_homomorphism_random(self):
        # group law matching the embedding:
        # (sigma; pi)(tau; rho) = ((sigma_k tau_{pi^-1(k)}); pi o rho)
        rng = random.Random(12)
        m = n = 2

        def rand_elt():
            return (tuple(rand_perm(rng, m) for _ in range(n)), rand_perm(rng, n))

        def mult(g, h):
            (sig, pi), (tau, rho) = g, h
            pi_inv = [0] * n
            for j in range(n):
                pi_inv[pi[j] - 1] = j + 1
            new_base = tuple(
                tuple(sig[k][tau[pi_inv[k] - 1][i - 1] - 1] for i in range(1, m + 1))
                for k in range(n)
            )
            new_top = tuple(pi[rho[j] - 1] for j in range(n))
            return (new_base, new_top)

        for _ in range(100):
            g, h = rand_elt(), rand_elt()
            eg = wreath_embed(*g, m, n)
            eh = wreath_embed(*h, m, n)
            composed = tuple(eg[eh[x - 1] - 1] for x in range(1, m * n + 1))
            assert composed == wreath_embed(*mult(g, h), m, n)

    def test_generators_count(self):
        gens = wreath_generators(2, 3)
        assert len(gens) == 3 * 1 + 2


class TestRamifiedAction:
    def test_identity(self):
        ident = RamifiedDiagram.diagonal(PartitionDiagram.identity(2))
        mat = ramified_action(ident, 2, 2, 2)
        assert all(src == dest for (src, dest), _ in mat.entries())

    def test_diagonal_matches_plain_action(self):
        m = n = 2
        for diag in all_diagrams(2):
            ram = ramified_action(RamifiedDiagram.diagonal(diag), m, n, 2)
            plain = diagram_action(diag, m * n, 2)
            assert ram == plain

    def test_respects_composition(self):
        rng = random.Random(21)
        m = n = 2
        rams = []
        for d in all_diagrams(2):
            for coarse in d.coarser_diagrams():
                rams.append(RamifiedDiagram(d, coarse))
        for _ in range(60):
            r1, r2 = rng.choice(rams), rng.choice(rams)
            sc = ramified_compose(r1, r2)
            lhs = ramified_action(sc.diagram, m, n, 2).scale(
                m ** sc.exp_in * n ** sc.exp_out
            )
            assert lhs == ramified_action(r1, m, n, 2) @ ramified_action(r2, m, n, 2)

    def test_flatten_convention(self):
        # v^j_i is e^((j-1)m + i): an inner cut inside one outer block frees
        # the subscript and keeps the superscript, so e^3 = v^1_3 reaches
        # e^1..e^3 and e^6 = v^2_3 reaches e^4..e^6
        rd = RamifiedDiagram(PartitionDiagram.p_gen(1, 1), PartitionDiagram.identity(1))
        rows = ramified_action(rd, 3, 2, 1).rows
        assert sorted(rows[(3,)]) == [(1,), (2,), (3,)]
        assert sorted(rows[(6,)]) == [(4,), (5,), (6,)]


class TestCommutation:
    def test_small_cases(self):
        assert check_commute(2, 2, 2)
        assert check_commute(2, 2, 3)

    def test_asymmetric_case(self):
        assert check_commute(2, 3, 2)
        assert check_commute(3, 2, 2)

    def test_negative_control(self):
        assert not check_commute(2, 3, 2, swap_roles=True)
        assert not check_commute(3, 2, 2, swap_roles=True)

    def test_budget(self):
        with pytest.raises(BudgetError):
            check_commute(3, 3, 5, cap=10**4)

    def test_budget_counts_work(self):
        # d^(r+1) = 40,000, but 199 generators x 80,000 stored entries
        with pytest.raises(BudgetError, match="estimated 15920000 "):
            check_commute(200, 1, 1)
        with pytest.raises(BudgetError, match="estimated 113664 "):
            check_commute(2, 2, 5, cap=113663)
        assert check_commute(2, 2, 5, cap=113664)
        # with the roles swapped, subscripts range over the outer blocks
        with pytest.raises(BudgetError, match="estimated 3540 "):
            check_commute(3, 2, 2, cap=3150)
        assert not check_commute(3, 2, 2, cap=3150, swap_roles=True)
        with pytest.raises(BudgetError, match="estimated 3150 "):
            check_commute(3, 2, 2, cap=3149, swap_roles=True)

    @pytest.mark.parametrize("swap_roles", (False, True))
    def test_matches_product_oracle(self, swap_roles):
        for m, n, r in itertools.product(range(1, 4), repeat=3):
            if (m * n) ** (r + 1) <= 10**5:
                assert check_commute(m, n, r, swap_roles=swap_roles) == \
                    commute_by_products(m, n, r, swap_roles=swap_roles), (m, n, r)

    @pytest.mark.parametrize("m,n,r", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3)])
    def test_matches_product_oracle_pairwise(self, monkeypatch, m, n, r):
        # one wreath generator against one ramified generator at a time, so
        # that every pair's verdict counts, not only the conjunction
        for g in wreath_generators(m, n):
            for rd in ramified_generators(r):
                monkeypatch.setattr(schur_weyl, "wreath_generators", lambda m, n: [g])
                monkeypatch.setattr(schur_weyl, "ramified_generators", lambda r: [rd])
                for swap_roles in (False, True):
                    assert check_commute(m, n, r, swap_roles=swap_roles) == \
                        commute_by_products(m, n, r, swap_roles=swap_roles), (g, rd)
                monkeypatch.undo()

    def test_generator_inventory(self):
        kinds = len(ramified_generators(3))
        # s_1, s_2; p_1..p_3 and inner-only versions; p_{12}, p_{23} and outer-only
        assert kinds == 2 + 3 * 2 + 2 * 2


class TestFaithfulness:
    def test_rank_full(self):
        assert faithfulness_rank(4, 2) == 15 == bell_by_recurrence(4)

    def test_rank_deficient_below_threshold(self):
        assert faithfulness_rank(2, 2) < 15

    def test_rank_trivial(self):
        assert faithfulness_rank(1, 1) == 1

    def test_rank_deficient_three_strands(self):
        # the rank is the number of set-partitions of 2r = 6 points into
        # at most d = 4 blocks, sum_{k <= 4} S(6, k)
        assert faithfulness_rank(4, 3) == 187 == sum(
            stirling2(6, k) for k in range(5))

    def test_budget(self):
        with pytest.raises(BudgetError):
            faithfulness_rank(6, 3, cap=10**3)

    def test_rank_six_three(self):
        assert faithfulness_rank(6, 3) == bell_by_recurrence(6) == 203

    def test_rank_two_four_strands(self):
        assert faithfulness_rank(2, 4) == 128 == stirling2(8, 1) + stirling2(8, 2)

    def test_rank_three_four_strands(self):
        assert faithfulness_rank(3, 4) == 1094 == sum(stirling2(8, k) for k in range(4))

    @pytest.mark.parametrize("d,r", [(d, r) for d in range(1, 5) for r in range(3)]
                             + [(2, 3)])
    def test_matches_dense_oracle(self, d, r):
        # every d^(2r) column of the stacked actions, none grouped
        cols = list(itertools.product(range(1, d + 1), repeat=2 * r))
        matrix = []
        for diag in all_diagrams(r):
            rows = diagram_action(diag, d, r).rows
            matrix.append([rows.get(c[:r], {}).get(c[r:], 0) for c in cols])
        assert faithfulness_rank(d, r) == dense_rank(matrix)


def stirling2(n, k):
    """Set-partitions of n points into exactly k blocks."""
    if n == 0 or k == 0:
        return int(n == k)
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@st.composite
def bitmask_lists(draw):
    """Small lists of 0/1 vectors of one width, as int bitmasks."""
    width = draw(st.integers(1, 6))
    return width, draw(st.lists(st.integers(0, 2**width - 1), max_size=7))


def bit_rows(vectors, width):
    """The 0/1 rows of int bitmasks, lowest bit first."""
    return [[vec >> bit & 1 for bit in range(width)] for vec in vectors]


class TestGF2Rank:
    @given(bitmask_lists())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_span_size_and_dense_bound(self, case):
        width, vectors = case
        span = {functools.reduce(operator.xor, subset, 0)
                for k in range(len(vectors) + 1)
                for subset in itertools.combinations(vectors, k)}
        rank = schur_weyl._gf2_rank(vectors)
        assert len(span) == 2**rank
        assert rank <= dense_rank(bit_rows(vectors, width))

    def test_gf2_rank_below_rational_rank(self):
        # the columns {1,2}, {2,3}, {1,3} sum to 0 mod 2 but are independent over Q
        columns = [0b011, 0b110, 0b101]
        assert schur_weyl._gf2_rank(columns) == 2
        assert dense_rank(bit_rows(columns, 3)) == 3

    def test_uncertified_rank_fails(self, monkeypatch, capsys):
        gf2_rank = schur_weyl._gf2_rank
        monkeypatch.setattr(schur_weyl, "_gf2_rank", lambda vectors: gf2_rank(vectors) - 1)
        with pytest.raises(ValueError, match=r"uncertified rank: GF\(2\) rank 7 is below the 8"):
            faithfulness_rank(2, 2)
        assert run(["schur-weyl", "--rank", "2", "2"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: uncertified rank")
