import itertools
import random

import pytest

from plethyra.diagrams import (
    DiagramType,
    PartitionDiagram,
    RamifiedDiagram,
    _v0_choices,
    _v0_count,
    compose,
    dq_dimension_check,
    orbit_collapse,
    orbit_expand,
    propagating_index,
    ramified_compose,
    theta_elements,
    theta_poset,
    type_of,
    v0_basis,
)
from plethyra.partitions import line_set_partitions, std_tableaux_count
from oracles import compose_by_search, is_depth_radical, v0_choices_by_rejection

EIGHT_LEFT = "{1,2,4,2',5'}|{3}|{5,6,7,8'}|{8,3',4',6',7'}|{1'}"
EIGHT_RIGHT = "{1}|{2,1',2'}|{3,4'}|{4,3'}|{5,5',6'}|{6}|{7,8,7',8'}"
EIGHT_PRODUCT = "{1,2,4,1',2',5',6'}|{3}|{5,6,7,8,3',4',7',8'}"


def all_diagrams(r, s=None):
    s = r if s is None else s
    return [PartitionDiagram(r, s, blocks) for blocks in line_set_partitions(r + s)]


def all_ramified(r):
    out = []
    for d in all_diagrams(r):
        for coarse in d.coarser_diagrams():
            out.append(RamifiedDiagram(d, coarse))
    return out


class TestParseFormat:
    def test_round_trip(self):
        for text in (EIGHT_LEFT, EIGHT_RIGHT, EIGHT_PRODUCT):
            d = PartitionDiagram.parse(text)
            assert PartitionDiagram.parse(d.format()) == d

    def test_ramified_round_trip(self):
        rd = RamifiedDiagram.from_blocks(
            2, 2, [(1, 3), (2,), (4,)], [(1, 3), (2, 4)]
        )
        assert RamifiedDiagram.parse(rd.format()) == rd

    def test_bad_cover_rejected(self):
        with pytest.raises(ValueError):
            PartitionDiagram(2, 2, [(1, 2), (3,)])

    def test_refinement_enforced(self):
        with pytest.raises(ValueError):
            RamifiedDiagram.from_blocks(1, 1, [(1, 2)], [(1,), (2,)])


class TestCompose:
    def test_eight_strand_product(self):
        lam = PartitionDiagram.parse(EIGHT_LEFT)
        gam = PartitionDiagram.parse(EIGHT_RIGHT)
        sc = compose(lam, gam)
        assert sc.exp_out == 1
        assert sc.exp_in == 0
        assert sc.diagram == PartitionDiagram.parse(EIGHT_PRODUCT)

    def test_identity_neutral(self):
        ident = PartitionDiagram.identity(3)
        for d in all_diagrams(3)[:40]:
            assert compose(ident, d).diagram == d
            assert compose(d, ident).diagram == d
            assert compose(ident, d).exp_out == 0

    def test_p_gen_idempotent_up_to_delta(self):
        p = PartitionDiagram.p_gen(4, 2)
        sc = compose(p, p)
        assert sc.exp_out == 1 and sc.diagram == p

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(PartitionDiagram.identity(2), PartitionDiagram.identity(3))

    @pytest.mark.parametrize("r", (1, 2))
    def test_associativity_exhaustive(self, r):
        diags = all_diagrams(r)
        table = {
            (i, j): compose(d1, d2)
            for i, d1 in enumerate(diags)
            for j, d2 in enumerate(diags)
        }
        index = {d: i for i, d in enumerate(diags)}
        for i, j, k in itertools.product(range(len(diags)), repeat=3):
            left = table[(i, j)]
            l2 = table[(index[left.diagram], k)]
            right = table[(j, k)]
            r2 = table[(i, index[right.diagram])]
            assert l2.diagram == r2.diagram
            assert left.exp_out + l2.exp_out == right.exp_out + r2.exp_out

    def test_associativity_random_r4(self):
        rng = random.Random(99)
        diags = all_diagrams(3)
        # r = 4 diagrams drawn as random set-partitions
        def random_diagram():
            blocks = []
            for v in range(1, 9):
                if blocks and rng.random() < 0.6:
                    rng.choice(blocks).append(v)
                else:
                    blocks.append([v])
            return PartitionDiagram(4, 4, [tuple(b) for b in blocks])

        for _ in range(200):
            d1, d2, d3 = random_diagram(), random_diagram(), random_diagram()
            left_in = compose(d1, d2)
            left = compose(left_in.diagram, d3)
            right_in = compose(d2, d3)
            right = compose(d1, right_in.diagram)
            assert left.diagram == right.diagram
            assert left_in.exp_out + left.exp_out == right_in.exp_out + right.exp_out

    def assert_matches_search(self, d1, d2):
        sc = compose(d1, d2)
        assert (sc.diagram.r, sc.diagram.s, sc.exp_in) == (d1.r, d2.s, 0)
        assert (list(sc.diagram.blocks), sc.exp_out) == compose_by_search(d1, d2), (d1, d2)

    def test_matches_search_exhaustive(self):
        """Every pair with k + r <= 4 and r + s <= 4, rectangular ones included."""
        for k, r, s in itertools.product(range(5), repeat=3):
            if k + r <= 4 and r + s <= 4:
                for d1 in all_diagrams(k, r):
                    for d2 in all_diagrams(r, s):
                        self.assert_matches_search(d1, d2)

    def test_matches_search_random(self):
        rng = random.Random(2024)
        for _ in range(500):
            k, r, s = (rng.randint(0, 4) for _ in range(3))
            d1 = PartitionDiagram(k, r, rng.choice(line_set_partitions(k + r)))
            d2 = PartitionDiagram(r, s, rng.choice(line_set_partitions(r + s)))
            self.assert_matches_search(d1, d2)

    def test_products_pass_the_validating_constructor(self):
        """compose builds its product through the trusted constructor; every
        product of the r <= 2 tables and the eight-strand golden product
        must come back unchanged from the validating one."""
        pairs = [(d1, d2) for r in (1, 2) for d1 in all_diagrams(r) for d2 in all_diagrams(r)]
        pairs.append((PartitionDiagram.parse(EIGHT_LEFT), PartitionDiagram.parse(EIGHT_RIGHT)))
        for d1, d2 in pairs:
            product = compose(d1, d2).diagram
            validated = PartitionDiagram(d1.r, d2.s, product.blocks)
            assert (product.r, product.s, product.blocks) == (
                validated.r, validated.s, validated.blocks)
            assert all(type(block) is tuple for block in product.blocks), (d1, d2)

    def test_propagating_count_monotone(self):
        diags = all_diagrams(2)
        for d1 in diags:
            for d2 in diags:
                result = compose(d1, d2).diagram
                bound = min(d1.propagating_data()[0], d2.propagating_data()[0])
                assert result.propagating_data()[0] <= bound

    def test_propagating_count_monotone_random_r3(self):
        rng = random.Random(41)
        diags = all_diagrams(3)
        for _ in range(300):
            d1, d2 = rng.choice(diags), rng.choice(diags)
            result = compose(d1, d2).diagram
            bound = min(d1.propagating_data()[0], d2.propagating_data()[0])
            assert result.propagating_data()[0] <= bound


class TestPropagatingData:
    def test_eight_strand_left_factor(self):
        lam = PartitionDiagram.parse(EIGHT_LEFT)
        assert lam.propagating_data() == (3, (1, 3, 2))

    def test_permutation_diagram(self):
        perm = (3, 1, 2)
        d = PartitionDiagram.from_permutation(perm)
        count, pi = d.propagating_data()
        assert count == 3 and pi == perm

    def test_all_singletons(self):
        d = PartitionDiagram(2, 2, [(1,), (2,), (3,), (4,)])
        assert d.propagating_data() == (0, ())


class TestOrbitBasis:
    def test_rank_one_expansion(self):
        loose = PartitionDiagram(1, 1, [(1,), (2,)])
        joined = PartitionDiagram(1, 1, [(1, 2)])
        assert orbit_expand(loose) == {loose: 1, joined: 1}
        assert orbit_expand(joined) == {joined: 1}

    @pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (2, 4), (1, 5)])
    def test_round_trip(self, r, s):
        if r + s > 6:
            pytest.skip("outside the exhaustive regime")
        for d in all_diagrams(r, s):
            acc = {}
            for x, c1 in orbit_expand(d).items():
                for dd, c2 in orbit_collapse(x).items():
                    acc[dd] = acc.get(dd, 0) + c1 * c2
            acc = {k: v for k, v in acc.items() if v}
            assert acc == {d: 1}

    def test_trusted_constructor_matches_validated(self):
        for q in range(7):
            for r in range(q + 1):
                for d in all_diagrams(r, q - r):
                    for x in [*d.coarser_diagrams(), *orbit_collapse(d)]:
                        assert type(x.blocks) is tuple
                        assert x == PartitionDiagram(r, q - r, x.blocks)


class TestRamifiedCompose:
    def test_inner_cut_square(self):
        d3 = RamifiedDiagram.from_blocks(2, 2, [(1, 3), (2,), (4,)], [(1, 3), (2, 4)])
        sc = ramified_compose(d3, d3)
        assert (sc.exp_in, sc.exp_out) == (1, 0) and sc.diagram == d3

    def test_pair_block_square(self):
        d7 = RamifiedDiagram.diagonal(PartitionDiagram(2, 2, [(1, 2), (3, 4)]))
        sc = ramified_compose(d7, d7)
        assert (sc.exp_in, sc.exp_out) == (1, 1) and sc.diagram == d7

    def test_diagonal_embedding_multiplicative(self):
        rng = random.Random(17)
        diags = all_diagrams(3)
        for _ in range(200):
            d1, d2 = rng.choice(diags), rng.choice(diags)
            plain = compose(d1, d2)
            ram = ramified_compose(RamifiedDiagram.diagonal(d1), RamifiedDiagram.diagonal(d2))
            assert ram.diagram == RamifiedDiagram.diagonal(plain.diagram)
            assert ram.exp_in == ram.exp_out == plain.exp_out

    def test_associativity_exhaustive_r2(self):
        rams = all_ramified(2)
        table = {}
        index = {rd: i for i, rd in enumerate(rams)}
        for i, r1 in enumerate(rams):
            for j, r2 in enumerate(rams):
                sc = ramified_compose(r1, r2)
                table[(i, j)] = (sc.exp_in, sc.exp_out, index[sc.diagram])
        n = len(rams)
        for i, j, k in itertools.product(range(n), repeat=3):
            s1, t1, ij = table[(i, j)]
            s2, t2, left = table[(ij, k)]
            u1, v1, jk = table[(j, k)]
            u2, v2, right = table[(i, jk)]
            assert left == right and s1 + s2 == u1 + u2 and t1 + t2 == v1 + v2

    def test_associativity_random_r3(self):
        rng = random.Random(23)
        rams = all_ramified(3)
        for _ in range(300):
            r1, r2, r3 = (rng.choice(rams) for _ in range(3))
            a = ramified_compose(r1, r2)
            left = ramified_compose(a.diagram, r3)
            b = ramified_compose(r2, r3)
            right = ramified_compose(r1, b.diagram)
            assert left.diagram == right.diagram
            assert a.exp_in + left.exp_in == b.exp_in + right.exp_in
            assert a.exp_out + left.exp_out == b.exp_out + right.exp_out

    def test_index_monotone_exhaustive_r2(self):
        rams = all_ramified(2)
        below = theta_poset(2)[1]
        for r1 in rams:
            for r2 in rams:
                product = ramified_compose(r1, r2).diagram
                idx = propagating_index(product)
                for other in (propagating_index(r1), propagating_index(r2)):
                    assert idx == other or idx in below[other]

    def test_index_monotone_random_r3(self):
        rng = random.Random(31)
        rams = all_ramified(3)
        below = theta_poset(3)[1]
        for _ in range(250):
            r1, r2 = rng.choice(rams), rng.choice(rams)
            idx = propagating_index(ramified_compose(r1, r2).diagram)
            for other in (propagating_index(r1), propagating_index(r2)):
                assert idx == other or idx in below[other]


class TestPropagatingIndex:
    def test_two_strand_catalogue(self):
        ident = PartitionDiagram.identity(2)
        merged = PartitionDiagram(2, 2, [(1, 2, 3, 4)])
        cut = PartitionDiagram(2, 2, [(1, 3), (2,), (4,)])
        loose = PartitionDiagram(2, 2, [(1,), (2,), (3,), (4,)])
        pair_blocks = PartitionDiagram(2, 2, [(1, 2), (3, 4)])
        examples = [
            (RamifiedDiagram.diagonal(ident), (1, 1)),
            (RamifiedDiagram(ident, merged), (2,)),
            (RamifiedDiagram(cut, ident), (1, 0)),
            (RamifiedDiagram.diagonal(cut), (1,)),
            (RamifiedDiagram(loose, ident), (0, 0)),
            (RamifiedDiagram(loose, cut), (0,)),
            (RamifiedDiagram.diagonal(pair_blocks), ()),
        ]
        for rd, index in examples:
            assert propagating_index(rd) == index

    def test_ten_strand_example(self):
        rd = RamifiedDiagram.parse(
            "{1,1'}|{2,2'}|{3,3'}|{4,4'}|{5,5'}|{6}|{7}|{8}|{9}|{10}|{6'}|{7'}|{8'}|{9'}|{10'}"
            "@{1,2,1',2'}|{3,4,3',4'}|{5,5'}|{6,6'}|{7}|{8}|{9}|{10}|{7'}|{8'}|{9'}|{10'}")
        assert propagating_index(rd) == (2, 2, 1, 0)


class TestThetaPoset:
    def test_theta2_elements(self):
        assert set(theta_elements(2)) == {
            (1, 1), (2,), (1, 0), (1,), (0, 0), (0,), ()
        }

    def test_merge_cover_in_theta3(self):
        _, below = theta_poset(3)
        assert (2, 0) in below[(1, 1, 0)]

    def test_bottom(self):
        _, below = theta_poset(2)
        assert () in below[(0,)]

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            theta_poset(9, bound=6)

    def test_subtraction_covers(self):
        _, below = theta_poset(3)
        assert (1, 0, 0) in below[(1, 1, 0)]
        assert (1,) in below[(2,)]


class TestElementaryDiagrams:
    # v_{gamma, epsilon} with a inner pairs per propagating block: one outer
    # block per part of gamma, holding a inner pairs and gamma_j southern
    # inner singletons, then one non-propagating block per part of epsilon

    def test_v_elementary_type(self):
        ve = RamifiedDiagram.parse(  # gamma (2, 2, 0), epsilon (3, 2), a = 2
            "{1,1'}|{2,2'}|{3,5'}|{4,6'}|{5,9'}|{6,10'}|{3'}|{4'}|{7'}|{8'}|{11'}|{12'}"
            "|{13'}|{14'}|{15'}@{1,2,1',2',3',4'}|{3,4,5',6',7',8'}|{5,6,9',10'}"
            "|{11',12',13'}|{14',15'}")
        assert type_of(ve) == DiagramType((2, 2, 0), (3, 2))
        assert propagating_index(ve) == (2, 2, 2)

    def test_v_elementary_types_sweep(self):
        for text, gamma, eps in [
            ("{1,1'}|{2,3'}|{2'}|{4'}|{5'}@{1,1',2'}|{2,3'}|{4',5'}", (1, 0), (2,)),
            ("{1,1'}|{2,4'}|{2'}|{3'}|{5'}@{1,1',2',3'}|{2,4',5'}", (2, 1), ()),
            ("{1,1'}|{2,5'}|{2'}|{3'}|{4'}@{1,1',2',3',4'}|{2,5'}", (3, 0), ()),
            ("{1}|{2}|{3}|{1'}|{2'}|{3'}|{4'}|{5'}@{1,1'}|{2,2'}|{3,3'}|{4',5'}",
             (1, 1, 1), (2,)),
        ]:
            assert type_of(RamifiedDiagram.parse(text)) == DiagramType(gamma, eps)


class TestDepthStructure:
    def test_v0_members_not_radical(self):
        for r, a, b in [(3, 0, 2), (4, 0, 2), (3, 1, 1), (4, 1, 2), (5, 0, 3)]:
            for d in v0_basis(r, a, b):
                assert not is_depth_radical(d)

    def test_radical_conditions(self):
        inner_pair = RamifiedDiagram.from_blocks(
            1, 2, [(1, 2, 3)], [(1, 2, 3)]
        )
        assert is_depth_radical(inner_pair)
        southern_singleton = RamifiedDiagram.from_blocks(
            1, 2, [(1, 2), (3,)], [(1, 2), (3,)]
        )
        assert is_depth_radical(southern_singleton)

    def test_non_rectangular_index_rejected(self):
        bad = RamifiedDiagram.parse(
            "{1}|{2}|{3,4'}|{4,5'}|{1'}|{2'}|{3'}@{1,1',2'}|{2,3'}|{3,4,4',5'}")
        assert propagating_index(bad) == (2, 0, 0)
        with pytest.raises(ValueError):
            is_depth_radical(bad)

    def test_v0_complement_is_radical(self):
        # every canonical index-(a^b) diagram is either in the basis or radical
        r, a, b = 3, 0, 2
        basis = set(v0_basis(r, a, b))
        k = b
        candidates = []
        for inner_blocks in line_set_partitions(k + r):
            inner = PartitionDiagram(k, r, inner_blocks)
            for outer in inner.coarser_diagrams():
                rd = RamifiedDiagram(inner, outer)
                if propagating_index(rd) != (a,) * b:
                    continue
                count, pi = outer.propagating_data()
                if pi != tuple(range(1, count + 1)):
                    continue
                candidates.append(rd)
        for rd in candidates:
            assert (rd in basis) != is_depth_radical(rd), rd

    def test_census_criterion(self):
        census = {}
        for d in v0_basis(5, 0, 3):
            t = type_of(d)
            census[t] = census.get(t, 0) + 1
        assert census == {
            DiagramType((3, 1, 1), ()): 10,
            DiagramType((2, 2, 1), ()): 15,
            DiagramType((1, 1, 1), (2,)): 10,
        }

    def test_small_v0(self):
        members = [d for d in v0_basis(4, 0, 0) if type_of(d).epsilon == (2, 2)]
        assert len(members) == 3

    def test_size_violation(self):
        with pytest.raises(ValueError):
            v0_basis(3, 2, 2)

    @pytest.mark.parametrize("r", range(9))
    def test_choices_match_rejection(self, r):
        for a in range(3):
            for b in range(r + 1):
                if max(a, 1) * b > r:
                    for choices in (_v0_choices, v0_choices_by_rejection):
                        with pytest.raises(ValueError, match=f"v0_basis needs .* <= r = {r}"):
                            next(choices(r, a, b))
                else:
                    assert list(_v0_choices(r, a, b)) == list(v0_choices_by_rejection(r, a, b))


class TestDqDimensions:
    def test_closed_form_count(self):
        for r in range(10):
            for b in range(min(r, 3) + 1):
                assert _v0_count(r, b) == sum(1 for _ in _v0_choices(r, 0, b)), (r, b)

    def test_example_values(self):
        assert dq_dimension_check(5, (2, 1)) == (70, 70)

    def test_r_equals_b(self):
        for beta in [(2, 1), (3,), (1, 1)]:
            dims = dq_dimension_check(sum(beta), beta)
            assert dims == (std_tableaux_count(beta),) * 2

    def test_empty_beta(self):
        assert dq_dimension_check(2, ()) == (1, 1)

    @pytest.mark.parametrize("r,beta", [(3, (2,)), (4, (1, 1)), (4, (3,)), (5, (2, 2))])
    def test_consistency_sweep(self, r, beta):
        diag, formula = dq_dimension_check(r, beta)
        assert diag == formula

    @pytest.mark.parametrize("beta", [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)])
    def test_counts_the_built_basis(self, beta):
        for r in range(sum(beta), 8):
            expected = std_tableaux_count(beta) * len(v0_basis(r, 0, sum(beta)))
            assert dq_dimension_check(r, beta)[0] == expected, r

    def test_builds_no_diagram(self, monkeypatch):
        def refuse(self, inner, outer):
            raise AssertionError("dq_dimension_check built a RamifiedDiagram")

        monkeypatch.setattr(RamifiedDiagram, "__init__", refuse)
        assert dq_dimension_check(7, (2, 1)) == (2352, 2352)
        with pytest.raises(ValueError,
                           match=r"dq-check requires \|beta\| <= r, got \|beta\| = 3, r = 2"):
            dq_dimension_check(2, (2, 1))
