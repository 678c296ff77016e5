import pytest
from hypothesis import given, seed, settings, strategies as st

from plethyra.partitions import (
    MarkedPartition,
    as_partition,
    cayley_tableaux_count,
    conjugate,
    hook_content_series,
    horizontal_strips,
    is_coarser,
    line_set_partitions,
    marked_partitions,
    marked_partitions_distinct,
    mobius_coarsenings,
    pad,
    partition_count_series,
    partitions_no_singletons,
    partitions_of,
    stable_two_row_gf,
    std_tableaux_count,
)
from oracles import (
    bell_by_recurrence,
    brute_cayley_tableaux,
    brute_standard_tableaux,
    count_partitions_brute,
    mobius_by_recursion,
    ssyt_monomials,
)
from plethyra.symfunc import _schur_times_schur

partition_strategy = st.lists(st.integers(1, 6), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestPartitionsOf:
    def test_zero(self):
        assert partitions_of(0) == ((),)

    def test_four(self):
        assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))

    def test_count_eleven_against_pentagonal(self):
        assert len(partitions_of(11)) == 56
        assert partition_count_series(11)[11] == 56

    @pytest.mark.parametrize("n", range(13))
    def test_pentagonal_vs_enumeration(self, n):
        assert partition_count_series(n)[n] == len(partitions_of(n))
        assert count_partitions_brute(n) == len(partitions_of(n))

    def test_descending_lex_order(self):
        for n in range(9):
            parts = partitions_of(n)
            assert list(parts) == sorted(parts, reverse=True)


class TestHorizontalStrips:
    @pytest.mark.parametrize("k", range(8))
    def test_equal_to_the_lr_product_by_a_row(self, k):
        """The strips are the Schur components of s_alpha * s_(k), each with
        coefficient 1, read here from LR fillings (Pieri's rule)."""
        for n in range(8):
            for alpha in partitions_of(n):
                strips = horizontal_strips(alpha, k)
                assert len(set(strips)) == len(strips), (alpha, k)
                assert strips == sorted(strips, reverse=True), (alpha, k)
                row = (k,) if k else ()
                assert dict.fromkeys(strips, 1) == _schur_times_schur(alpha, row), (alpha, k)


class TestNoSingletons:
    def test_zero_is_empty_partition(self):
        assert partitions_no_singletons(0) == ((),)

    def test_one_is_empty_set(self):
        assert partitions_no_singletons(1) == ()

    def test_four(self):
        assert set(partitions_no_singletons(4)) == {(4,), (2, 2)}

    @pytest.mark.parametrize("q", range(21))
    def test_filter_of_all_partitions(self, q):
        assert partitions_no_singletons(q) == tuple(
            lam for lam in partitions_of(q) if 1 not in lam)


class TestMarkedPartitions:
    def test_counts_small(self):
        assert len(marked_partitions(0, 4)) == 2
        assert len(marked_partitions(1, 4)) == 3
        assert len(marked_partitions(2, 4)) == 3

    def test_zero_marked_contents(self):
        assert set(marked_partitions(0, 4)) == {
            MarkedPartition((), (4,)), MarkedPartition((), (2, 2))
        }

    def test_distinct(self):
        assert marked_partitions_distinct(2, 4) == [MarkedPartition((3, 1), ())]

    def test_staircase_is_distinct(self):
        for b in range(1, 5):
            staircase = tuple(range(b, 0, -1))
            assert MarkedPartition(staircase, ()) in marked_partitions_distinct(
                b, b * (b + 1) // 2
            )

    def test_inactive_cap(self):
        for b in range(4):
            for r in range(9):
                assert marked_partitions(b, r, cap=r) == marked_partitions(b, r)

    def test_cap_restricts_both_components(self):
        capped = marked_partitions(1, 4, cap=2)
        assert MarkedPartition((4,), ()) not in capped
        assert MarkedPartition((1,), (3,)) not in capped
        assert MarkedPartition((2,), (2,)) in capped

    @pytest.mark.parametrize("cap", [None, 0, 1, 2, 3, 4, 5])
    def test_gammas_are_length_filter(self, cap):
        """gamma runs over the b-part partitions of p with parts <= cap in
        the order of partitions_of, once per admissible epsilon of r - p."""
        for b in range(5):
            for r in range(13):
                expected = []
                for p in range(r + 1):
                    eps_count = sum(1 for eps in partitions_no_singletons(r - p)
                                    if cap is None or not eps or eps[0] <= cap)
                    expected += [gamma for gamma in partitions_of(p, cap) if len(gamma) == b
                                 for _ in range(eps_count)]
                assert [mp.gamma for mp in marked_partitions(b, r, cap)] == expected, (b, r)

    def test_gf_matches_enumeration(self):
        for b in range(5):
            series = stable_two_row_gf(b, 12)
            for r in range(13):
                assert series[r] == len(marked_partitions(b, r))


class TestStableTwoRowGf:
    def test_b0_prefix(self):
        assert stable_two_row_gf(0, 6) == [1, 0, 1, 1, 2, 2, 4]

    def test_b1_is_shifted_partition_numbers(self):
        series = stable_two_row_gf(1, 12)
        p = partition_count_series(11)
        assert series == [0] + p

    def test_b2_counts_twos(self):
        series = stable_two_row_gf(2, 10)
        for r in range(11):
            twos = sum(lam.count(2) for lam in partitions_of(r))
            assert series[r] == twos


class TestTableauxCounts:
    def test_one_row(self):
        for n in range(1, 9):
            assert std_tableaux_count((n,)) == 1

    def test_examples(self):
        assert std_tableaux_count((2, 1)) == 2
        assert std_tableaux_count((3, 2)) == 5

    @pytest.mark.parametrize("n", range(1, 9))
    def test_hooks_vs_brute_enumeration(self, n):
        for lam in partitions_of(n):
            assert std_tableaux_count(lam) == brute_standard_tableaux(lam)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rsk_mass(self, n):
        total = sum(std_tableaux_count(lam) ** 2 for lam in partitions_of(n))
        import math

        assert total == math.factorial(n)


class TestSsytWeightSets:
    """Semistandard beta-tableaux with entries >= 1 summing to p: the
    coefficient of q^(p - |beta|) in hook_content_series(beta, .)."""

    def test_minimal_sum_gap(self):
        # the least entry sum of a (2, 1)-tableau is 1 + 1 + 2
        assert hook_content_series((2, 1), 0) == [0]

    def test_two_fillings(self):
        assert hook_content_series((2, 1), 2)[2] == 2

    def test_single_box(self):
        assert hook_content_series((1,), 8) == [1] * 9

    def test_empty_shape(self):
        assert hook_content_series((), 3) == [1, 0, 0, 0]

    @pytest.mark.parametrize("size", range(5))
    def test_against_monomial_oracle(self, size):
        # entries >= 1 summing to p are at most p, so p variables suffice
        for beta in partitions_of(size):
            series = hook_content_series(beta, 10 - size)
            for p in range(size, 11):
                weights = [sum(i * v for i, v in enumerate(vec, 1))
                           for vec in ssyt_monomials(beta, p)]
                assert series[p - size] == weights.count(p)


def _hook_product(lam, nvars):
    """Number of semistandard lam-tableaux with entries in {1..nvars}:
    prod_u (nvars + c(u)) / h(u)."""
    conj = conjugate(lam)
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= nvars + j - i
            den *= row - j + conj[j] - i - 1
    return num // den


class TestHookContentSeries:
    def test_one_box(self):
        assert hook_content_series((1,), 4) == [1, 1, 1, 1, 1]
        assert hook_content_series((1,), 4, 2) == [1, 1, 0, 0, 0]

    def test_too_many_rows_vanish(self):
        assert hook_content_series((1, 1, 1), 6, 2) == [0] * 7
        assert hook_content_series((2, 1, 1), 6, 1) == [0] * 7
        assert hook_content_series((), 3, 0) == [1, 0, 0, 0]

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            hook_content_series((2, 1), -1)
        with pytest.raises(ValueError):
            hook_content_series((2, 1), 3, -1)


class TestCayleyTableaux:
    def test_paper_value(self):
        for m in (3, 4, 7):
            assert cayley_tableaux_count(m, 8, 3, 5) == 5

    def test_single_row_is_bounded_partitions(self):
        # k = 0 reduces to partitions of r in an n x m box
        m, n, r = 3, 4, 5
        boxed = [
            lam for lam in partitions_of(r)
            if len(lam) <= n and all(x <= m for x in lam)
        ]
        assert cayley_tableaux_count(m, n, 0, r) == len(boxed)

    def test_zero_sum(self):
        assert cayley_tableaux_count(3, 5, 0, 0) == 1

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            cayley_tableaux_count(2, 5, 3, 4)

    @pytest.mark.parametrize("m,n,k", [(2, 5, 2), (3, 6, 2), (2, 6, 3), (3, 5, 0),
                                       (0, 4, 0), (0, 4, 2), (0, 0, 0)])
    def test_against_brute_enumeration(self, m, n, k):
        for r in range(-1, m * n + 2):
            assert cayley_tableaux_count(m, n, k, r) == brute_cayley_tableaux(m, n, k, r)

    @pytest.mark.parametrize("m", range(7))
    def test_symmetry_and_total(self, m):
        # complementing entries (v -> m - v, rotated) maps sum r to mn - r;
        # the total is the number of tableaux with entries in m + 1 values
        for n in range(11):
            for k in range(n // 2 + 1):
                counts = [cayley_tableaux_count(m, n, k, r) for r in range(m * n + 1)]
                assert counts == counts[::-1]
                shape = tuple(part for part in (n - k, k) if part)
                assert sum(counts) == _hook_product(shape, m + 1)

    def test_large_values_at_once(self):
        # far beyond any enumeration: the series is truncated at r
        assert cayley_tableaux_count(60, 100, 3, 40) == 726058
        assert cayley_tableaux_count(60, 100, 3, 39) == 583644
        assert cayley_tableaux_count(10**9, 10**9, 3, 40) == 726058
        assert cayley_tableaux_count(30, 60, 20, 300) == 1529180811680034359951
        assert cayley_tableaux_count(3, 8, 3, 10**12) == 0


class TestSetPartitions:
    def test_bell_counts(self):
        for q in range(7):
            assert len(line_set_partitions(q)) == bell_by_recurrence(q)

    def test_bell_four(self):
        assert len(line_set_partitions(4)) == 15

    def test_mobius_reflexive(self):
        for part in line_set_partitions(4):
            assert dict(mobius_coarsenings(part))[part] == 1

    def test_mobius_two_elements(self):
        fine = ((1,), (2,))
        coarse = ((1, 2),)
        assert dict(mobius_coarsenings(fine))[coarse] == -1

    def test_coarser_needs_one_ground_set(self):
        assert not is_coarser(((1,),), ((1, 2),))
        assert not is_coarser(((1, 2),), ((1,),))
        assert not is_coarser(((3,),), ((1,),))
        assert is_coarser(((1,), (2,)), ((1, 2),))

    @pytest.mark.parametrize("q", range(1, 7))
    def test_mobius_matches_closed_form(self, q):
        # the package's product formula against the recursive definition,
        # on every comparable pair
        parts = line_set_partitions(q)
        for fine in parts:
            ups = mobius_coarsenings(fine)
            assert sorted(coarse for coarse, _ in ups) == [
                coarse for coarse in parts if is_coarser(fine, coarse)]
            for coarse, mu in ups:
                assert mu == mobius_by_recursion(fine, coarse)

    @pytest.mark.parametrize("q", range(1, 7))
    def test_zeta_mobius_inversion(self, q):
        # sum of mobius over every interval is the identity indicator
        for top in line_set_partitions(q):
            mu = dict(mobius_coarsenings(top))
            for bottom in mu:
                total = sum(mu[mid] for mid in mu if is_coarser(mid, bottom))
                assert total == (1 if top == bottom else 0)

    @pytest.mark.slow
    @pytest.mark.parametrize("q", (7, 8))
    def test_zeta_mobius_inversion_sampled(self, q):
        import random

        rng = random.Random(q)
        parts = line_set_partitions(q)
        for _ in range(12):
            top = rng.choice(parts)
            mu = dict(mobius_coarsenings(top))
            bottom = rng.choice(list(mu))
            total = sum(mu[mid] for mid in mu if is_coarser(mid, bottom))
            assert total == (1 if top == bottom else 0)
            assert mu[bottom] == mobius_by_recursion(top, bottom)


class TestPadding:
    def test_pad_examples(self):
        assert pad((2, 1), 7) == (4, 2, 1)
        assert pad((), 3) == (3,)
        assert pad((), 0) == ()

    def test_invalid_padding(self):
        with pytest.raises(ValueError, match="invalid padding: 4 - "):
            pad((3,), 4)
        with pytest.raises(ValueError, match="invalid padding: -1 - "):
            pad((), -1)

    @given(partition_strategy, st.integers(0, 40))
    @seed(357)
    @settings(max_examples=100, derandomize=True)
    def test_pad_size(self, lam, total):
        if total - sum(lam) < (lam[0] if lam else 0):
            with pytest.raises(ValueError, match="invalid padding"):
                pad(lam, total)
        else:
            resolved = pad(lam, total)
            assert sum(resolved) == total
            assert resolved == as_partition(resolved)


class TestMisc:
    def test_conjugate_involution(self):
        for n in range(8):
            for lam in partitions_of(n):
                assert conjugate(conjugate(lam)) == lam

    @given(partition_strategy)
    @seed(372)
    @settings(max_examples=100, derandomize=True)
    def test_as_partition_idempotent(self, lam):
        assert as_partition(lam) == lam
