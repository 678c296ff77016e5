import pytest
from hypothesis import given, seed, settings, strategies as st

from plethyra.coefficients import (
    CoefficientReport,
    DomainError,
    bounds_met,
    cayley_sylvester,
    expand_plethysm,
    hook_stable,
    one_row_kappa_stable,
    plethysm_coefficient,
    ramified_branching,
    small_r_stable,
    stable_plethysm,
    tightness_check,
    two_row_stable,
    _branching_function,
)
from plethyra.partitions import (
    marked_partitions,
    pad,
    partitions_no_singletons,
    partitions_of,
)
from plethyra.symfunc import _plethysm_expansion, _schur_times_schur, generalized_lr
from oracles import ramified_branching_by_summands

KAPPAS_5 = [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]

# Every (alpha, beta, r) with |alpha| <= 2, |beta| <= 3 and r <= 9.
SUMMAND_CASES = [(alpha, beta, r) for a in range(3) for alpha in partitions_of(a)
                 for b in range(4) for beta in partitions_of(b) for r in range(a * b, 10)]


class TestPlethysmCoefficient:
    def test_two_two_cases(self):
        values = {k: plethysm_coefficient((2,), (2,), k) for k in partitions_of(4)}
        assert values == {(4,): 1, (2, 2): 1, (3, 1): 0, (2, 1, 1): 0, (1, 1, 1, 1): 0}

    def test_trivial_inner(self):
        for nu in partitions_of(3):
            for lam in partitions_of(3):
                assert plethysm_coefficient(nu, (1,), lam) == (1 if nu == lam else 0)

    def test_derived_value(self):
        assert plethysm_coefficient((1, 1), (2,), (3, 1)) == 1

    def test_degree_mismatch(self):
        assert plethysm_coefficient((2,), (2,), (3,)) == 0

    def test_degree_guard(self):
        with pytest.raises(DomainError):
            plethysm_coefficient((10,), (10,), (100,), max_degree=60)

    def test_max_degree_override(self):
        with pytest.raises(DomainError):
            plethysm_coefficient((2,), (2,), (4,), max_degree=3)
        assert plethysm_coefficient((2,), (2,), (4,), max_degree=4) == 1

    def test_matches_full_expansion_route(self):
        from plethyra.symfunc import SchurPoly, plethysm

        for nu in partitions_of(3):
            for mu in partitions_of(2):
                expansion = plethysm(SchurPoly.schur(nu), SchurPoly.schur(mu))
                for lam in partitions_of(6):
                    assert expansion.coefficient(lam) == plethysm_coefficient(
                        nu, mu, lam
                    )

    def test_expansion_reads_the_same_cache_entry(self):
        from plethyra import coefficients, symfunc

        assert coefficients._plethysm_expansion is symfunc._plethysm_expansion
        symfunc._plethysm_expansion((2, 1), (2,))
        hits = symfunc._plethysm_expansion.cache_info().hits
        expansion = expand_plethysm((2, 1), (2,))
        assert symfunc._plethysm_expansion.cache_info().hits == hits + 1
        assert expansion == symfunc.plethysm(symfunc.SchurPoly.schur((2, 1)),
                                             symfunc.SchurPoly.schur((2,)))

    def test_expansion_cache_is_bounded(self):
        from plethyra import symfunc

        assert symfunc._plethysm_expansion.cache_info().maxsize is not None

    def test_expansion_degree_guard(self):
        with pytest.raises(DomainError):
            expand_plethysm((10,), (10,), max_degree=60)


class TestRamifiedBranching:
    def test_example_empty_alpha(self):
        got = [ramified_branching((), (2, 1), k) for k in KAPPAS_5]
        assert got == [2, 5, 4, 3, 2, 0, 0]

    def test_example_nonempty_alpha(self):
        got = [ramified_branching((1,), (2, 1), k) for k in KAPPAS_5]
        assert got == [2, 6, 7, 6, 6, 3, 1]

    def test_row_kappa_specializes_to_no_singleton_count(self):
        for r in range(9):
            assert ramified_branching((), (), (r,) if r else ()) == len(
                partitions_no_singletons(r)
            )

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ramified_branching((1,), (2, 1), (2,))

    @pytest.mark.parametrize("alpha,beta,top", [
        ((), (2, 1), 9), ((1,), (2, 1), 8), ((), (1, 1, 1), 8), ((), (3,), 8),
    ])
    def test_matches_per_summand_oracle(self, alpha, beta, top):
        for r in range(sum(alpha) * sum(beta), top + 1):
            for kappa in partitions_of(r):
                assert ramified_branching(alpha, beta, kappa) == (
                    ramified_branching_by_summands(alpha, beta, kappa)), kappa

    def test_branching_cache_is_bounded(self):
        assert _branching_function.cache_info().maxsize is not None

    @seed(16)
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.sampled_from(SUMMAND_CASES))
    def test_matches_per_summand_oracle_sampled(self, case):
        alpha, beta, r = case
        for kappa in partitions_of(r):
            assert ramified_branching(alpha, beta, kappa) == (
                ramified_branching_by_summands(alpha, beta, kappa)), kappa

    def test_branching_function_multiplies_no_schur_pair(self):
        """F is assembled in power sums by one walk over part sizes,
        whose Pieri components are horizontal strips: building it for alpha
        empty or (1) takes no Schur product, no generalized LR coefficient
        and no cached plethysm."""
        for cached in (_branching_function, _schur_times_schur, generalized_lr,
                       _plethysm_expansion):
            cached.cache_clear()
        _branching_function((), (2, 1), 12)
        _branching_function((1,), (2, 1), 10)
        assert _schur_times_schur.cache_info().currsize == 0
        assert generalized_lr.cache_info().currsize == 0
        assert _plethysm_expansion.cache_info().currsize == 0


class TestStablePlethysm:
    def test_stable_route(self):
        for m, n in [(3, 7), (4, 8), (5, 9)]:
            report = stable_plethysm((2, 1), m, n, (5,))
            assert report == CoefficientReport(2, "stable_formula", True)

    def test_brute_route_below_bounds(self):
        report = stable_plethysm((1,), 2, 3, (3,))
        assert report.route == "brute_force" and not report.bounds_met
        assert report.value == plethysm_coefficient((2, 1), (2,), pad((3,), 6))

    def test_empty_beta_row_kappa(self):
        r = 4
        report = stable_plethysm((), r, r, (r,))
        assert report.bounds_met
        assert report.value == len(partitions_no_singletons(r))

    def test_invalid_padding(self):
        with pytest.raises(DomainError):
            stable_plethysm((2, 1), 2, 2, (5,))

    def test_bounds_predicate(self):
        assert bounds_met((2, 1), 3, 7, 5)
        assert not bounds_met((2, 1), 2, 7, 5)
        assert not bounds_met((2, 1), 3, 6, 5)
        assert bounds_met((), 5, 5, 5)


class TestClosedForms:
    def test_two_row_examples(self):
        assert two_row_stable(0, 4) == 2
        assert two_row_stable(2, 4) == 3
        for b in range(1, 6):
            assert two_row_stable(b, b) == 1

    def test_two_row_matches_rc(self):
        for b in range(5):
            for r in range(9):
                beta = (b,) if b else ()
                kappa = (r,) if r else ()
                if r == 0 and b > 0:
                    continue
                assert two_row_stable(b, r) == ramified_branching((), beta, kappa)

    def test_hook_examples(self):
        assert hook_stable(2, 4, column=False) == 1
        assert hook_stable(3, 3, column=True) == 1
        assert hook_stable(2, 5, column=True) == 0

    def test_one_row_kappa(self):
        assert one_row_kappa_stable((2, 1), 5) == 2
        assert one_row_kappa_stable((), 6) == len(partitions_no_singletons(6))
        assert one_row_kappa_stable((2, 1), 2) == 0
        assert one_row_kappa_stable((3, 3, 3), 40) == 62379

    def test_one_row_kappa_hook_reduction(self):
        for b in range(1, 5):
            for r in range(b, 8):
                assert one_row_kappa_stable((1,) * b, r) == hook_stable(b, r, False)

    def test_one_row_kappa_matches_rc(self):
        for size in range(5):
            for beta in partitions_of(size):
                for r in range(max(size, 1), 8):
                    assert one_row_kappa_stable(beta, r) == ramified_branching(
                        (), beta, (r,)
                    )
        for r in range(8, 19):
            assert one_row_kappa_stable((2, 1), r) == ramified_branching((), (2, 1), (r,))
        for r in range(8, 15):
            assert hook_stable(3, r, column=False) == ramified_branching((), (1, 1, 1), (r,))


class TestSmallR:
    def test_kappa_equals_beta(self):
        for beta in [(2, 1), (3,), (2, 2)]:
            assert small_r_stable(beta, beta) == 1

    def test_smaller_kappa(self):
        assert small_r_stable((2, 1), (2,)) == 0
        assert small_r_stable((2, 1), (1, 1)) == 0

    def test_staircase_multiplicity(self):
        for ell in range(1, 5):
            beta = tuple(range(ell, 0, -1))
            kappa = (ell + 1,) + tuple(range(ell - 1, 0, -1))
            assert small_r_stable(beta, kappa) == ell

    def test_domain_error(self):
        with pytest.raises(DomainError):
            small_r_stable((2, 1), (5,))

    def test_agreement_with_rc(self):
        for size in range(5):
            for beta in partitions_of(size):
                for ksize in (size, size + 1):
                    for kappa in partitions_of(ksize):
                        assert small_r_stable(beta, kappa) == ramified_branching(
                            (), beta, kappa
                        ), (beta, kappa)


class TestCayleySylvester:
    def test_basic(self):
        for n in (2, 3, 4):
            assert cayley_sylvester(0, 2, n, 2) == plethysm_coefficient(
                (n,), (2,), (2 * n - 2, 2)
            )

    def test_classical_difference(self):
        # b = 0: difference of box-bounded partition counts
        m, n, r = 3, 4, 4
        def boxed(k):
            return sum(
                1 for lam in partitions_of(k)
                if len(lam) <= n and all(x <= m for x in lam)
            )
        assert cayley_sylvester(0, m, n, r) == boxed(r) - boxed(r - 1)

    def test_stable_regime_matches_two_row(self):
        for b in range(3):
            for r in range(b + 1, 6):
                n = r + b
                m = r - b + (1 if b else 0)
                if m < 1 or n - b < b or m * n - r < r:
                    continue
                assert cayley_sylvester(b, m, n, r) == two_row_stable(b, r)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            cayley_sylvester(3, 2, 5, 2)
        with pytest.raises(DomainError):
            cayley_sylvester(0, 1, 3, 2)


class TestTightness:
    @pytest.mark.parametrize("b,r", [(0, 4), (1, 4), (2, 4), (0, 5), (1, 5), (2, 5)])
    def test_boundaries(self, b, r):
        report = tightness_check(b, r)
        assert report.ok
        stable = ramified_branching((), (b,) if b else (), (r,))
        assert report.m_step == (stable - 1, stable - 1)
        assert report.n_step_at_bound == (stable - 1, stable - 1)
        assert report.n_step_above_bound == (stable - 1, stable - 1)

    def test_capped_marked_partitions_formula(self):
        # below the m bound the value is the capped marked-partition count
        b, r = 1, 5
        n = r + b - 1
        for m in range(2, r - b + 1):
            value = plethysm_coefficient((r - 1, b), (m,), (m * n - r, r))
            assert value == len(marked_partitions(b, r, cap=m)) - 1

    def test_requires_r_above_b(self):
        with pytest.raises(DomainError):
            tightness_check(3, 3)
