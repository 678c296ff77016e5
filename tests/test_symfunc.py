import math
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from plethyra.coefficients import expand_plethysm, plethysm_coefficient
from plethyra.partitions import partitions_no_singletons, partitions_of, std_tableaux_count
from plethyra.symfunc import (
    PowerSumPoly,
    SchurPoly,
    _character_row,
    _schur_times_schur,
    character,
    g_sym,
    generalized_lr,
    h_eps,
    lr_coefficient,
    plethysm,
    powersum_to_schur,
    schur_to_powersum,
    zee,
)
from oracles import (
    characters_by_jacobi_trudi,
    g_sym_by_pieces,
    lr_by_characters,
    monomial_plethysm,
)

s = SchurPoly.schur


@st.composite
def factor_pair(draw):
    """(mu, nu) with |mu| + |nu| <= 9."""
    total = draw(st.integers(0, 9))
    size = draw(st.integers(0, total))
    return (draw(st.sampled_from(partitions_of(size))),
            draw(st.sampled_from(partitions_of(total - size))))


@st.composite
def plethysm_pair(draw):
    """(nu, mu) with |mu| >= 1 and |nu| * |mu| <= 12."""
    dm = draw(st.integers(1, 12))
    dn = draw(st.integers(0, 12 // dm))
    return (draw(st.sampled_from(partitions_of(dn))),
            draw(st.sampled_from(partitions_of(dm))))


small_partition = st.lists(st.integers(1, 4), max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def _oracle_nvars(nu, mu):
    """Variables enough for the monomial oracle to see all of s_nu o s_mu:
    each s_lam in it sits in s_mu^|nu|, so ell(lam) <= |nu| * ell(mu)."""
    return min(sum(nu) * sum(mu), sum(nu) * len(mu))


def random_poly(rng, degree, max_terms=3):
    terms = {}
    pool = list(partitions_of(degree))
    for lam in rng.sample(pool, min(max_terms, len(pool))):
        terms[lam] = rng.randint(-3, 3)
    return SchurPoly(terms)


class TestLittlewoodRichardson:
    def test_pieri_one_box(self):
        assert lr_coefficient((2,), (1,), (1,)) == 1

    def test_restriction_of_two_one(self):
        assert lr_coefficient((2, 1), (1,), (2,)) == 1
        assert lr_coefficient((2, 1), (1,), (1, 1)) == 1

    def test_multiplicity_two(self):
        assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2

    def test_degree_mismatch_is_zero(self):
        assert lr_coefficient((3,), (1,), (1,)) == 0

    def test_symmetry_in_lower_labels(self):
        rng = random.Random(11)
        for _ in range(25):
            mu = rng.choice(partitions_of(rng.randint(0, 4)))
            nu = rng.choice(partitions_of(rng.randint(0, 4)))
            for lam in partitions_of(sum(mu) + sum(nu)):
                assert lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu)

    @pytest.mark.parametrize("lam,mu,nu", [
        ((3, 3, 3, 2), (3, 3, 2), (3,)),
        ((4, 2), (2, 1), (2, 1)),
        ((2, 2, 1, 1), (2, 1), (2, 1)),
        ((3, 2, 1), (2, 1), (2, 1)),
    ])
    def test_against_character_oracle(self, lam, mu, nu):
        assert lr_coefficient(lam, mu, nu) == lr_by_characters(lam, mu, nu)

    def test_full_products_against_character_oracle(self):
        for mu in partitions_of(3):
            for nu in partitions_of(3):
                for lam in partitions_of(6):
                    assert lr_coefficient(lam, mu, nu) == lr_by_characters(lam, mu, nu)


class TestGeneralizedLR:
    def test_single_factor(self):
        for lam in partitions_of(4):
            assert generalized_lr(lam, (lam,)) == 1

    def test_all_one_row(self):
        assert generalized_lr((4,), ((2,), (1,), (1,))) == 1
        assert generalized_lr((4,), ((3,), (1,))) == 1

    def test_agrees_with_plain_lr(self):
        assert generalized_lr((2, 1), ((1,), (2,))) == lr_coefficient((2, 1), (1,), (2,))

    def test_order_insensitive(self):
        seqs = [((2,), (1, 1), (1,)), ((1,), (2,), (1, 1)), ((1, 1), (1,), (2,))]
        values = {generalized_lr((2, 2), seq) for seq in seqs}
        assert len(values) == 1

    def test_one_row_iff(self):
        # restricting a one-row shape is nonzero exactly on one-row factors
        for c2, c1 in [(2, 2), (3, 1), (2, 3)]:
            b = c2 + c1
            for f2 in partitions_of(c2):
                for f1 in partitions_of(c1):
                    value = generalized_lr((b,), (f2, f1))
                    expected = 1 if len(f2) <= 1 and len(f1) <= 1 else 0
                    assert value == expected

    def test_size_mismatch(self):
        assert generalized_lr((2, 1), ((2,),)) == 0


class TestSchurProduct:
    def test_two_boxes(self):
        assert s((1,)) * s((1,)) == SchurPoly({(2,): 1, (1, 1): 1})

    def test_youngs_rule(self):
        prod = s((2, 1)) * s((2,))
        assert prod == SchurPoly({(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1})

    def test_large_coefficient(self):
        assert (s((3,)) * s((3, 3, 2))).coefficient((3, 3, 3, 2)) == 1

    def test_commutative_and_associative_random(self):
        rng = random.Random(5)
        for _ in range(20):
            f = random_poly(rng, rng.randint(1, 4))
            g = random_poly(rng, rng.randint(1, 3))
            h = random_poly(rng, rng.randint(1, 3))
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)

    @given(small_partition, small_partition)
    @seed(160)
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_commutative_hypothesis(self, mu, nu):
        assert s(mu) * s(nu) == s(nu) * s(mu)

    @given(factor_pair())
    @seed(165)
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_product_kernel_against_character_oracle(self, pair):
        """Every nonzero c^lam_{mu,nu} and no zero entry, in either order,
        with the f^lam-weighted sum counting the induced module's dimension."""
        mu, nu = pair
        n = sum(mu) + sum(nu)
        prod = _schur_times_schur(mu, nu)
        want = {}
        for lam in partitions_of(n):
            c = lr_by_characters(lam, mu, nu)
            if c:
                want[lam] = c
        assert prod == want
        assert _schur_times_schur(nu, mu) == prod
        dimension = sum(c * std_tableaux_count(lam) for lam, c in prod.items())
        assert dimension == (math.comb(n, sum(mu)) * std_tableaux_count(mu)
                             * std_tableaux_count(nu))


class TestCharacters:
    def test_trivial_character(self):
        for rho in partitions_of(5):
            assert character((5,), rho) == 1

    def test_sign_character(self):
        for rho in partitions_of(4):
            assert character((1, 1, 1, 1), rho) == (-1) ** (4 - len(rho))

    def test_column_orthogonality_mass(self):
        n = 5
        for rho in partitions_of(n):
            total = sum(character(lam, rho) ** 2 for lam in partitions_of(n))
            assert total == zee(rho)


class TestPowerSumKernels:
    """The row pairing, the border-strip expansion and the character rows
    against each other and against Jacobi-Trudi determinants."""

    def test_character_rows_against_jacobi_trudi(self):
        for n in range(11):
            rhos = partitions_of(n)
            for lam in rhos:
                row = _character_row(lam, rhos)
                assert row == [character(lam, rho) for rho in rhos], lam
                oracle = characters_by_jacobi_trudi(lam)
                assert row == [oracle[rho] for rho in rhos], lam

    @given(plethysm_pair())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_row_pairing_matches_strip_expansion(self, pair):
        nu, mu = pair
        expansion = expand_plethysm(nu, mu)
        for lam in partitions_of(sum(nu) * sum(mu)):
            assert plethysm_coefficient(nu, mu, lam) == expansion.coefficient(lam), lam


class TestBasisTransition:
    def test_p1_is_s1(self):
        assert powersum_to_schur(PowerSumPoly({(1,): 1})) == s((1,))

    def test_p2(self):
        # the class function of p_2 is z_(2) = 2 at (2)
        assert powersum_to_schur(PowerSumPoly({(2,): 2})) == SchurPoly(
            {(2,): 1, (1, 1): -1}
        )

    def test_round_trip(self):
        for lam in [(3, 2, 1), (4,), (2, 2), (1, 1, 1)]:
            assert powersum_to_schur(schur_to_powersum(s(lam))) == s(lam)

    @given(small_partition)
    @seed(236)
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_round_trip_hypothesis(self, lam):
        assert powersum_to_schur(schur_to_powersum(s(lam))) == s(lam)

    def test_non_integral_rejected(self):
        # value 1 at (1, 1) is p_1^2 / 2 = (s_2 + s_11) / 2
        with pytest.raises(ValueError, match="non-integral Schur coefficient"):
            powersum_to_schur(PowerSumPoly({(1, 1): 1}))


class TestInnerProduct:
    def test_orthonormality(self):
        for lam in partitions_of(4):
            for mu in partitions_of(4):
                expected = 1 if lam == mu else 0
                assert s(lam).inner(s(mu)) == expected

    def test_no_three_one_in_h22(self):
        assert plethysm(s((2,)), s((2,))).inner(s((3, 1))) == 0


class TestPlethysm:
    def test_worked_expansion(self):
        assert plethysm(s((2,)), s((2,))) == SchurPoly({(4,): 1, (2, 2): 1})

    def test_identity_right_unit(self):
        for lam in [(3, 1), (2, 2), (4,)]:
            assert plethysm(s(lam), s((1,))) == s(lam)

    def test_sign_square(self):
        assert plethysm(s((1, 1)), s((2,))) == s((3, 1))

    def test_rejects_inhomogeneous(self):
        mixed = s((2,)) + s((1,))
        with pytest.raises(ValueError):
            plethysm(mixed, s((1,)))
        with pytest.raises(ValueError):
            plethysm(s((1,)), mixed)

    def test_rejects_degree_zero_right(self):
        with pytest.raises(ValueError):
            plethysm(s((2,)), SchurPoly.one())

    def test_additive_in_left_slot(self):
        f1, f2, g = s((2,)), s((1, 1)), s((2, 1))
        assert plethysm(f1 + f2, g) == plethysm(f1, g) + plethysm(f2, g)

    def test_monomial_oracle_products_leq_eight(self):
        for dn in range(1, 5):
            for dm in range(1, 5):
                if dn * dm > 8 or dm == 0:
                    continue
                for nu in partitions_of(dn):
                    for mu in partitions_of(dm):
                        expected = monomial_plethysm(nu, mu, nvars=_oracle_nvars(nu, mu))
                        assert plethysm(s(nu), s(mu)).terms == expected, (nu, mu)

    @pytest.mark.parametrize("nu", partitions_of(3))
    @pytest.mark.parametrize("mu", partitions_of(3))
    def test_monomial_oracle_three_by_three(self, nu, mu):
        expected = monomial_plethysm(nu, mu, nvars=_oracle_nvars(nu, mu))
        assert plethysm(s(nu), s(mu)).terms == expected

    def test_positivity_sweep(self):
        for dn in range(1, 13):
            for dm in range(1, 13):
                if dn * dm > 12:
                    continue
                for nu in partitions_of(dn):
                    for mu in partitions_of(dm):
                        result = plethysm(s(nu), s(mu))
                        assert all(c >= 0 for c in result.terms.values()), (nu, mu)
                        assert result.degree() == dn * dm


class TestHEps:
    def test_empty(self):
        assert powersum_to_schur(h_eps(())) == SchurPoly.one()

    def test_single_part(self):
        assert powersum_to_schur(h_eps((2,))) == s((2,))
        assert powersum_to_schur(h_eps((3,))) == s((3,))

    def test_two_twos(self):
        assert powersum_to_schur(h_eps((2, 2))) == SchurPoly({(4,): 1, (2, 2): 1})

    def test_distinct_parts_are_complete_homogeneous(self):
        # with distinct part sizes this is h_eps in the classical sense
        assert powersum_to_schur(h_eps((3, 2))) == s((3,)) * s((2,))

    def test_identity_value_counts_set_partitions(self):
        """h_eps at (1^q) is the number of set partitions of a q-set with
        block sizes eps, q! / (prod_i eps_i! * prod_j m_j(eps)!)."""
        for q in range(13):
            for eps in partitions_no_singletons(q):
                blocks = math.prod(math.factorial(part) for part in eps)
                orders = math.prod(math.factorial(eps.count(j)) for j in set(eps))
                assert h_eps(eps).terms.get((1,) * q, 0) == (
                    math.factorial(q) // (blocks * orders)), eps


class TestGSym:
    def test_gamma_empty_is_plethysm(self):
        for alpha in [(1,), (2,), (1, 1)]:
            for beta in [(1,), (2,), (2, 1)]:
                assert powersum_to_schur(g_sym(alpha, beta, ())) == plethysm(s(beta), s(alpha))

    def test_alpha_empty_ones(self):
        for beta in [(2, 1), (3,), (1, 1)]:
            b = sum(beta)
            assert powersum_to_schur(g_sym((), beta, (1,) * b)) == s(beta)

    def test_one_row_beta_gives_h(self):
        for gamma in [(2, 1), (3, 1), (2, 2), (1, 1, 1)]:
            b = len(gamma)
            assert powersum_to_schur(g_sym((), (b,), gamma)) == powersum_to_schur(h_eps(gamma))

    def test_zero_conditions(self):
        assert not g_sym((), (2, 1), (2,))          # wrong length for empty alpha
        assert not g_sym((1,), (1,), (1, 1))        # too many parts
        assert g_sym((1,), (2, 1), (2,))            # allowed: length below |beta|

    def test_side_conditions(self):
        """For alpha empty, G is nonzero exactly when ell(gamma) = |beta|;
        for alpha = (1), exactly when ell(gamma) <= |beta|."""
        for b in range(5):
            for beta in partitions_of(b):
                for p in range(7):
                    for gamma in partitions_of(p):
                        assert bool(g_sym((), beta, gamma)) == (len(gamma) == b), (beta, gamma)
                        assert bool(g_sym((1,), beta, gamma)) == (len(gamma) <= b), (beta, gamma)

    def test_degree_formula(self):
        for alpha in [(), (1,), (2,)]:
            for beta in [(1,), (2,), (2, 1)]:
                for p in range(4):
                    for gamma in partitions_of(p):
                        value = powersum_to_schur(g_sym(alpha, beta, gamma))
                        if value:
                            assert value.degree() == sum(gamma) + sum(alpha) * sum(beta)

    @pytest.mark.parametrize("alpha", [(), (1,), (2,), (1, 1), (2, 1)])
    def test_matches_pieces_oracle(self, alpha):
        """The Young-subgroup walk against generalized LR coefficients over
        pieces, for |beta| <= 4 and |gamma| <= 6, with and without zero
        parts."""
        for b in range(5):
            for beta in partitions_of(b):
                for p in range(7):
                    for gamma in partitions_of(p):
                        for padded in (gamma, gamma + (0,)):
                            assert g_sym(alpha, beta, padded) == (
                                g_sym_by_pieces(alpha, beta, padded)), (beta, padded)
