import random

import pytest

from plethyra.diagrams import PartitionDiagram
from plethyra.verify import (
    EXAMPLE_CHECKS,
    SUITES,
    check_associative_by_light,
    composition_table,
    kernel_generators,
    run_suite,
)
from oracles import associative_by_triples, bell_by_recurrence


def test_suites_registered():
    assert set(SUITES) == {"examples", "acceptance"}
    assert len(SUITES["acceptance"]) == 12


def test_examples_suite_passes():
    results = run_suite("examples", report=None)
    assert all(r.passed for r in results)
    assert [r.name for r in results] == [name for name, _ in EXAMPLE_CHECKS]


@pytest.fixture(scope="module")
def table3():
    return composition_table(3)


class TestLightAssociativity:
    def test_triple_oracle_on_the_r3_table(self, table3):
        diags, table = table3
        assert len(diags) == bell_by_recurrence(6) == 203
        assert associative_by_triples(table) is None

    @pytest.mark.parametrize("r", (1, 2, 3))
    def test_generators_reach_every_diagram(self, r, table3):
        diags, table = table3 if r == 3 else composition_table(r)
        gens = kernel_generators(r)
        assert len(diags) == bell_by_recurrence(2 * r)
        assert len(gens) == r + 1 + (r >= 2)
        check_associative_by_light(diags, table, gens)

    def test_perturbed_table_fails_both(self, table3):
        diags, table = table3
        gens = kernel_generators(3)
        rng = random.Random(1961)
        for case in range(40):
            i, j = rng.randrange(len(diags)), rng.randrange(len(diags))
            loops, products = (list(half) for half in table[i])
            if case % 2:
                loops[j] += 1
            else:
                products[j] = rng.choice([x for x in range(len(diags)) if x != products[j]])
            bad = list(table)
            bad[i] = (loops, products)
            assert associative_by_triples(bad) is not None, (i, j, loops[j], products[j])
            with pytest.raises(AssertionError):
                check_associative_by_light(diags, bad, gens)

    @pytest.mark.parametrize("r", (2, 3))
    @pytest.mark.parametrize("dropped", ("pp_gen", "p_gen"))
    def test_missing_generator_falls_short(self, r, dropped, table3):
        diags, table = table3 if r == 3 else composition_table(r)
        drop = {"pp_gen": PartitionDiagram.pp_gen(r, 1, 2),
                "p_gen": PartitionDiagram.p_gen(r, 1)}[dropped]
        gens = [g for g in kernel_generators(r) if g != drop]
        with pytest.raises(AssertionError, match=f"reach only .* of {len(diags)} diagrams"):
            check_associative_by_light(diags, table, gens)
