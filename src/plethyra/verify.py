"""Self-contained verification batteries.

Two suites: ``examples`` runs the fast golden checks, ``acceptance`` runs
the full criteria list.  Each check either returns a detail string or
raises ``AssertionError``; nothing here touches the network or external
data.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple

from plethyra import coefficients, diagrams, partitions, schur_weyl, symfunc

KAPPAS_5 = [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]

EMPTY_INNER_TABLE = (2, 5, 4, 3, 2, 0, 0)
BOX_INNER_TABLE = (2, 6, 7, 6, 6, 3, 1)
BOX_INNER_BRUTE = (1, 3, 4, 4, 3, 2, 0)

# Golden eight-strand product: composing the two factors closes exactly one
# middle loop and merges down to three blocks.
EIGHT_STRAND_LEFT = "{1,2,4,2',5'}|{3}|{5,6,7,8'}|{8,3',4',6',7'}|{1'}"
EIGHT_STRAND_RIGHT = "{1}|{2,1',2'}|{3,4'}|{4,3'}|{5,5',6'}|{6}|{7,8,7',8'}"
EIGHT_STRAND_PRODUCT = "{1,2,4,1',2',5',6'}|{3}|{5,6,7,8,3',4',7',8'}"


def _require(ok, message=""):
    """Raise AssertionError(message) unless ok: an explicit raise, which
    ``python -O`` keeps where it strips an assert statement."""
    if not ok:
        raise AssertionError(message)


def check_empty_inner_table():
    got = tuple(coefficients.ramified_branching((), (2, 1), k) for k in KAPPAS_5)
    _require(got == EMPTY_INNER_TABLE, f"rc(empty^(2,1)) table {got} != {EMPTY_INNER_TABLE}")
    return f"rc(empty^(2,1), kappa) over kappa |- 5 = {got}"


def check_box_inner_table():
    rc = tuple(coefficients.ramified_branching((1,), (2, 1), k) for k in KAPPAS_5)
    _require(rc == BOX_INNER_TABLE, f"rc((1)^(2,1)) table {rc} != {BOX_INNER_TABLE}")
    brute = tuple(
        coefficients.plethysm_coefficient((2, 1), (3, 1), partitions.pad(k, 12))
        for k in KAPPAS_5
    )
    _require(brute == BOX_INNER_BRUTE, f"brute table {brute} != {BOX_INNER_BRUTE}")
    _require(all(b <= c for b, c in zip(brute, rc)), "brute force exceeds rc bound")
    return f"rc = {rc}, brute p((2,1),(3,1),kappa[12]) = {brute}, coordinatewise <="


def check_plethysm_sanity():
    got = symfunc.plethysm(symfunc.SchurPoly.schur((2,)), symfunc.SchurPoly.schur((2,)))
    want = symfunc.SchurPoly({(4,): 1, (2, 2): 1})
    _require(got == want, f"s2 o s2 = {got}")
    _require(got.coefficient((3, 1)) == 0)
    return "s_(2) o s_(2) = s_(4) + s_(2,2)"


def _stable_range_cases():
    """(beta, m, n, kappa, beta[n], kappa[mn]) at the bounds, where the paddings exist."""
    for beta in [(), (1,), (2,), (1, 1)]:
        for r in range(1, 5):
            m, n = coefficients.stability_bounds(beta, r)
            if m < 1:
                continue
            for kappa in partitions.partitions_of(r):
                try:
                    padded = partitions.pad(beta, n), partitions.pad(kappa, m * n)
                except ValueError:
                    continue
                yield beta, m, n, kappa, *padded


def check_stable_range_exact_bounds():
    count = 0
    for beta, m, n, kappa, beta_n, kappa_mn in _stable_range_cases():
        brute = coefficients.plethysm_coefficient(beta_n, (m,), kappa_mn)
        stable = coefficients.ramified_branching((), beta, kappa)
        _require(brute == stable,
                 f"stable-range mismatch at beta={beta}, m={m}, n={n}, kappa={kappa}: "
                 f"{brute} != {stable}")
        count += 1
    _require(count >= 40, f"sweep covered only {count} cases")
    return f"{count} exact-bound comparisons agree"


def check_tightness():
    lines = []
    for r in (4, 5):
        for b in (0, 1, 2):
            if r <= b:
                continue
            report = coefficients.tightness_check(b, r)
            _require(report.ok, f"tightness failed at b={b}, r={r}: {report}")
            lines.append(f"(b={b},r={r})")
    return "stable value minus one at every boundary: " + " ".join(lines)


def check_generating_functions():
    gf0 = partitions.stable_two_row_gf(0, 11)
    direct0 = [len(partitions.partitions_no_singletons(r)) for r in range(12)]
    _require(gf0 == direct0, f"b=0 series {gf0} != {direct0}")
    gf1 = partitions.stable_two_row_gf(1, 11)
    pseries = partitions.partition_count_series(11)
    direct1 = [0] + pseries[:11]
    _require(gf1 == direct1, f"b=1 series {gf1} != {direct1}")
    gf2 = partitions.stable_two_row_gf(2, 11)
    direct2 = [
        sum(lam.count(2) for lam in partitions.partitions_of(r)) for r in range(12)
    ]
    _require(gf2 == direct2, f"b=2 series {gf2} != {direct2}")
    # Three routes to the stable two-row value p((n-b,b), (m), (mn-r,r)):
    # generating function, b-marked-partition count, branching formula.
    for b in range(5):
        series = partitions.stable_two_row_gf(b, 10)
        for r in range(11):
            enum = coefficients.two_row_stable(b, r)
            formula = coefficients.ramified_branching((), (b,) if b else (), (r,) if r else ())
            _require(series[r] == enum == formula,
                     f"b={b}, r={r}: series {series[r]}, enumeration {enum}, rc {formula}")
    return ("first 12 coefficients match the three independent sequences; "
            "series, enumeration and rc agree for b <= 4, r <= 10")


def check_block_beta_example():
    value = coefficients.ramified_branching((), (3, 3, 3), (3, 3, 3, 2))
    _require(value == 4, f"rc(empty^(3,3,3), (3,3,3,2)) = {value}")
    summands = [
        ((3,) + (1,) * 8, ()),
        ((2, 2) + (1,) * 7, ()),
        ((1,) * 9, (2,)),
    ]
    contributions = tuple(
        (symfunc.g_sym((), (3, 3, 3), gamma) * symfunc.h_eps(eps))
        .schur_coefficient((3, 3, 3, 2))
        for gamma, eps in summands
    )
    _require(contributions == (1, 2, 1), f"contributions {contributions}")
    return "value 4 with per-summand contributions (1, 2, 1)"


def composition_table(r):
    """The Bell(2r) (r, r)-diagrams and their product table, by
    ``diagrams.compose``: ``table[i]`` is the row (loops, products) of two
    int lists, d_i * d_j closing ``loops[j]`` loops into d_{products[j]}."""
    diags = [diagrams.PartitionDiagram(r, r, blocks)
             for blocks in partitions.line_set_partitions(2 * r)]
    index = {d: i for i, d in enumerate(diags)}
    table = []
    for d1 in diags:
        row = [diagrams.compose(d1, d2) for d2 in diags]
        table.append(([sc.exp_out for sc in row], [index[sc.diagram] for sc in row]))
    return diags, table


def kernel_generators(r):
    """Generators of the partition monoid P_r (Halverson and Ram 2005): the
    identity, p_1, the join b_1 of positions 1 and 2, and the adjacent
    transpositions."""
    gens = [diagrams.PartitionDiagram.identity(r), diagrams.PartitionDiagram.p_gen(r, 1)]
    if r >= 2:
        gens.append(diagrams.PartitionDiagram.pp_gen(r, 1, 2))
    for i in range(1, r):
        perm = list(range(1, r + 1))
        perm[i - 1], perm[i] = i + 1, i
        gens.append(diagrams.PartitionDiagram.from_permutation(perm))
    return gens


def check_associative_by_light(diags, table, generators):
    """Prove the product table associative, loop counts included, by Light's
    test (Clifford and Preston, The Algebraic Theory of Semigroups I, 1.2).

    The elements a with (x a) y = x (a y) for all x, y are closed under
    products.  Loop counts add in P_r x N, so (a, 0) passing covers every
    (a, k).  Once the generators reach every diagram under the table's own
    product, it suffices to test the middle factor on the generators.
    Raises AssertionError when the closure falls short or a test fails.
    """
    index = {d: i for i, d in enumerate(diags)}
    gens = [index[g] for g in generators]
    reached = frontier = set(gens)
    while frontier:
        frontier = {table[x][1][a] for x in frontier for a in gens} - reached
        reached = reached | frontier
    if len(reached) != len(diags):
        raise AssertionError(
            f"{len(generators)} generators reach only {len(reached)} of {len(diags)} diagrams"
        )
    for a in gens:
        loops_a, prods_a = table[a]
        for x, (loops_x, prods_x) in enumerate(table):
            t1, xa = loops_x[a], prods_x[a]
            loops_xa, prods_xa = table[xa]
            for y, ay in enumerate(prods_a):
                if (prods_xa[y] != prods_x[ay]
                        or t1 + loops_xa[y] != loops_a[y] + loops_x[ay]):
                    raise AssertionError(
                        f"associativity fails: (d{x} d{a}) d{y} != d{x} (d{a} d{y})"
                    )


def check_diagram_kernel():
    lam = diagrams.PartitionDiagram.parse(EIGHT_STRAND_LEFT)
    count, perm = lam.propagating_data()
    _require((count, perm) == (3, (1, 3, 2)), f"left factor data {(count, perm)}")
    gam = diagrams.PartitionDiagram.parse(EIGHT_STRAND_RIGHT)
    product = diagrams.compose(lam, gam)
    expected = diagrams.PartitionDiagram.parse(EIGHT_STRAND_PRODUCT)
    _require(product.exp_out == 1 and product.diagram == expected,
             f"eight-strand product {product.diagram.format()} delta^{product.exp_out}")

    light = []
    for r in (1, 2, 3):
        diags, table = composition_table(r)
        gens = kernel_generators(r)
        check_associative_by_light(diags, table, gens)
        light.append((len(gens), len(diags)))
    diags3 = diags

    for r in (1, 2):
        for s in range(1, 7 - r):
            for blocks in partitions.line_set_partitions(r + s):
                d = diagrams.PartitionDiagram(r, s, blocks)
                acc = {}
                for x, c1 in diagrams.orbit_expand(d).items():
                    for dd, c2 in diagrams.orbit_collapse(x).items():
                        acc[dd] = acc.get(dd, 0) + c1 * c2
                acc = {k: v for k, v in acc.items() if v}
                _require(acc == {d: 1}, f"orbit round trip fails for {d}")

    rng = random.Random(2024)
    for _ in range(200):
        d1, d2 = rng.choice(diags3), rng.choice(diags3)
        plain = diagrams.compose(d1, d2)
        ram = diagrams.ramified_compose(
            diagrams.RamifiedDiagram.diagonal(d1), diagrams.RamifiedDiagram.diagonal(d2)
        )
        _require(ram.diagram == diagrams.RamifiedDiagram.diagonal(plain.diagram))
        _require(ram.exp_in == ram.exp_out == plain.exp_out, "exponent bookkeeping")
    gens, sizes = ("/".join(str(x) for x in col) for col in zip(*light))
    return (f"eight-strand product exact; associativity r <= 3 by Light's test on "
            f"{gens} generators, closure Bell(2r) = {sizes}; orbit round trips; "
            "embedding multiplicative")


def check_depth_quotient():
    dims = diagrams.dq_dimension_check(5, (2, 1))
    _require(dims == (70, 70), f"dq_dimension_check(5,(2,1)) = {dims}")
    basis = diagrams.v0_basis(5, 0, 3)
    census = {}
    for d in basis:
        t = diagrams.type_of(d)
        census[t] = census.get(t, 0) + 1
    want = {
        ((3, 1, 1), ()): 10,
        ((2, 2, 1), ()): 15,
        ((1, 1, 1), (2,)): 10,
    }
    got = {(t.gamma, t.epsilon): c for t, c in census.items()}
    _require(got == want, f"type census {got}")
    small = [d for d in diagrams.v0_basis(4, 0, 0) if diagrams.type_of(d).epsilon == (2, 2)]
    _require(len(small) == 3, f"|V0_4(empty; empty,(2,2))| = {len(small)}")
    return "dimensions (70, 70); census 10/15/10; 3-dimensional small case"


def check_schur_weyl():
    _require(schur_weyl.check_commute(2, 2, 2), "commutation fails at (2,2,2)")
    _require(schur_weyl.check_commute(2, 2, 3), "commutation fails at (2,2,3)")
    rank = schur_weyl.faithfulness_rank(4, 2)
    _require(rank == 15, f"faithfulness_rank(4,2) = {rank}")
    _require(not schur_weyl.check_commute(2, 3, 2, swap_roles=True),
             "negative control unexpectedly commutes")
    return "commutation at (2,2,2) and (2,2,3); rank 15; negative control fails"


def check_cayley_sylvester():
    count = 0
    for b in range(3):
        for r in range(6):
            for m in range(1, 5):
                for n in range(max(2 * b, 1), r + b + 2):
                    if n - b < b or m * n - r < r:
                        continue
                    oracle = coefficients.cayley_sylvester(b, m, n, r)
                    nu = (n - b, b) if b else (n,)
                    lam = (m * n - r, r) if r else (m * n,)
                    brute = coefficients.plethysm_coefficient(nu, (m,), lam)
                    _require(oracle == brute,
                             f"cayley mismatch at b={b} m={m} n={n} r={r}: "
                             f"{oracle} != {brute}")
                    count += 1
    return f"{count} oracle-vs-brute comparisons agree"


def check_hooks():
    for b in range(4):
        for r in range(1, 5):
            m, n = coefficients.stability_bounds((1,) * b, r)
            if m < 1 or n - b < 1 or m * n - r < 1:
                continue
            nu = (n - b,) + (1,) * b
            lam = (m * n - r,) + (1,) * r
            value = coefficients.plethysm_coefficient(nu, (m,), lam)
            expected = 1 if r == b else 0
            _require(value == expected,
                     f"hook/column case b={b}, r={r}: {value} != {expected}")
    for b in range(4):
        beta = (1,) * b
        for r in range(1, 7):
            closed = coefficients.hook_stable(b, r, column=False)
            rc = coefficients.ramified_branching((), beta, (r,))
            _require(closed == rc, f"hook_stable({b},{r}) = {closed} != rc {rc}")
    return "column cases are [r=b]; hook rows match rc up to r = 6"


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    seconds: float


ACCEPTANCE_CHECKS = [
    ("branching-table-empty-inner", check_empty_inner_table),
    ("branching-table-box-inner", check_box_inner_table),
    ("plethysm-sanity", check_plethysm_sanity),
    ("stable-range-exact-bounds", check_stable_range_exact_bounds),
    ("tightness", check_tightness),
    ("generating-functions", check_generating_functions),
    ("block-beta-example", check_block_beta_example),
    ("diagram-kernel", check_diagram_kernel),
    ("depth-quotient", check_depth_quotient),
    ("schur-weyl", check_schur_weyl),
    ("cayley-sylvester", check_cayley_sylvester),
    ("hook-and-column", check_hooks),
]

EXAMPLE_CHECKS = [
    ("branching-table-empty-inner", check_empty_inner_table),
    ("plethysm-sanity", check_plethysm_sanity),
    ("generating-functions", check_generating_functions),
    ("block-beta-example", check_block_beta_example),
    ("depth-quotient", check_depth_quotient),
    ("schur-weyl", check_schur_weyl),
]

SUITES = {"examples": EXAMPLE_CHECKS, "acceptance": ACCEPTANCE_CHECKS}


def run_suite(name: str, report=print) -> list:
    checks = SUITES[name]
    results = []
    for label, func in checks:
        start = time.perf_counter()
        try:
            detail = func()
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        elapsed = time.perf_counter() - start
        results.append(CheckResult(label, passed, detail, elapsed))
        if report:
            status = "PASS" if passed else "FAIL"
            report(f"{status} {label} ({elapsed:.2f}s): {detail}")
    return results
