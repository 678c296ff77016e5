"""The benchmark's four workloads: item lists drawn from a seed, and checks.

An item is one labelled call.  The worker times ``item.call()`` and, after
the timed region, passes the value to ``item.check``, which returns None when
the value is right and a message otherwise.  A group check tests an identity
over several items' values at once; when it fails, every item in the group
counts as failed.

The seed sets the item order and, in ``plethysm-brute``, which shapes are
drawn from each fixed size slot.  Item counts and degrees do not depend on
the seed.  ``tiny`` selects the small lists the self-test runs.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from plethyra import coefficients, diagrams, partitions, schur_weyl, verify

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("rc-sweep", "plethysm-brute", "schur-weyl", "cli-cold")
CLI_TIMEOUT_S = 150


@dataclass
class Item:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    known_defect: bool = False


@dataclass
class GroupCheck:
    labels: tuple
    check: Callable[[dict], "str | None"]


def fmt(lam) -> str:
    return "[" + ",".join(str(x) for x in lam) + "]"


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def recorded(table: dict, key: str, got) -> "str | None":
    if key not in table:
        return f"no value recorded for {key}"
    if got != table[key]:
        return f"got {got!r}, recorded {table[key]!r}"
    return None


def build(workload: str, seed: int, tiny: bool, expected: dict, runner=None):
    """Items and group checks of one workload, in the seed's order.
    ``runner(argv)`` runs one cli-cold item; see ``run_cli``."""
    rng = random.Random(seed)
    if workload == "rc-sweep":
        items, groups = rc_sweep(tiny, expected["rc-sweep"])
    elif workload == "plethysm-brute":
        items, groups = plethysm_brute(tiny, rng), []
    elif workload == "schur-weyl":
        items, groups = schur_weyl_items(tiny), []
    elif workload == "cli-cold":
        items, groups = cli_cold(tiny, expected["cli-cold"], runner), []
    else:
        raise ValueError(f"unknown workload {workload}")
    rng.shuffle(items)
    return items, groups


# ---------------------------------------------------------------------------
# rc-sweep: the stable-formula route, rc(alpha^beta, kappa) for every kappa |- r.

# (alpha, beta, r).  The empty and box inner shapes carry the cost; the hook
# beta = (1^3) is checked against hook_stable; the small empty-inner group is
# checked against the diagrammatic side of the depth-quotient identity.
RC_GROUPS = {
    False: [((), (2, 1), 13), ((), (2, 1), 14), ((1,), (2, 1), 12),
            ((), (1, 1, 1), 10), ((), (2, 1), 8)],
    True: [((), (2, 1), 6), ((1,), (2, 1), 5), ((), (1, 1, 1), 5)],
}
DQ_MAX_R = 8  # v0_basis enumerates set partitions of r: Bell(8) = 4140


def rc_key(alpha, beta, kappa) -> str:
    return f"{fmt(alpha)}^{fmt(beta)}:{fmt(kappa)}"


def _rc_check(alpha, beta, kappa, table):
    key = rc_key(alpha, beta, kappa)
    r = sum(kappa)

    def check(value):
        msg = recorded(table, key, value)
        if msg or alpha or kappa != (r,):
            return msg
        want = coefficients.one_row_kappa_stable(beta, r)
        if value != want:
            return f"one_row_kappa_stable gives {want}, rc gives {value}"
        if set(beta) == {1}:
            want = coefficients.hook_stable(len(beta), r, column=False)
            if value != want:
                return f"hook_stable gives {want}, rc gives {value}"
        return None

    return check


def _dq_identity(beta, r, labels):
    def check(values):
        diagrammatic = (partitions.std_tableaux_count(beta)
                        * len(diagrams.v0_basis(r, 0, sum(beta))))
        formula = sum(values[rc_key((), beta, kappa)]
                      * partitions.std_tableaux_count(kappa)
                      for kappa in partitions.partitions_of(r))
        if diagrammatic != formula:
            return f"sum rc*f^kappa = {formula} != diagrammatic {diagrammatic}"
        return None

    return GroupCheck(labels, check)


def rc_sweep(tiny: bool, table: dict):
    items, groups = [], []
    for alpha, beta, r in RC_GROUPS[tiny]:
        labels = []
        for kappa in partitions.partitions_of(r):
            label = rc_key(alpha, beta, kappa)
            labels.append(label)
            items.append(Item(
                label,
                lambda a=alpha, b=beta, k=kappa: coefficients.ramified_branching(a, b, k),
                _rc_check(alpha, beta, kappa, table),
            ))
        if not alpha and r <= DQ_MAX_R:
            groups.append(_dq_identity(beta, r, tuple(labels)))
    return items, groups


# ---------------------------------------------------------------------------
# plethysm-brute: the brute-force route, plethysm_coefficient(nu, (m), lam).

# Size slots: (nu, m) of degree |nu|*m between 36 and 40.  The seed draws
# which lambdas each slot evaluates, one per stratum of r; the number per
# slot is fixed.  Two-row
# nu = (n-b, b) pairs with two-row lam = (mn-r, r), checked against
# cayley_sylvester.  Hook nu = (n-b, 1^b) pairs with column lam = (mn-r, 1^r),
# r <= 5, inside the stable range m >= r-b+1, n >= r+1, where the value is
# [r = b].
TWO_ROW_SLOTS = {False: [((8, 2), 4), ((6, 3), 4), ((12, 1), 3)],
                 True: [((3, 1), 3), ((3, 2), 2)]}
TWO_ROW_LAMBDAS = {False: 8, True: 4}
HOOK_SLOTS = {False: [((7, 1, 1, 1), 4)], True: [((3, 1, 1), 3)]}
HOOK_LAMBDAS = {False: 5, True: 3}
HOOK_MAX_R = 5


def _plethysm_item(nu, m, lam, want_fn):
    def check(value):
        want = want_fn()
        return None if value == want else f"oracle gives {want}, brute force gives {value}"

    return Item(f"p({fmt(nu)},[{m}],{fmt(lam)})",
                lambda: coefficients.plethysm_coefficient(nu, (m,), lam), check)


def stratified(rng: random.Random, top: int, k: int) -> list:
    """k distinct values from 1..top, one from each of k equal strata, so
    every seed draws a similar spread of shapes."""
    bounds = [1 + (top * i) // k for i in range(k + 1)]
    return [rng.randrange(bounds[i], bounds[i + 1]) for i in range(k)]


def plethysm_brute(tiny: bool, rng: random.Random):
    items = []
    for nu, m in TWO_ROW_SLOTS[tiny]:
        n, b = sum(nu), nu[1]
        for r in stratified(rng, m * n // 2, TWO_ROW_LAMBDAS[tiny]):
            items.append(_plethysm_item(
                nu, m, (m * n - r, r),
                lambda b=b, m=m, n=n, r=r: coefficients.cayley_sylvester(b, m, n, r)))
    for nu, m in HOOK_SLOTS[tiny]:
        n, b = sum(nu), len(nu) - 1
        top = min(HOOK_MAX_R, n - 1, m + b - 1)
        for r in stratified(rng, top, HOOK_LAMBDAS[tiny]):
            items.append(_plethysm_item(nu, m, (m * n - r,) + (1,) * r,
                                        lambda b=b, r=r: int(r == b)))
    return items


# ---------------------------------------------------------------------------
# schur-weyl: the tensor layer, 0/1 action matrices and exact elimination.

# faithfulness_rank(4, 3) -> 187 is left out: one call takes ~23 s, which
# would allow a single repetition per run, and single repetitions spread too
# much on a shared machine.  rank(3, 3) runs the same elimination.  Cases
# that take only a few milliseconds are left out too: their times are mostly
# noise.
RANKS = {False: [(4, 2), (5, 2), (6, 2), (7, 2), (2, 3), (3, 3)],
         True: [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3)]}
# check_commute(m, n, r) must hold; with swap_roles it must fail.
COMMUTES = {False: [(3, 3, 2), (2, 3, 3), (3, 2, 3), (2, 2, 4), (2, 2, 5)],
            True: [(2, 2, 2), (2, 3, 2), (3, 2, 2)]}
NEGATIVE_CONTROLS = {False: COMMUTES[False],
                     True: [(2, 3, 2), (2, 2, 2), (2, 2, 3)]}


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by inclusion-exclusion."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def expected_rank(d: int, r: int) -> int:
    """Dimension of the partition algebra's image on (C^d)^(x r)."""
    return sum(stirling2(2 * r, k) for k in range(1, d + 1))


def _equals(want):
    return lambda value: None if value == want else f"expected {want!r}, got {value!r}"


def schur_weyl_items(tiny: bool):
    items = []
    for d, r in RANKS[tiny]:
        items.append(Item(f"rank({d},{r})",
                          lambda d=d, r=r: schur_weyl.faithfulness_rank(d, r),
                          _equals(expected_rank(d, r))))
    for m, n, r in COMMUTES[tiny]:
        items.append(Item(f"commute({m},{n},{r})",
                          lambda m=m, n=n, r=r: schur_weyl.check_commute(m, n, r),
                          _equals(True)))
    for m, n, r in NEGATIVE_CONTROLS[tiny]:
        items.append(Item(f"swap-roles({m},{n},{r})",
                          lambda m=m, n=n, r=r: schur_weyl.check_commute(
                              m, n, r, swap_roles=True),
                          _equals(False)))
    return items


# ---------------------------------------------------------------------------
# cli-cold: one fresh `python -m plethyra.cli -f json ...` process per item.
#
# ``run_cli`` returns {"code", "stdout", "stderr", "wall_s"}.  Every
# item must exit with its expected code and print no traceback.  Value items
# exit 0 and match the value recorded at the seed; error items exit 1 with
# exactly one `error:` line.  A known-defect item is a probe for a defect
# the program has at the seed: it still fails and counts in `failed`, but it
# does not make the run incorrect.

EIGHT_LEFT = "{1,2,4,2',5'}|{3}|{5,6,7,8'}|{8,3',4',6',7'}|{1'}"
EIGHT_RIGHT = "{1}|{2,1',2'}|{3,4'}|{4,3'}|{5,5',6'}|{6}|{7,8,7',8'}"

# label -> (full argv, tiny argv)
CLI_VALUE_ITEMS = {
    "rc": (["rc", "--alpha", "[]", "--beta", "[2,1]", "--kappa", "[6,3,1]"],
           ["rc", "--alpha", "[]", "--beta", "[2,1]", "--kappa", "[3,2,1]"]),
    "stable-formula": (["stable", "--beta", "[2,1]", "--m", "5", "--n", "8", "--kappa", "[3,2,1]"],
                       ["stable", "--beta", "[1]", "--m", "3", "--n", "4", "--kappa", "[2,1]"]),
    "stable-brute": (["stable", "--beta", "[2]", "--m", "2", "--n", "5", "--kappa", "[3,1]"],
                     ["stable", "--beta", "[1]", "--m", "1", "--n", "3", "--kappa", "[1,1]"]),
    "plethysm-coefficient": (["plethysm", "--nu", "[8,2]", "--mu", "[4]", "--lam", "[32,8]"],
                             ["plethysm", "--nu", "[3,1]", "--mu", "[3]", "--lam", "[9,3]"]),
    "plethysm-expansion": (["plethysm", "--nu", "[4]", "--mu", "[5]"],
                           ["plethysm", "--nu", "[2]", "--mu", "[3]"]),
    "lr": (["lr", "--lam", "[5,4,3,2,1]", "--mu", "[4,2,1]", "--nu", "[4,3,1]"],
           ["lr", "--lam", "[3,2,1]", "--mu", "[2,1]", "--nu", "[2,1]"]),
    "dq-check": (["dq-check", "--r", "7", "--beta", "[2,1]"],
                 ["dq-check", "--r", "5", "--beta", "[2,1]"]),
    "diagram-compose": (["diagram", "--compose", EIGHT_LEFT, EIGHT_RIGHT],
                        ["diagram", "--compose", "{1,1'}|{2,2'}", "{1}|{1'}|{2,2'}"]),
    "schur-weyl-commute": (["schur-weyl", "--commute", "2", "2", "3"],
                           ["schur-weyl", "--commute", "2", "2", "2"]),
}
CLI_VERIFY = {False: "acceptance", True: "examples"}
CLI_ERROR_ITEMS = {
    "error-rc-small-kappa": ["rc", "--alpha", "[1]", "--beta", "[2,1]", "--kappa", "[2]"],
    "error-degree-ceiling": ["plethysm", "--nu", "[13,2]", "--mu", "[5]", "--lam", "[70,5]"],
    "error-entry-budget": ["schur-weyl", "--commute", "9", "9", "9"],
    "error-bad-partition": ["lr", "--lam", "[3,x]", "--mu", "[2]", "--nu", "[1]"],
    "error-bad-padding": ["stable", "--beta", "[3]", "--m", "2", "--n", "2", "--kappa", "[1]"],
    "error-gf-negative-b": ["gf", "--b", "-1", "--n", "5"],
}
KNOWN_DEFECTS = {"error-gf-negative-b"}  # raises IndexError at the seed


def cli_argv(label: str, tiny: bool) -> list:
    if label in CLI_VALUE_ITEMS:
        return CLI_VALUE_ITEMS[label][tiny]
    if label == "verify":
        return ["verify", "--suite", CLI_VERIFY[tiny]]
    return CLI_ERROR_ITEMS[label]


def _process_fault(out, code) -> "str | None":
    if "Traceback" in out["stderr"]:
        last = out["stderr"].strip().splitlines()[-1]
        return f"traceback: {last}"
    if out["code"] != code:
        return f"exit code {out['code']}, expected {code}"
    return None


def cli_report(out) -> dict:
    """The JSON report a value item printed."""
    return json.loads(out["stdout"].strip().splitlines()[-1])


def _expansion_oracle(argv, value) -> "str | None":
    """s_(n) o s_(m): total dimension and two-row coefficients."""
    n, m = int(argv[2].strip("[]")), int(argv[4].strip("[]"))
    dims = sum(entry["coefficient"] * partitions.std_tableaux_count(tuple(entry["partition"]))
               for entry in value)
    want = math.factorial(n * m) // (math.factorial(m) ** n * math.factorial(n))
    if dims != want:
        return f"expansion dimension {dims} != (nm)!/(m!^n n!) = {want}"
    coeff = {tuple(e["partition"]): e["coefficient"] for e in value}
    for r in range(n * m // 2 + 1):
        lam = (n * m - r, r) if r else (n * m,)
        want = coefficients.cayley_sylvester(0, m, n, r)
        if coeff.get(lam, 0) != want:
            return f"coefficient of {fmt(lam)} is {coeff.get(lam, 0)}, cayley_sylvester {want}"
    return None


def _value_check(label, argv, table):
    def check(out):
        msg = _process_fault(out, 0)
        if msg:
            return msg
        report = cli_report(out)
        msg = recorded(table, label, report["value"])
        if msg:
            return msg
        if label == "stable-formula" and (report["route"], report["bounds_met"]) != ("stable_formula", True):
            return f"route {report['route']} with bounds_met {report['bounds_met']}"
        if label == "stable-brute" and (report["route"], report["bounds_met"]) != ("brute_force", False):
            return f"route {report['route']} with bounds_met {report['bounds_met']}"
        if label == "plethysm-coefficient":
            nu = tuple(int(x) for x in argv[2].strip("[]").split(","))
            m = int(argv[4].strip("[]"))
            r = int(argv[6].strip("[]").split(",")[1])
            want = coefficients.cayley_sylvester(nu[1], m, sum(nu), r)
            if report["value"] != want:
                return f"cayley_sylvester gives {want}"
        if label == "plethysm-expansion":
            return _expansion_oracle(argv, report["value"])
        if label == "dq-check" and report["match"] is not True:
            return "dq-check sides differ"
        return None

    return check


def _verify_check(suite):
    def check(out):
        msg = _process_fault(out, 0)
        if msg:
            return msg
        lines = out["stdout"].strip().splitlines()
        want = len(verify.SUITES[suite])
        passed = [line for line in lines if line.startswith("PASS ")]
        if len(passed) != want or len(lines) != want:
            return f"{len(passed)} of {want} checks passed"
        return None

    return check


def _error_check(out) -> "str | None":
    msg = _process_fault(out, 1)
    if msg:
        return msg
    lines = out["stderr"].strip().splitlines()
    if out["stdout"].strip() or len(lines) != 1 or not lines[0].startswith("error: "):
        return f"expected one 'error:' line, got stdout={out['stdout']!r} stderr={out['stderr']!r}"
    return None


def run_cli(argv, traced: bool) -> dict:
    """Run one CLI item in a fresh interpreter: plain, or traced by cli_item.py."""
    if traced:
        cmd = [sys.executable, str(HERE / "cli_item.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "plethyra.cli", "-f", "json", *argv]
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent,
                          timeout=CLI_TIMEOUT_S)
    wall = perf_counter() - start
    if traced:
        out = json.loads(proc.stdout)
        out["wall_s"] = wall
        return out
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "wall_s": wall}


def cli_labels() -> list:
    return list(CLI_VALUE_ITEMS) + ["verify"] + list(CLI_ERROR_ITEMS)


def cli_cold(tiny: bool, table: dict, runner):
    items = []
    for label in cli_labels():
        argv = cli_argv(label, tiny)
        if label in CLI_VALUE_ITEMS:
            check = _value_check(label, argv, table["tiny" if tiny else "full"])
        elif label == "verify":
            check = _verify_check(CLI_VERIFY[tiny])
        else:
            check = _error_check
        items.append(Item(label, lambda argv=argv: runner(argv), check,
                          known_defect=label in KNOWN_DEFECTS))
    return items
