"""Plethysm coefficients, ramified branching coefficients, and the stable
closed forms, each with an independently computable route.

The branching coefficient rc(alpha^beta, kappa) is read from one symmetric
function per (alpha, beta, r = |kappa|): F = sum over p of G_p * H_{r-p},
where G_p sums the G^alpha_{beta,gamma} of degree p and H_q the h_eps with
singleton-free eps of size q.  All the G_p come from one walk over part
sizes and the H_q from the series h[h_2 + h_3 + ...], with no gamma or eps
listed, no generalized LR coefficient and no plethysm.  F is assembled from
class functions and converted to Schur form once.  It does not depend on
kappa, so it is built once and every kappa of r is read off it.
"""

from __future__ import annotations

import functools
import os
from typing import NamedTuple

from plethyra.partitions import (
    as_partition,
    marked_partitions,
    marked_partitions_distinct,
    pad,
    cayley_tableaux_count,
    hook_content_series,
    stable_two_row_gf,
)
from plethyra.symfunc import (
    SchurPoly,
    _branching_walk,
    _plethysm_expansion,
    powersum_to_schur,
    singleton_free_series,
    weighted_sum,
)

DEFAULT_MAX_DEGREE = 60
MAX_DEGREE_ENV = "PLETHYRA_MAX_DEGREE"


class DomainError(ValueError):
    """A precondition of one of the coefficient routines was violated."""


def _check_degree(degree, max_degree):
    """The brute-force ceiling on the degree of s_nu o s_mu, for both the
    single coefficient and the full expansion."""
    ceiling = max_degree
    if ceiling is None:
        ceiling = int(os.environ.get(MAX_DEGREE_ENV, DEFAULT_MAX_DEGREE))
    if degree > ceiling:
        raise DomainError(
            f"brute-force plethysm degree {degree} exceeds the ceiling "
            f"{ceiling} (raise --max-degree or {MAX_DEGREE_ENV})"
        )


def plethysm_coefficient(nu, mu, lam, max_degree=None) -> int:
    """Multiplicity of s_lam in s_nu o s_mu, from the plethysm's integer
    class function.

    The full Schur form is not built: the coefficient is the pairing of the
    class function with the one character row chi^lam over its support,
    divided by n! once.
    """
    nu, mu, lam = as_partition(nu), as_partition(mu), as_partition(lam)
    degree = sum(nu) * sum(mu)
    if sum(lam) != degree:
        return 0
    _check_degree(degree, max_degree)
    return _plethysm_expansion(nu, mu).schur_coefficient(lam)


def expand_plethysm(nu, mu, max_degree=None) -> SchurPoly:
    """The Schur expansion of s_nu o s_mu, under the same degree ceiling."""
    nu, mu = as_partition(nu), as_partition(mu)
    _check_degree(sum(nu) * sum(mu), max_degree)
    return powersum_to_schur(_plethysm_expansion(nu, mu))


# Bounded so a long-lived process does not grow without limit; 64
# (alpha, beta, r) triples hold several kappa sweeps at once.
BRANCHING_CACHE_SIZE = 64


@functools.lru_cache(maxsize=BRANCHING_CACHE_SIZE)
def _branching_function(alpha, beta, r) -> SchurPoly:
    """F = sum over p of G_p * H_{r - p}, whose coefficient of s_kappa is
    rc(alpha^beta, kappa) for every kappa of size r.

    G_p sums G^alpha_{beta,gamma} over every gamma of degree p, all from
    one walk with free counts; H_q sums h_eps over the singleton-free eps
    of size q.  H_1 = 0, so the walk skips degree r - 1.  F is summed as a
    class function and converted to Schur form once.
    """
    a, b = sum(alpha), sum(beta)
    if r < a * b:
        raise DomainError(f"rc requires |kappa| >= |alpha|*|beta|: {r} < {a * b}")
    h = singleton_free_series(r - a * b)
    walk = _branching_walk(alpha, beta, degrees={p for p in range(r + 1) if p != r - 1})
    return powersum_to_schur(weighted_sum((1, g * h[r - p]) for p, g in walk.items()))


def ramified_branching(alpha, beta, kappa) -> int:
    """The ramified branching coefficient rc(alpha^beta, kappa): the
    coefficient of s_kappa in the branching function of (alpha, beta,
    |kappa|), which is built once and serves every kappa of that size.
    """
    alpha, beta, kappa = as_partition(alpha), as_partition(beta), as_partition(kappa)
    return _branching_function(alpha, beta, sum(kappa)).coefficient(kappa)


class StableQuery(NamedTuple):
    beta: tuple
    m: int
    n: int
    kappa: tuple


class CoefficientReport(NamedTuple):
    value: int
    route: str  # stable_formula | brute_force
    bounds_met: bool


def bounds_met(beta, m, n, r) -> bool:
    """Stability range: m >= r - |beta| + [beta nonempty], n >= r + beta_1."""
    beta = tuple(beta)
    return m >= r - sum(beta) + (1 if beta else 0) and n >= r + (beta[0] if beta else 0)


def stable_plethysm(query: StableQuery, max_degree=None) -> CoefficientReport:
    """p(beta[n], (m), kappa[mn]): stable formula inside the bounds, exact
    brute force below them."""
    beta = as_partition(query.beta)
    kappa = as_partition(query.kappa)
    m, n = query.m, query.n
    if m < 0 or n < 0:
        raise DomainError(f"stable requires m >= 0 and n >= 0, got m = {m}, n = {n}")
    r = sum(kappa)
    try:
        beta_n = pad(beta, n)
        kappa_mn = pad(kappa, m * n)
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    met = bounds_met(beta, m, n, r)
    if met:
        return CoefficientReport(ramified_branching((), beta, kappa), "stable_formula", True)
    value = plethysm_coefficient(beta_n, (m,), kappa_mn, max_degree=max_degree)
    return CoefficientReport(value, "brute_force", False)


def two_row_stable(b: int, r: int) -> int:
    """Stable value of p((n-b,b), (m), (mn-r,r)): the b-marked partition count."""
    return len(marked_partitions(b, r))


def hook_stable(b: int, r: int, column: bool) -> int:
    """Stable hook values: distinct-part marked partitions for (mn-r, r),
    the indicator [r = b] for the column shape (mn-r, 1^r)."""
    if column:
        return 1 if r == b else 0
    return len(marked_partitions_distinct(b, r))


def one_row_kappa_stable(beta, r: int) -> int:
    """Stable value of rc(empty^beta, (r)): semistandard beta-tableaux with
    entries >= 1 summing to p, times singleton-free partitions of r - p,
    summed over p, as one convolution of their two series."""
    beta = as_partition(beta)
    top = r - sum(beta)
    if top < 0:
        return 0
    tableaux = hook_content_series(beta, top)
    free = stable_two_row_gf(0, top)
    return sum(t * f for t, f in zip(tableaux, reversed(free)))


def _remove_one_box(beta):
    out = []
    for i in range(len(beta)):
        if i == len(beta) - 1 or beta[i] > beta[i + 1]:
            parts = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            out.append(tuple(x for x in parts if x))
    return out


def _add_two_boxes_no_column_repeat(pi):
    """Partitions reachable from pi by adding two boxes, no two per column."""
    out = set()
    rows = len(pi) + 2
    padded = pi + (0,) * (rows - len(pi))
    for i in range(rows):
        for j in range(i, rows):
            parts = list(padded)
            parts[i] += 1
            parts[j] += 1
            cand = tuple(x for x in parts if x)
            if any(cand[k] < cand[k + 1] for k in range(len(cand) - 1)):
                continue
            # horizontal strip: row k of the result fits over row k-1 of pi
            if all(cand[k] <= padded[k - 1] for k in range(1, len(cand))):
                out.add(cand)
    return out


def small_r_stable(beta, kappa) -> int:
    """Stable p(beta[n], (m), kappa[mn]) for |kappa| <= |beta| + 1."""
    beta, kappa = as_partition(beta), as_partition(kappa)
    b, r = sum(beta), sum(kappa)
    if r > b + 1:
        raise DomainError(
            f"small_r_stable requires |kappa| <= |beta| + 1; use "
            f"ramified_branching for |kappa| = {r} > {b + 1}"
        )
    if r < b:
        return 0
    if r == b:
        return 1 if kappa == beta else 0
    count = 0
    for pi in _remove_one_box(beta):
        if kappa in _add_two_boxes_no_column_repeat(pi):
            count += 1
    return count


def cayley_sylvester(b: int, m: int, n: int, r: int) -> int:
    """Two-row plethysm coefficient p((n-b,b), (m), (mn-r,r)) as a difference
    of bounded-entry semistandard tableau counts."""
    if n - b < b:
        raise DomainError(f"cayley_sylvester requires n - b >= b: {n - b} < {b}")
    if m * n - r < r:
        raise DomainError(f"cayley_sylvester requires mn - r >= r: {m * n - r} < {r}")
    return cayley_tableaux_count(m, n, b, r) - cayley_tableaux_count(m, n, b, r - 1)


class TightnessReport(NamedTuple):
    """Boundary plethysm values against the stable value minus one.

    Each populated slot is a pair (brute force value, stable value - 1);
    ``m_step`` is the boundary in m (one below the stable range), the two
    n-slots sit at n = r + b - 1 with m at the edge of and inside the
    stable range.
    """

    b: int
    r: int
    m_step: tuple | None
    n_step_at_bound: tuple | None
    n_step_above_bound: tuple | None

    @property
    def ok(self) -> bool:
        slots = (self.m_step, self.n_step_at_bound, self.n_step_above_bound)
        return all(s is None or s[0] == s[1] for s in slots)


def tightness_check(b: int, r: int, max_degree=None) -> TightnessReport:
    """Check that the stability bounds cannot be weakened at kappa = (r).

    Computes boundary plethysm coefficients by brute force and compares each
    with rc(empty^(b), (r)) - 1.
    """
    if r <= b:
        raise DomainError(f"tightness_check requires r > b, got r = {r}, b = {b}")
    stable = ramified_branching((), (b,) if b else (), (r,))
    expected = stable - 1

    def brute(nu, mu, lam):
        return plethysm_coefficient(nu, mu, lam, max_degree=max_degree)

    # m one below its bound, n at its bound
    if b > 0:
        n, m = r + b, r - b
        value = brute((r, b), (m,), (m * n - r, r))
    else:
        n, m = r, r - 1
        value = brute((r,), (m,), (m * n - r, r))
    m_step = (value, expected)

    # n one below its bound, m at and above its own bound
    n = r + b - 1
    m_at = r - b + (1 if b else 0)
    nu = (r - 1, b) if b else (r - 1,)
    n_step_at = (brute(nu, (m_at,), (m_at * n - r, r)), expected)
    n_step_above = (brute(nu, (m_at + 1,), ((m_at + 1) * n - r, r)), expected)
    return TightnessReport(b, r, m_step, n_step_at, n_step_above)
