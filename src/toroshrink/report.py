"""Reproduction suite: every headline number and verdict, as named checks.

Each check recomputes a published fact from scratch and returns
(ok, detail); the CLI `report` subcommand runs this registry.  Ordering
is fixed by check id.  A verdict check decides and then runs
`verify_certificate`, which runs every check the certificate states
(such as Example 5.6's pair composites); the report does not repeat them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .drf import chain_steps, compose, nm_drf
from .linkio import builtin, pd_fixture
from .milnor import mu, mubar
from .sequences import GapSequence, GeneratorSequence, PeriodicSequence, parse_poly
from .shrink import DOES_NOT_SHRINK, SHRINKS, ancel_starbird, decide, verify_certificate

__all__ = ["CHECKS", "run_checks", "CheckResult"]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    detail: str
    seconds: float


def _drf_check(pair, formula, detail):
    """D(k) of the one-link (n, 2m) chain `pair` is formula(k) for k <= 10^4."""
    def check():
        ks = range(1, 10_001)
        return chain_steps((pair,), ks) == [formula(k) for k in ks], detail
    return check


def _mubar_check(name, index):
    """mubar of the builtin link `name` at `index` is +-1 with Delta = 0."""
    def check():
        rec = mubar(builtin(name), index)
        return rec.delta == 0 and rec.mubar in (1, -1), str(rec)
    return check


def _verdict_check(make, outcome, criterion=None, note=""):
    """The verdict make() returns has `outcome`, comes from `criterion`
    when one is given, and carries a certificate that verifies; the
    detail is its summary, then `note`, which names a check that
    verifying the certificate runs."""
    def check():
        verdict = make()
        ok = verdict.outcome == outcome and criterion in (None, verdict.criterion)
        return ok and verify_certificate(verdict), verdict.summary() + note
    return check


def _check_fig4():
    value = nm_drf((3, 2))(8)
    return value == 10, f"D(8) = {value} for the (3,2) chain (expected 10)"


def _check_milnor_borromean():
    link = builtin("borromean")
    pairwise = [mu(link, (i, j)) for i in (1, 2, 3) for j in (1, 2, 3) if i < j]
    triple = mu(link, (1, 2, 3))
    ok = all(v == 0 for v in pairwise) and abs(triple) == 1
    return ok, f"pairwise lk {pairwise}, mu(1,2,3) = {triple}"


def _check_hopf_linking():
    pd = pd_fixture("hopf")
    ok = pd.linking_number(1, 2) == 1 == mu(pd, (1, 2)) == mu(pd, (2, 1))
    return ok, "lk = mu(1,2) = mu(2,1) = 1"


def _check_orbit_trace():
    orbit = compose([nm_drf((2, 1))] * 10, 10)
    return orbit == list(range(10, -1, -1)), f"orbit {orbit}"


CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("bing_drf", _drf_check((2, 2), lambda k: k - 1, "D(k) = k-1 for k <= 10^4")),
    ("whitehead_drf", _drf_check((1, 2), lambda k: 2 * k - 1, "D(k) = 2k-1 for k <= 10^4")),
    ("fig4", _check_fig4),
    ("milnor_bing", _mubar_check("bing", (0, 1, 2))),
    ("milnor_whitehead", _mubar_check("whitehead", (0, 0, 1, 1))),
    ("milnor_borromean", _check_milnor_borromean),
    ("hopf_linking", _check_hopf_linking),
    ("shrink_bing", _verdict_check(lambda: decide(PeriodicSequence(((2, 1),))), SHRINKS)),
    (
        "shrink_whitehead",
        _verdict_check(lambda: decide(PeriodicSequence(((1, 1),))), DOES_NOT_SHRINK),
    ),
    ("shrink_22", _verdict_check(lambda: decide(PeriodicSequence(((2, 2),))), DOES_NOT_SHRINK)),
    (
        "example_55",
        _verdict_check(
            lambda: decide(GeneratorSequence(n_poly=parse_poly("2*i"), m_poly=parse_poly("i+1"))),
            DOES_NOT_SHRINK,
            "sher_armentrout",
        ),
    ),
    (
        "example_56",
        _verdict_check(
            lambda: decide(
                GeneratorSequence(
                    even_n=parse_poly("2*s^2"),
                    even_m=parse_poly("1"),
                    odd_n=parse_poly("2"),
                    odd_m=parse_poly("(s+1)^2"),
                )
            ),
            SHRINKS,
            "telescoping_pairs",
            "; pair composite k-1 checked to s=50, k=1000",
        ),
    ),
    (
        "gaps_constant",
        _verdict_check(lambda: ancel_starbird(GapSequence.periodic([1])), DOES_NOT_SHRINK),
    ),
    ("gaps_doubling", _verdict_check(lambda: ancel_starbird(GapSequence.two_pow()), SHRINKS)),
    (
        "gaps_linear",
        _verdict_check(lambda: ancel_starbird(GapSequence.from_poly("i")), DOES_NOT_SHRINK),
    ),
    ("orbit_trace", _check_orbit_trace),
)


def run_checks(only: str | None = None) -> list[CheckResult]:
    known = [check_id for check_id, _ in CHECKS]
    if only is not None and only not in known:
        raise ValueError(f"unknown check id {only!r}; known: {sorted(known)}")
    results = []
    for check_id, check in CHECKS:
        if only is not None and check_id != only:
            continue
        start = time.perf_counter()
        ok, detail = check()
        results.append(CheckResult(check_id, ok, detail, time.perf_counter() - start))
    return results
