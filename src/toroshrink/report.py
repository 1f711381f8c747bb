"""Reproduction suite: every headline number and verdict, as named checks.

Each check recomputes a published fact from scratch and reports pass or
fail; the CLI `report` subcommand and the acceptance tests both run this
registry.  Ordering is fixed by check id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .drf import chain_steps, compose, nm_drf
from .linkio import builtin, pd_fixture
from .milnor import mu, mubar
from .sequences import GapSequence, GeneratorSequence, PeriodicSequence, parse_poly
from .shrink import (
    DOES_NOT_SHRINK,
    SHRINKS,
    ancel_starbird,
    decide,
    verify_certificate,
)

__all__ = ["CHECKS", "run_checks", "CheckResult"]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    ok: bool
    detail: str
    seconds: float


def _check_bing_drf():
    ks = range(1, 10_001)
    ok = chain_steps(((2, 2),), ks) == [k - 1 for k in ks]
    return ok, "D(k) = k-1 for k <= 10^4"


def _check_whitehead_drf():
    ks = range(1, 10_001)
    ok = chain_steps(((1, 2),), ks) == [2 * k - 1 for k in ks]
    return ok, "D(k) = 2k-1 for k <= 10^4"


def _check_fig4():
    value = nm_drf((3, 2))(8)
    return value == 10, f"D(8) = {value} for the (3,2) chain (expected 10)"


def _check_milnor_bing():
    rec = mubar(builtin("bing"), (0, 1, 2))
    return rec.delta == 0 and rec.mubar in (1, -1), str(rec)


def _check_milnor_whitehead():
    rec = mubar(builtin("whitehead"), (0, 0, 1, 1))
    return rec.delta == 0 and rec.mubar in (1, -1), str(rec)


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


def _decide_check(seq, expected_outcome):
    verdict = decide(seq)
    ok = verdict.outcome == expected_outcome and verify_certificate(verdict)
    return ok, verdict


def _check_shrink_bing():
    ok, v = _decide_check(PeriodicSequence(((2, 1),)), SHRINKS)
    return ok, v.summary()


def _check_shrink_whitehead():
    ok, v = _decide_check(PeriodicSequence(((1, 1),)), DOES_NOT_SHRINK)
    return ok, v.summary()


def _check_shrink_22():
    ok, v = _decide_check(PeriodicSequence(((2, 2),)), DOES_NOT_SHRINK)
    return ok, v.summary()


def _check_example_55():
    seq = GeneratorSequence(n_poly=parse_poly("2*i"), m_poly=parse_poly("i+1"))
    verdict = decide(seq)
    ok = (
        verdict.outcome == DOES_NOT_SHRINK
        and verdict.criterion == "sher_armentrout"
        and verify_certificate(verdict)
    )
    return ok, verdict.summary()


def _example_56_sequence():
    return GeneratorSequence(
        even_n=parse_poly("2*s^2"),
        even_m=parse_poly("1"),
        odd_n=parse_poly("2"),
        odd_m=parse_poly("(s+1)^2"),
    )


def _check_example_56():
    seq = _example_56_sequence()
    verdict = decide(seq)
    if verdict.outcome != SHRINKS or not verify_certificate(verdict):
        return False, verdict.summary()
    # the aligned two-step composite contracts by exactly one for s >= 1
    pairs = seq.link_pairs(3, 100)  # links 2s+1, 2s+2 for s = 1..50
    ks = range(1, 1001)
    for s in range(1, 51):
        values = chain_steps(pairs[2 * s - 2 : 2 * s], ks)
        if values != list(range(1000)):
            k = next(k for k, v in zip(ks, values) if v != k - 1)
            return False, f"pair composite fails at s={s}, k={k}"
    return True, verdict.summary() + "; pair composite k-1 checked to s=50, k=1000"


def _check_gaps_constant():
    v = ancel_starbird(GapSequence.periodic([1]))
    ok = v.outcome == DOES_NOT_SHRINK and verify_certificate(v)
    return ok, v.summary()


def _check_gaps_doubling():
    v = ancel_starbird(GapSequence.two_pow())
    ok = v.outcome == SHRINKS and verify_certificate(v)
    return ok, v.summary()


def _check_gaps_linear():
    v = ancel_starbird(GapSequence.from_poly("i"))
    ok = v.outcome == DOES_NOT_SHRINK and verify_certificate(v)
    return ok, v.summary()


def _check_orbit_trace():
    orbit = compose([nm_drf((2, 1))] * 10, 10)
    return orbit == list(range(10, -1, -1)), f"orbit {orbit}"


CHECKS: tuple[tuple[str, str, Callable], ...] = (
    ("bing_drf", "chain (2,1): D(k) = k-1", _check_bing_drf),
    ("whitehead_drf", "chain (1,1): D(k) = 2k-1", _check_whitehead_drf),
    ("fig4", "chain (3,2): D(8) = 10", _check_fig4),
    ("milnor_bing", "mubar(0,1,2) = +-1 for the axis borromean", _check_milnor_bing),
    ("milnor_whitehead", "mubar(0,0,1,1) = +-1 for the whitehead link", _check_milnor_whitehead),
    ("milnor_borromean", "borromean: pairwise lk 0, mu(1,2,3) = +-1", _check_milnor_borromean),
    ("hopf_linking", "hopf: mu equals the signed crossing count", _check_hopf_linking),
    ("shrink_bing", "pure (2,1) sequence shrinks", _check_shrink_bing),
    ("shrink_whitehead", "pure (1,1) sequence does not shrink", _check_shrink_whitehead),
    ("shrink_22", "pure (2,2) sequence does not shrink", _check_shrink_22),
    ("example_55", "chains (2i, i+1) do not shrink", _check_example_55),
    ("example_56", "alternating (2s^2,1)/(2,(s+1)^2) shrinks", _check_example_56),
    ("gaps_constant", "mixed sequence with unit gaps does not shrink", _check_gaps_constant),
    ("gaps_doubling", "mixed sequence with gaps 2^i shrinks", _check_gaps_doubling),
    ("gaps_linear", "mixed sequence with gaps i does not shrink", _check_gaps_linear),
    ("orbit_trace", "pure (2,1) orbit from 10 counts down to 0", _check_orbit_trace),
)


def run_checks(only: str | None = None) -> list[CheckResult]:
    known = {check_id for check_id, _, _ in CHECKS}
    if only is not None and only not in known:
        raise ValueError(f"unknown check id {only!r}; known: {sorted(known)}")
    results = []
    for check_id, _, fn in CHECKS:
        if only is not None and check_id != only:
            continue
        start = time.perf_counter()
        ok, detail = fn()
        results.append(
            CheckResult(check_id, ok, detail, time.perf_counter() - start)
        )
    return results
