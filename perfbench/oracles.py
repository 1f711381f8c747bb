"""Slow reference computations that share no code with the fast paths.

These produce the golden values the benchmark checks against:

* ``magnus_coefficient``: one coefficient of the truncated Magnus
  expansion of a word, by a dynamic programme over the word's letters.
  It never builds a series.
* ``delta``: the Milnor indeterminacy as a GCD over a table of mu values,
  with the sub-multi-indices enumerated here.
* ``orbit_evidence``: the orbit statistics that ``toroshrink`` reports for
  an Unknown verdict, recomputed one orbit at a time with Python ints, so
  no fixed-width wraparound can occur.
"""

from __future__ import annotations

from math import gcd

ORBIT_VALUE_CAP = 10**9


def magnus_coefficient(letters, index) -> int:
    """Coefficient of k_{index[0]}...k_{index[-1]} in the Magnus expansion.

    ``letters`` is a sequence of (generator, +1 | -1).  x maps to 1 + k and
    x^-1 to 1 - k + k^2 - ...; c[t] holds the coefficient of index[:t] in
    the product of the letters read so far.
    """
    s = len(index)
    c = [1] + [0] * s
    for gen, sign in letters:
        new = c[:]
        for t in range(1, s + 1):
            p = 1
            while p <= t and index[t - p] == gen:
                new[t] += c[t - p] * (1 if sign == 1 else (-1) ** p)
                if sign == 1:
                    break
                p += 1
        c = new
    return c[s]


def sub_multi_indices(index) -> set[tuple[int, ...]]:
    """Indices from deleting at least one entry and rotating the rest."""
    n = len(index)
    out = set()
    for mask in range(1, 2**n - 1):
        kept = tuple(index[i] for i in range(n) if mask >> i & 1)
        if len(kept) >= 2:
            out.update(kept[r:] + kept[:r] for r in range(len(kept)))
    return out


def delta(mu_table: dict, index) -> int:
    """GCD of |mu_J| over the sub-multi-indices J of ``index``."""
    g = 0
    for sub in sub_multi_indices(tuple(index)):
        g = gcd(g, abs(mu_table[sub]))
    return g


def _chain_step(v: int, n: int, m: int) -> int:
    return max(-((-2 * m * v) // n) - 1, 0)


def orbit_evidence(specs, k_max: int, m_max: int, p_max: int) -> dict:
    """Orbit statistics for the links ``specs`` (a list of (n, m), link 1
    first, already cut at the sequence's horizon).

    Orbit (k, m) starts at value k and applies links m, m+1, ... until it
    reaches 0, exceeds the cap (then it is stored as cap + 1), runs p_max
    steps, or runs out of links.  The horizon flag is set for start m when
    some orbit from m is still alive when the links run out.
    """
    cap = ORBIT_VALUE_CAP
    n_links = len(specs)
    resolved = 0
    unresolved: list[list[int]] = []
    horizon = False
    longest = 0
    for m in range(1, m_max + 1):
        first_missing = max(n_links - m + 1, 0)  # steps before the links run out
        limit = min(p_max, first_missing)
        longest_life = 0
        for k in range(1, k_max + 1):
            v = k
            steps = 0
            while steps < limit:
                n, mm = specs[m - 1 + steps]
                v = min(_chain_step(v, n, mm), cap + 1)
                steps += 1
                if v == 0 or v > cap:
                    break
            longest_life = max(longest_life, steps)
            if v == 0:
                resolved += 1
                longest = max(longest, steps)
            elif len(unresolved) < 8:
                unresolved.append([k, m, v])
        if first_missing < p_max and longest_life >= first_missing:
            horizon = True
    return {
        "orbits_vanishing": resolved,
        "orbits_unresolved": k_max * m_max - resolved,
        "unresolved_sample": unresolved,
        "longest_vanishing_orbit": longest,
        "horizon_exhausted": horizon,
    }
