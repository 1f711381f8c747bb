"""The three benchmark workloads: seeded inputs, items, and golden checks.

Every workload draws its inputs from a fixed pool made by a generator
with a fixed pool seed; the workload seed picks and orders pool members
and the chosen inputs are written to files, which is all the program
sees.  Golden outputs exist for every pool member (``golden/``, made by
``make_golden.py``), so every seed is checked.

Why these workloads:

* ``milnor_diagram``: nearly all time is Magnus expansion; it never
  enters ``shrink``, ``sequences`` or ``drf``.
* ``shrink_unknown``: the only workload in which orbit evidence runs; it
  stresses ``shrink`` and ``sequences`` and never enters ``milnor``.
* ``shrink_decided``: thousands of sub-millisecond decisions that exercise
  every criterion, the periodic composition check and the verifier, and
  never run orbit evidence.

Importing this module does not import ``toroshrink``; the functions that
run items receive the package as an argument.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

WORKLOADS = ("milnor_diagram", "shrink_unknown", "shrink_decided")
HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")
POOL_SEED = 20130701
HORIZONS = (64, 16, 10_000)  # the package defaults k_max, m_max, p_max

# The Borromean rings with component 3 relabelled as the axis 0, and the
# Whitehead link, in the PD text format (equal to linkio.bing_axis_pd()
# and linkio.pd_fixture("whitehead")).
AXIS_PD = (
    "X[5,1,6,2] X[7,4,8,3] X[4,10,1,9] X[2,11,3,12] X[10,7,11,6] X[12,8,9,5]\n"
    "% component 0: 9,10,11,12\n"
    "% component 1: 1,2,3,4\n"
    "% component 2: 5,6,7,8\n"
)
WHITEHEAD_PD = (
    "X[10,1,5,2] X[4,8,1,7] X[8,6,9,5] X[2,9,3,10] X[6,4,7,3]\n"
    "% component 0: 1,2,3,4\n"
    "% component 1: 5,6,7,8,9,10\n"
)
DIAGRAMS = {"axis": (AXIS_PD, (0, 1, 2), 5), "whitehead": (WHITEHEAD_PD, (0, 1), 6)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def milnor_key(diagram: str, index) -> str:
    return f"{diagram} {','.join(map(str, index))}"


def load_golden(workload: str) -> dict:
    """{"items": item key -> expected output, "cli": cli key -> expected run}."""
    with open(os.path.join(GOLDEN_DIR, workload + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- polynomials as coefficient lists, lowest degree first ------------------------


def poly_eval(coeffs, x: int) -> int:
    return sum(c * x**j for j, c in enumerate(coeffs))


def poly_text(coeffs, var: str) -> str:
    parts = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if not c:
            continue
        power = "" if j == 0 else var if j == 1 else f"{var}^{j}"
        if not power:
            body = str(abs(c))
        else:
            body = power if abs(c) == 1 else f"{abs(c)}*{power}"
        if parts:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for j, c in enumerate(a):
        out[j] += c
    for j, c in enumerate(b):
        out[j] += c
    return out


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_scale(a, k: int):
    return [k * c for c in a]


def poly_shift(a, d: int):
    """Coefficients of p(x + d)."""
    out = [0]
    for c in reversed(a):
        out = poly_add(poly_mul(out, [d, 1]), [c])
    return out


def rand_poly(rng: random.Random, degree: int, hi: int = 4, const_min: int = 0):
    return [rng.randint(const_min, hi) for _ in range(degree)] + [rng.randint(1, hi)]


# -- sequence configs -------------------------------------------------------------


@dataclass(frozen=True)
class Config:
    """One sequence config and the links it denotes, for the orbit oracle."""

    family: str
    text: str
    link: Callable[[int], tuple[int, int]]
    length: Optional[int] = None  # explicit sequences: number of links

    @property
    def key(self) -> str:
        return digest(self.text)

    def oracle_links(self, upto: int) -> list[tuple[int, int]]:
        end = upto if self.length is None else min(upto, self.length)
        return [self.link(i) for i in range(1, end + 1)]


def _one_case(family, n, m) -> Config:
    text = canonical({"variant": "generator", "n": poly_text(n, "i"), "m": poly_text(m, "i")})
    return Config(family, text, lambda i: (poly_eval(n, i), poly_eval(m, i)))


def _two_case(family, even_n, even_m, odd_n, odd_m) -> Config:
    text = canonical(
        {
            "variant": "generator",
            "even": {"n": poly_text(even_n, "s"), "m": poly_text(even_m, "s")},
            "odd": {"n": poly_text(odd_n, "s"), "m": poly_text(odd_m, "s")},
        }
    )

    def link(i):
        if i % 2 == 0:
            return poly_eval(even_n, i // 2), poly_eval(even_m, i // 2)
        return poly_eval(odd_n, (i - 1) // 2), poly_eval(odd_m, (i - 1) // 2)

    return Config(family, text, link)


def _entry(rng: random.Random, n: int, m: int):
    """One link entry, in one of the spellings the config format accepts."""
    alias = {(2, 1): "bing", (1, 1): "whitehead"}.get((n, m))
    form = rng.randrange(3)
    if form == 0 and alias:
        return alias
    if form == 1:
        return f"nm({n},{m})"
    return {"nm": [n, m]}


def _listed(family, variant, rng, **parts) -> Config:
    links = [nm for part in parts.values() for nm in part]
    body = {"variant": variant}
    for name, part in parts.items():
        body[name] = [_entry(rng, n, m) for n, m in part]
    if variant == "explicit":
        return Config(family, canonical(body), lambda i: links[i - 1], len(links))
    prefix = parts.get("prefix", [])
    period = parts.get("links") or parts["period"]

    def link(i):
        return prefix[i - 1] if i <= len(prefix) else period[(i - len(prefix) - 1) % len(period)]

    return Config(family, canonical(body), link)


# shrink_unknown pool ----------------------------------------------------------------

EXPLICIT_LENGTH = 1500
# Every one-case generator runs in every pass, so the pass median does not
# depend on which ones a seed would draw; the seed orders them.
UNKNOWN_PASS = {"near_miss": 2, "tau_to_one_d1": 8, "tau_to_one_d2": 8,
                "tau_to_one_d3": 8, "tau_to_one_d4": 8, "explicit_long": 8}


def unknown_pool() -> dict[str, list[Config]]:
    """Configs that no criterion decides, so decide() runs orbit evidence."""
    rng = random.Random(POOL_SEED)
    pool: dict[str, list[Config]] = {name: [] for name in UNKNOWN_PASS}
    # Example 5.6 is even (2 s^2, 1), odd (2, (s+1)^2) and telescopes; odd
    # m = (s+1)^2 + c breaks the identity and no other criterion applies.
    # For c = 2..5 some orbit from every start but one stays alive through
    # the horizon, so each costs the same 150001 evidence steps; other c
    # (and other degrees) let the orbits die at different times.
    for c in (2, 3, 4, 5):
        odd_m = poly_add(poly_shift([0, 0, 1], 1), [c])
        pool["near_miss"].append(_two_case("near_miss", [0, 0, 2], [1], [2], odd_m))
    # n = 2m + r with deg r < deg m: tau > 1 tends to 1, widths unbounded.
    for d in (1, 2, 3, 4):
        for _ in range(UNKNOWN_PASS[f"tau_to_one_d{d}"]):
            m = rand_poly(rng, d, const_min=1)
            r = rand_poly(rng, rng.randrange(d), hi=3, const_min=1)
            n = poly_add(poly_scale(m, 2), r)
            pool[f"tau_to_one_d{d}"].append(_one_case(f"tau_to_one_d{d}", n, m))
    # Links n = 2m - d with 64 d <= 2m - d keep every orbit from k <= 64 at
    # its value; n = 2m steps it down by one.  The data end before the horizon.
    for _ in range(18):
        links = []
        for _ in range(EXPLICIT_LENGTH):
            m = rng.randint(140, 5000)
            d = 0 if rng.random() < 0.01 else rng.randint(1, 4)
            links.append((2 * m - d, m))
        pool["explicit_long"].append(_listed("explicit_long", "explicit", rng, links=links))
    return pool


# shrink_decided pool ---------------------------------------------------------------

DECIDED_POOL = {"periodic": 1200, "eventually_periodic": 480, "example_55": 160,
                "sher_armentrout": 240, "bounded_converges": 240,
                "bounded_diverges": 80, "telescoping": 200, "convergent": 200}
DECIDED_PASS_SHARE = (2, 3)  # each pass runs two thirds of every family


def _small_links(rng, count):
    return [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(count)]


def decided_pool() -> dict[str, list[Config]]:
    """Configs that some criterion decides; evidence is then skipped."""
    rng = random.Random(POOL_SEED + 1)
    pool: dict[str, list[Config]] = {name: [] for name in DECIDED_POOL}
    for _ in range(DECIDED_POOL["periodic"]):
        pool["periodic"].append(
            _listed("periodic", "periodic", rng, links=_small_links(rng, rng.randint(1, 4))))
    for _ in range(DECIDED_POOL["eventually_periodic"]):
        pool["eventually_periodic"].append(
            _listed("eventually_periodic", "eventually_periodic", rng,
                    prefix=_small_links(rng, rng.randint(1, 3)),
                    period=_small_links(rng, rng.randint(1, 3))))
    for _ in range(DECIDED_POOL["example_55"]):
        # Example 5.5 is (2i, i+1); scaled forms (2a i, a i + c)
        a, c = rng.randint(1, 12), rng.randint(1, 20)
        pool["example_55"].append(_one_case("example_55", [0, 2 * a], [c, a]))
    for _ in range(DECIDED_POOL["sher_armentrout"]):
        m = rand_poly(rng, rng.randint(1, 4), const_min=1)
        r = rng.randint(1, 2 * poly_eval(m, 1) - 1)
        pool["sher_armentrout"].append(
            _one_case("sher_armentrout", poly_add(poly_scale(m, 2), [-r]), m))
    for _ in range(DECIDED_POOL["bounded_converges"]):
        d = rng.randint(1, 4)
        m = [rng.randint(0, 2)] + [0] * (d - 1) + [rng.randint(1, 3)]
        width = rng.randint(2 * poly_eval(m, 1), 2 * poly_eval(m, 1) + 5)
        pool["bounded_converges"].append(_one_case("bounded_converges", [width], m))
    for _ in range(DECIDED_POOL["bounded_diverges"]):
        m = rng.randint(1, 6)
        pool["bounded_diverges"].append(
            _one_case("bounded_diverges", [rng.randint(2 * m, 2 * m + 6)], [m]))
    for _ in range(DECIDED_POOL["telescoping"]):
        # odd (2, p(s)), even (2 q(s) p(s-1), q(s)): the aligned pair composite
        # is k -> k - 1 (k - 2 when p = 1), the Example 5.6 mechanism.
        p = rand_poly(rng, rng.randint(1, 3), hi=3, const_min=1)
        q = rand_poly(rng, rng.randint(0, 1), hi=2, const_min=1)
        even_n = poly_scale(poly_mul(q, poly_shift(p, -1)), 2)
        pool["telescoping"].append(_two_case("telescoping", even_n, q, [2], p))
    for _ in range(DECIDED_POOL["convergent"]):
        # (P(i) + c, P(i)): tau(1) >= 1 defeats sher_armentrout, tau -> 1/2
        d = rng.randint(1, 4)
        m = rand_poly(rng, d, hi=3, const_min=1)
        c = rng.randint(poly_eval(m, 1), poly_eval(m, 4))
        pool["convergent"].append(_one_case("convergent", poly_add(m, [c]), m))
    return pool


# -- per-seed inputs ----------------------------------------------------------------


@dataclass
class Inputs:
    workload: str
    items: list            # what one pass runs, in order
    cli_argv: list[str]    # toroshrink arguments of the workload's CLI command
    cli_key: str           # golden entry for the CLI output
    files: list[str]


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _jsonl(configs) -> str:
    return "".join(c.text + "\n" for c in configs)


def generate(workload: str, seed: int, workdir: str) -> Inputs:
    """Write the seed's input files and return what one pass runs."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(seed)
    if workload == "milnor_diagram":
        items = []
        files = []
        for name, (text, labels, max_len) in DIAGRAMS.items():
            files.append(_write(workdir, f"{name}.pd", text))
            for r in range(2, max_len + 1):
                items.extend((name, idx) for idx in itertools.product(labels, repeat=r))
        rng.shuffle(items)
        files.append(_write(workdir, "indices.json", canonical(items)))
        argv = ["milnor", "--pd", files[0], "--all-upto-length", "5",
                "--format", "json", "--deterministic"]
        return Inputs(workload, items, argv, "milnor", files)
    if workload == "shrink_unknown":
        pool = unknown_pool()
        chosen = [c for fam, count in UNKNOWN_PASS.items() for c in rng.sample(pool[fam], count)]
        rng.shuffle(chosen)
        cli_config = rng.choice(pool["near_miss"])
        files = [_write(workdir, "items.jsonl", _jsonl(chosen)),
                 _write(workdir, "cli.json", cli_config.text)]
        argv = ["shrink", "decide", "--config", files[1], "--format", "json", "--deterministic"]
        return Inputs(workload, chosen, argv, cli_config.key, files)
    if workload == "shrink_decided":
        pool = decided_pool()
        num, den = DECIDED_PASS_SHARE
        chosen = [c for fam, members in pool.items()
                  for c in rng.sample(members, len(members) * num // den)]
        rng.shuffle(chosen)
        files = [_write(workdir, "items.jsonl", _jsonl(chosen))]
        argv = ["report", "--format", "json", "--deterministic"]
        return Inputs(workload, chosen, argv, "report", files)
    raise ValueError(f"unknown workload {workload!r}")


def read_items(inputs: Inputs) -> list:
    """The pass items as the program receives them: read back from the files."""
    if inputs.workload == "milnor_diagram":
        with open(inputs.files[-1], encoding="utf-8") as fh:
            return [(name, tuple(idx)) for name, idx in json.load(fh)]
    with open(inputs.files[0], encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


# -- running items and checking them --------------------------------------------------


def verdict_digest(verdict, verified: bool) -> str:
    """Digest of the verdict fields that the deterministic CLI output shows."""
    return digest(canonical({
        "outcome": verdict.outcome,
        "criterion": verdict.criterion,
        "certificate": verdict.certificate,
        "corroborating": [list(pair) for pair in verdict.corroborating],
        "certificate_verified": verified,
    }))


class Runner:
    """Runs one workload's items against a loaded toroshrink package.

    ``run`` is the timed call; ``check`` compares its output with the golden
    entry and returns True when they agree.
    """

    def __init__(self, ts, inputs: Inputs, golden: dict):
        self.ts = ts
        self.inputs = inputs
        self.golden = golden["items"]
        self.cli = golden["cli"]
        self.items = read_items(inputs)
        if inputs.workload == "milnor_diagram":
            self.links = {}
            for path in inputs.files[:-1]:
                with open(path, encoding="utf-8") as fh:
                    self.links[os.path.basename(path)[:-3]] = ts.parse_pd(fh.read())
        elif inputs.workload == "shrink_unknown":
            self.seqs = [ts.parse_sequence_config(text) for text in self.items]

    def run(self, i: int):
        ts = self.ts
        workload = self.inputs.workload
        if workload == "milnor_diagram":
            name, index = self.items[i]
            return ts.mubar(self.links[name], index)
        if workload == "shrink_unknown":
            verdict = ts.decide(self.seqs[i])
            return verdict, ts.verify_certificate(verdict)
        verdict = ts.decide(ts.parse_sequence_config(self.items[i]))
        return verdict, ts.verify_certificate(verdict)

    def check(self, i: int, out) -> bool:
        workload = self.inputs.workload
        if workload == "milnor_diagram":
            name, index = self.items[i]
            mu, delta = self.golden[milnor_key(name, index)][:2]
            mubar = mu % delta if delta else mu
            return (out.mu, out.delta, out.mubar) == (mu, delta, mubar)
        verdict, verified = out
        expected = self.golden[digest(self.items[i])]
        if not verified or verdict_digest(verdict, verified) != expected["result"]:
            return False
        if workload == "shrink_unknown":
            return verdict.evidence == expected["evidence"]
        return not verdict.evidence

    def cli_golden(self) -> dict:
        """{"stdout": digest of the expected bytes, "exit": expected code}."""
        return self.cli[self.inputs.cli_key]

    def has_evidence(self, out) -> bool:
        return self.inputs.workload != "milnor_diagram" and "orbits_vanishing" in (out[0].evidence or {})
