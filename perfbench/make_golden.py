"""Regenerate perfbench/golden/ from the toroshrink sources in ./src.

  python3 perfbench/make_golden.py [WORKLOAD ...]

Run it from the repository root.  Golden values come from oracles that do
not use the code paths being measured wherever such an oracle exists:

* milnor_diagram: mu by ``freegroup.iterated_fox_coefficient`` on the
  longitude word where that finishes within FOX_SECONDS, and otherwise by
  the Magnus-coefficient DP in ``oracles.py`` (checked against each other
  wherever both ran); Delta as a GCD over those values.
* shrink_unknown: orbit evidence recomputed by ``oracles.orbit_evidence``.
* outcome, criterion, certificate and CLI bytes: the current sources'
  ``--deterministic`` output.

Inputs on which the sources disagree with an oracle are kept, and listed
in golden/known_failures.json.
"""

import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import toroshrink as ts  # noqa: E402
from toroshrink import freegroup, milnor  # noqa: E402

import oracles  # noqa: E402
import workloads as W  # noqa: E402

FOX_SECONDS = 2


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_cli(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("TOROSHRINK_HORIZON", None)
    proc = subprocess.run([sys.executable, "-m", "toroshrink.cli", *argv],
                          capture_output=True, text=True, env=env, check=False)
    return {"stdout": W.digest(proc.stdout), "exit": proc.returncode}


def milnor_golden(failures):
    items = {}
    signal.signal(signal.SIGALRM, _alarm)
    for name, (text, labels, max_len) in W.DIAGRAMS.items():
        pd = ts.parse_pd(text)
        indices = [idx for r in range(2, max_len + 1)
                   for idx in itertools.product(labels, repeat=r)]
        mu_table, source = {}, {}
        for idx in indices:
            word = milnor.longitude_word(pd, idx[-1], len(idx))
            dp = oracles.magnus_coefficient(word.letters, idx[:-1])
            signal.alarm(FOX_SECONDS)
            try:
                fox = freegroup.iterated_fox_coefficient(word, idx[:-1])
            except _Timeout:
                fox = None
            finally:
                signal.alarm(0)
            if fox is not None and fox != dp:
                raise SystemExit(f"oracles disagree on {name} {idx}: fox {fox}, dp {dp}")
            mu_table[idx] = dp
            source[idx] = "dp" if fox is None else "fox"
        for idx in indices:
            delta = oracles.delta(mu_table, idx)
            items[W.milnor_key(name, idx)] = [mu_table[idx], delta, source[idx]]
            rec = ts.mubar(pd, idx)
            if (rec.mu, rec.delta) != (mu_table[idx], delta):
                failures.append({"workload": "milnor_diagram", "input": f"{name} {idx}",
                                 "expected": [mu_table[idx], delta], "got": [rec.mu, rec.delta]})
        counts = {s: list(source.values()).count(s) for s in ("fox", "dp")}
        print(f"milnor {name}: {len(indices)} indices, mu from {counts}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = W.generate("milnor_diagram", 0, tmp)
        cli = {"milnor": run_cli(inputs.cli_argv)}
    return {"items": items, "cli": cli}


def shrink_golden(workload, pool, failures):
    items, cli = {}, {}
    k_max, m_max, p_max = W.HORIZONS
    with tempfile.TemporaryDirectory() as tmp:
        for family, configs in pool.items():
            for config in configs:
                if config.key in items:
                    continue
                verdict = ts.decide(ts.parse_sequence_config(config.text))
                verified = ts.verify_certificate(verdict)
                entry = {"outcome": verdict.outcome, "criterion": verdict.criterion,
                         "result": W.verdict_digest(verdict, verified)}
                if workload == "shrink_unknown":
                    links = config.oracle_links(m_max + p_max)
                    entry["evidence"] = oracles.orbit_evidence(links, k_max, m_max, p_max)
                    if verdict.evidence != entry["evidence"]:
                        failures.append({"workload": workload, "input": config.text[:200],
                                         "expected": entry["evidence"], "got": verdict.evidence})
                    if family == "near_miss":
                        path = os.path.join(tmp, "cli.json")
                        with open(path, "w", encoding="utf-8") as fh:
                            fh.write(config.text)
                        cli[config.key] = run_cli(["shrink", "decide", "--config", path,
                                                   "--format", "json", "--deterministic"])
                elif verdict.evidence:
                    raise SystemExit(f"decided pool member ran evidence: {config.text}")
                items[config.key] = entry
            print(f"{workload} {family}: {len(configs)} configs", file=sys.stderr)
    if workload == "shrink_decided":
        cli["report"] = run_cli(["report", "--format", "json", "--deterministic"])
    return {"items": items, "cli": cli}


def write_golden(path, golden):
    """One entry per line, so a regenerated file diffs by entry."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, section in enumerate(sorted(golden)):
            fh.write(("{" if i == 0 else ",\n") + json.dumps(section) + ": {\n")
            entries = sorted(golden[section].items())
            fh.write(",\n".join(f"{json.dumps(k)}: {W.canonical(v)}" for k, v in entries))
            fh.write("\n}")
        fh.write("}\n")


def main(argv):
    chosen = argv or ["milnor_diagram", "shrink_unknown", "shrink_decided"]
    failures_path = os.path.join(W.GOLDEN_DIR, "known_failures.json")
    failures_all = []
    if os.path.exists(failures_path):
        with open(failures_path, encoding="utf-8") as fh:
            failures_all = [f for f in json.load(fh) if f["workload"] not in chosen]
    for workload in chosen:
        failures = []
        if workload == "milnor_diagram":
            golden = milnor_golden(failures)
        elif workload == "shrink_unknown":
            golden = shrink_golden(workload, W.unknown_pool(), failures)
        else:
            golden = shrink_golden(workload, W.decided_pool(), failures)
        write_golden(os.path.join(W.GOLDEN_DIR, workload + ".json"), golden)
        print(f"{workload}: {len(failures)} known failures", file=sys.stderr)
        failures_all.extend(failures)
    with open(failures_path, "w", encoding="utf-8") as fh:
        json.dump(failures_all, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
