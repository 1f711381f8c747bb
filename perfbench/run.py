"""Benchmark for toroshrink: three seeded workloads shaped like the CLI.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports toroshrink from ./src and
writes its inputs and traces under ./.perfbench_work/.  It runs one fresh
process at a time (``worker.py``): a pass process (set-up, then one pass
over the workload's items) alternating with runs of the workload's CLI
command (at least CLI_BATCH_S of them per pass), until S seconds have
passed and at least MIN_PASSES passes ran.

* ``--trace 0`` prints the end-to-end metrics.
* ``--trace 1`` runs the same untraced processes (the base for the
  tracing overhead), then one traced pass plus one in-process CLI run
  with spans around every layer, and the ROADMAP reference probes, and
  prints the per-layer metrics.

Every item and CLI run is checked against perfbench/golden/; a mismatch
counts as a failed item.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads as W  # noqa: E402  (stdlib only; never imports toroshrink)

MIN_PASSES = 3
CLI_BATCH_S = 1.0  # CLI time per pass; a short command runs several times
BUDGET_S = 170  # the whole run, every process included
# Tail percentiles to choose from.  p99.9 is left out: on shrink_decided its
# dozen samples beyond were GC pauses and speed spikes, 42% apart run to run.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}
CRITERIA = ("periodic_product", "sher_armentrout", "bounded_widths",
            "convergent_tau_series", "divergent_weighted_tau_series")
PER_LAYER = {
    "magnus.expand.calls": "count",
    "magnus.expand.self_ms": "ms",
    "magnus.expand.terms_out": "count",
    "magnus.expand.share": "ratio",
    "magnus.lcs_depth.calls": "count",
    "magnus.lcs_depth.self_ms": "ms",
    "milnor.mu.calls_per_index": "ratio",
    "milnor.delta.self_ms": "ms",
    "milnor.reduce_longitude.calls": "count",
    "milnor.reduce_longitude.self_ms": "ms",
    "milnor.longitude_cache.hit_ratio": "ratio",
    "milnor.longitude.letters": "count",
    "freegroup.Word.mul.calls": "count",
    "freegroup.Word.mul.self_ms": "ms",
    "linkio.parse_pd.self_ms": "ms",
    "linkio.wirtinger.calls": "count",
    "linkio.wirtinger.self_ms": "ms",
    "sequences.link.calls": "count",
    "sequences.link.self_ms": "ms",
    "sequences.parse_sequence_config.self_ms": "ms",
    "shrink.orbit_decide.self_ms": "ms",
    "shrink.evidence.items": "count",
    "shrink.evidence_path.share": "ratio",
    **{f"shrink.{c}.{k}": u for c in CRITERIA for k, u in (("calls", "count"), ("self_ms", "ms"))},
    "shrink.divergent_weighted_tau_series.calls_per_decide": "ratio",
    "shrink.verify_certificate.self_ms": "ms",
    "drf.nm_drf.calls": "count",
    "drf.compose.self_ms": "ms",
    "report.run_checks.self_ms": "ms",
    "setup.import_s": "s",
    "setup.numpy_import_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "probe.import_s": "s",
    "probe.orbit_decide_example55_s": "s",
    "probe.mubar_axis_len6_s": "s",
    "probe.report_s": "s",
}


class BenchError(RuntimeError):
    pass


class Clock:
    """What is left of the run's time budget."""

    def __init__(self):
        self.start = time.monotonic()

    def left(self) -> float:
        left = BUDGET_S - (time.monotonic() - self.start)
        if left <= 1:
            raise BenchError(f"time budget of {BUDGET_S} s used up")
        return left


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    env.pop("TOROSHRINK_HORIZON", None)  # the CLI would read it
    return env


def run_worker(clock: Clock, *args) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=clock.left(), check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} did not finish in time") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile on
    LADDER with at least ten samples beyond it (nearest-rank)."""
    data = sorted(latencies)
    n = len(data)
    best = None
    for q in LADDER:
        rank = max(1, -(-round(q * 100) * n // 10000))  # ceil(q n / 100), exactly
        if n - rank >= 10:
            best = (q, data[rank - 1], n - rank)
    if best is None:
        return 100.0, data[-1], 0
    return best


def alternate(clock, args, cli_argv) -> tuple[list, list]:
    """Pass processes alternating with CLI processes.  Machine speed drifts
    over tens of seconds, so the samples of each are spread over the run."""
    passes, clis = [], []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
        passes.append(run_worker(clock, "pass", args.workload, args.seed, args.workdir, 0))
        clis.append(run_worker(clock, "cli", *cli_argv))
        while sum(c["cli_s"] for c in clis) < CLI_BATCH_S * len(passes):
            clis.append(run_worker(clock, "cli", *cli_argv))
    return passes, clis


def tally(passes, clis, golden_cli) -> tuple[int, int]:
    """(attempted, failed) over the items of the passes and the CLI runs."""
    attempted = sum(p["attempted"] for p in passes) + len(clis)
    failed = sum(p["failed"] for p in passes) + sum(
        c["exit"] != golden_cli["exit"] or c["stdout"] != golden_cli["stdout"] for c in clis)
    return attempted, failed


def end_to_end(clock, args, inputs, golden_cli) -> tuple[dict, int, int]:
    passes, clis = alternate(clock, args, inputs.cli_argv)
    lat = [ms for p in passes for ms in p["latencies_ms"]]
    q, tail_ms, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "item_p50_ms": statistics.median(lat),
        "item_tail_ms": tail_ms,
        "cli_s": statistics.median(c["cli_s"] for c in clis),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(inputs.items)} "
          f"items, {len(clis)} CLI runs")
    print(f"item_tail_ms is p{q:g} of {len(lat)} item samples ({beyond} beyond it)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {END_TO_END[name]}")
    return (metrics, *tally(passes, clis, golden_cli))


def per_layer(clock, args, inputs, golden_cli) -> tuple[dict, int, int]:
    passes, clis = alternate(clock, args, inputs.cli_argv)
    tr = run_worker(clock, "pass", args.workload, args.seed, args.workdir, 1)
    probes = run_worker(clock, "probes")
    report_s = run_worker(clock, "cli", "report")["cli_s"]
    # Layers whose cost shows in cli_s are read from the in-process CLI run,
    # every other layer from the traced pass.
    st, cli_st, counts, pass_ms = tr["pass_self"], tr["cli_self"], tr["counts"], tr["pass_ms"]

    def calls(name, spans=st):
        return spans.get(name, [0, 0.0])[0]

    def self_ms(name, spans=st):
        return spans.get(name, [0, 0.0])[1]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "magnus.expand.calls": calls("magnus.expand"),
        "magnus.expand.self_ms": self_ms("magnus.expand"),
        "magnus.expand.terms_out": counts.get("magnus.expand.terms_out", 0),
        "magnus.expand.share": ratio(self_ms("magnus.expand"), pass_ms),
        "magnus.lcs_depth.calls": calls("magnus.lcs_depth"),
        "magnus.lcs_depth.self_ms": self_ms("magnus.lcs_depth"),
        "milnor.mu.calls_per_index": ratio(calls("milnor.mu"), calls("milnor.mubar")),
        "milnor.delta.self_ms": self_ms("milnor.delta"),
        "milnor.reduce_longitude.calls": calls("milnor.reduce_longitude"),
        "milnor.reduce_longitude.self_ms": self_ms("milnor.reduce_longitude"),
        "milnor.longitude_cache.hit_ratio": 1 - ratio(calls("milnor.reduce_longitude"),
                                                      calls("milnor.longitude_word"))
        if calls("milnor.longitude_word") else 0.0,
        "milnor.longitude.letters": counts.get("milnor.longitude.letters", 0),
        "freegroup.Word.mul.calls": calls("freegroup.Word.mul"),
        "freegroup.Word.mul.self_ms": self_ms("freegroup.Word.mul"),
        "linkio.parse_pd.self_ms": self_ms("linkio.parse_pd", cli_st),
        "linkio.wirtinger.calls": calls("linkio.wirtinger", cli_st),
        "linkio.wirtinger.self_ms": self_ms("linkio.wirtinger", cli_st),
        "sequences.link.calls": calls("sequences.link"),
        "sequences.link.self_ms": self_ms("sequences.link"),
        "sequences.parse_sequence_config.self_ms": self_ms("sequences.parse_sequence_config"),
        "shrink.orbit_decide.self_ms": self_ms("shrink.orbit_decide"),
        "shrink.evidence.items": tr["evidence_items"],
        "shrink.evidence_path.share": ratio(
            self_ms("shrink.orbit_decide") + self_ms("sequences.link"), pass_ms),
        **{f"shrink.{c}.calls": calls(f"shrink.{c}") for c in CRITERIA},
        **{f"shrink.{c}.self_ms": self_ms(f"shrink.{c}") for c in CRITERIA},
        "shrink.divergent_weighted_tau_series.calls_per_decide": ratio(
            calls("shrink.divergent_weighted_tau_series"), calls("shrink.decide")),
        "shrink.verify_certificate.self_ms": self_ms("shrink.verify_certificate"),
        "drf.nm_drf.calls": calls("drf.nm_drf", cli_st),
        "drf.compose.self_ms": self_ms("drf.compose", cli_st),
        "report.run_checks.self_ms": self_ms("report.run_checks", cli_st),
        "setup.import_s": statistics.median(p["import_s"] for p in passes),
        "setup.numpy_import_s": statistics.median(p["numpy_import_s"] for p in passes),
        "trace.overhead_frac": tr["wall_s"] / statistics.median(p["wall_s"] for p in passes) - 1,
        "trace.spans": tr["spans"],
        "probe.import_s": probes["import_s"],
        "probe.orbit_decide_example55_s": probes["orbit_decide_example55_s"],
        "probe.mubar_axis_len6_s": probes["mubar_axis_len6_s"],
        "probe.report_s": report_s,
    }
    print(f"{args.workload} seed {args.seed}: one traced pass ({pass_ms:.1f} ms) and one "
          f"in-process CLI run; spans in {args.workdir}/spans.tsv")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {PER_LAYER[name]}")
    return (metrics, *tally(passes + [tr], clis, golden_cli))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "toroshrink", "__init__.py")):
        print("perfbench: run from a toroshrink checkout (no src/toroshrink here)", file=sys.stderr)
        return 2
    clock = Clock()
    args.workdir = os.path.join(os.getcwd(), ".perfbench_work", f"{args.workload}-{args.seed}")
    inputs = W.generate(args.workload, args.seed, args.workdir)
    golden_cli = W.load_golden(args.workload)["cli"][inputs.cli_key]
    try:
        if args.trace:
            metrics, attempted, failed = per_layer(clock, args, inputs, golden_cli)
            units = PER_LAYER
        else:
            metrics, attempted, failed = end_to_end(clock, args, inputs, golden_cli)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
