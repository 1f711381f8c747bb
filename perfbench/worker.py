"""One fresh benchmark process; ``run.py`` starts it and reads its last line.

  worker.py pass   WORKLOAD SEED WORKDIR TRACE
  worker.py cli    ARG ...
  worker.py probes

``pass`` times its own set-up (importing toroshrink, importing numpy,
which toroshrink imports lazily on the first Unknown verdict, and
building the workload's inputs), then runs one pass over the items.  Each
pass runs in a fresh process, so it starts as cold as a CLI run does.
With TRACE=1 it installs the span recorder first and, after the pass,
also runs the workload's CLI command in-process.  ``cli`` runs
``toroshrink.cli.main(ARGS)`` the way the ``toroshrink`` console script
does and times the whole process.  ``probes`` times the ROADMAP reference
points.  Each mode prints one JSON object as its last line.
"""

import time

START_CPU = time.process_time()  # interpreter start-up, for the cli mode

import os  # noqa: E402
import sys  # noqa: E402

import calibration  # noqa: E402

CAL_INTERVAL_S = 0.1  # work between two calibration samples


def load_package():
    """Import toroshrink from ./src of the current checkout, nowhere else."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "toroshrink", "__init__.py")):
        sys.exit(f"perfbench: no toroshrink sources under {src}")
    sys.path.insert(0, src)
    t = time.perf_counter()
    import toroshrink

    import_s = time.perf_counter() - t
    if not os.path.abspath(toroshrink.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported toroshrink from {toroshrink.__file__}, not {src}")
    t = time.perf_counter()
    import numpy  # noqa: F401  (warm the lazy import outside the timed pass)

    return toroshrink, import_s, time.perf_counter() - t


def prepare(workload, seed, workdir):
    ts, import_s, numpy_s = load_package()
    import workloads as W

    inputs = W.generate(workload, seed, workdir)
    runner = W.Runner(ts, inputs, W.load_golden(workload))
    return ts, W, runner, (import_s, numpy_s)


def run_pass(runner):
    """Time every item, in calibrated stretches of about CAL_INTERVAL_S;
    check outputs after the timed region."""
    latencies, outputs, stretch = [], [], []
    wall = cpu = 0.0
    clock = time.perf_counter_ns
    scaler = calibration.Scaler()
    c0, w0 = time.process_time(), time.perf_counter()
    last = len(runner.items) - 1
    for i in range(last + 1):
        t = clock()
        try:
            out = runner.run(i)
        except Exception as exc:  # an item that raises is a failed item
            out = exc
        stretch.append((clock() - t) / 1e6)
        outputs.append(out)
        if i == last or time.perf_counter() - w0 >= CAL_INTERVAL_S:
            w, c = time.perf_counter() - w0, time.process_time() - c0
            f = scaler.factor()
            wall += w * f
            cpu += c * f
            latencies.extend(ms * f for ms in stretch)
            stretch = []
            c0, w0 = time.process_time(), time.perf_counter()
    failed = evidence = 0
    for i, out in enumerate(outputs):
        if isinstance(out, Exception):
            print(f"perfbench: item {i} raised {out!r}", file=sys.stderr)
            failed += 1
        elif not runner.check(i, out):
            print(f"perfbench: item {i} differs from its golden output", file=sys.stderr)
            failed += 1
        elif runner.has_evidence(out):
            evidence += 1
    return {"wall_s": wall, "cpu_s": cpu, "latencies_ms": latencies,
            "attempted": len(latencies), "failed": failed, "evidence_items": evidence}


def one_pass(workload, seed, workdir, trace):
    import resource

    (ts, W, runner, (import_s, numpy_s)), setup_s, f = calibration.timed(
        lambda: prepare(workload, seed, workdir))
    result = traced(ts, W, runner, workdir) if trace else run_pass(runner)
    result.update(setup_s=setup_s, import_s=import_s * f, numpy_import_s=numpy_s * f,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return result


def traced(ts, W, runner, workdir):
    """One pass and one in-process CLI run under the span recorder."""
    import contextlib
    import io

    import toroshrink.cli
    import tracer

    rec, missing = tracer.install(ts)
    for name in missing:
        print(f"perfbench: no layer {name} to trace", file=sys.stderr)
    sampler = calibration.Sampler()
    with rec.span("perfbench.pass"):
        result = run_pass(runner)
    counts = dict(rec.counts)
    cli_first = len(rec.names)
    tracer.clear_caches(ts)  # a CLI process starts cold
    stdout = io.StringIO()
    with rec.span("perfbench.cli"), contextlib.redirect_stdout(stdout):
        code = toroshrink.cli.main(runner.inputs.cli_argv)
    rec.restore()
    f, _ = sampler.stop()
    expected = runner.cli_golden()
    cli_ok = code == expected["exit"] and W.digest(stdout.getvalue()) == expected["stdout"]
    rec.write(os.path.join(workdir, "spans.tsv"))

    def ms(first, stop=None):
        return {k: [c, ns / 1e6 * f] for k, (c, ns) in rec.self_times(first, stop).items()}

    result.update(
        pass_ms=(rec.ends[0] - rec.starts[0]) / 1e6 * f,
        pass_self=ms(0, cli_first),
        cli_self=ms(cli_first),
        counts=counts,
        spans=len(rec.names),
        attempted=result["attempted"] + 1,
        failed=result["failed"] + (not cli_ok),
    )
    return result


def probes():
    """The reference points the ROADMAP quotes, each timed once."""
    import itertools

    (ts, import_s, _), _, f = calibration.timed(load_package)
    import workloads as W

    seq = ts.parse_sequence_config(W.canonical({"variant": "generator", "n": "2*i", "m": "i + 1"}))
    _, example_55, _ = calibration.timed(lambda: ts.orbit_decide(seq))
    pd = ts.parse_pd(W.AXIS_PD)
    _, mubar_len6, _ = calibration.timed(
        lambda: [ts.mubar(pd, index) for index in itertools.product((0, 1, 2), repeat=6)])
    return {"import_s": import_s * f, "orbit_decide_example55_s": example_55,
            "mubar_axis_len6_s": mubar_len6}


def cli(argv):
    """The CLI command in this fresh process: start-up CPU time plus the
    import and run, scaled; stdout is kept to check it byte for byte."""
    import contextlib
    import hashlib
    import io

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    stdout = io.StringIO()

    def run():
        with contextlib.redirect_stdout(stdout):
            try:
                from toroshrink.cli import main as cli_main

                return cli_main(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1

    code, seconds, f = calibration.timed(run)
    digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()[:16]
    return {"cli_s": START_CPU * f + seconds, "stdout": digest, "exit": code}


def main(argv):
    import json

    mode = argv[0]
    if mode == "pass":
        result = one_pass(argv[1], int(argv[2]), argv[3], argv[4] == "1")
    elif mode == "probes":
        result = probes()
    elif mode == "cli":
        result = cli(argv[1:])
    else:
        sys.exit(f"perfbench: unknown worker mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
