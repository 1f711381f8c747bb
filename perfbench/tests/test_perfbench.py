"""Self-tests for the benchmark.  Run from the repository root:

  python3 -m pytest -q perfbench/tests
"""

import filecmp
import json
import os
import random
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402


# -- span recorder --------------------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals():
    rec = tracer.Recorder()
    root = rec.add("root", 0, 100)
    a = rec.add("a", 10, 40, root)
    rec.add("leaf", 20, 30, a)
    rec.add("b", 50, 60, root)
    rec.add("b", 90, 120, root)  # runs past its parent: only 90..100 is covered
    rec.add("other_root", 200, 205)
    st = rec.self_times()
    assert st["root"] == [1, 100 - 30 - 10 - 10]
    assert st["a"] == [1, 20]
    assert st["leaf"] == [1, 10]
    assert st["b"] == [2, 10 + 30]
    assert st["other_root"] == [1, 5]


def test_wrappers_nest_spans_and_count_results():
    rec = tracer.Recorder()

    def inner(x):
        return [x] * x

    wrapped_inner = rec.wrap("inner", inner, ("inner.items", len))

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(x + 1)

    with rec.span("block"):
        rec.wrap("outer", outer)(2)
    assert rec.names == ["block", "outer", "inner", "inner"]
    assert rec.parents == [-1, 0, 1, 1]
    assert rec.counts == {"inner.items": 5}
    st = rec.self_times()
    total = rec.ends[0] - rec.starts[0]
    assert sum(ns for _, ns in st.values()) == total


def test_patch_replaces_every_namespace_and_restores():
    import toroshrink
    from toroshrink import magnus, milnor

    original = magnus.expand
    rec, missing = tracer.install(toroshrink)
    try:
        assert missing == []
        assert milnor.expand is magnus.expand is not original
        assert toroshrink.expand is magnus.expand
        word = toroshrink.parse_word("x0 x1 x0^-1 x1^-1", 2)
        assert toroshrink.mu(toroshrink.builtin("hopf"), (1, 2)) in (-1, 1)
        milnor.expand(word, 3)
    finally:
        rec.restore()
    assert milnor.expand is original and magnus.expand is original
    assert "magnus.expand" in rec.self_times()


# -- seeded inputs -------------------------------------------------------------------


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_gives_identical_files(workload, tmp_path):
    a = W.generate(workload, 7, str(tmp_path / "a"))
    b = W.generate(workload, 7, str(tmp_path / "b"))
    c = W.generate(workload, 8, str(tmp_path / "c"))
    names = [os.path.basename(p) for p in a.files]
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert match == names and not mismatch and not errors
    assert W.read_items(a) != W.read_items(c)
    assert a.cli_argv[:1] == c.cli_argv[:1]


def test_every_pool_member_has_a_golden_entry():
    for workload, pool in (("shrink_unknown", W.unknown_pool()),
                           ("shrink_decided", W.decided_pool())):
        golden = W.load_golden(workload)
        keys = {c.key for configs in pool.values() for c in configs}
        assert keys <= set(golden["items"]), workload
    unknown_cli = set(W.load_golden("shrink_unknown")["cli"])
    assert {c.key for c in W.unknown_pool()["near_miss"]} <= unknown_cli
    milnor = W.load_golden("milnor_diagram")["items"]
    inputs = W.generate("milnor_diagram", 0, os.path.join(BENCH, "..", ".perfbench_work", "test"))
    assert {W.milnor_key(n, i) for n, i in inputs.items} == set(milnor)


def test_pd_texts_match_the_package_fixtures():
    import toroshrink

    assert toroshrink.parse_pd(W.AXIS_PD) == toroshrink.linkio.bing_axis_pd()
    assert toroshrink.parse_pd(W.WHITEHEAD_PD) == toroshrink.pd_fixture("whitehead")


# -- oracles -------------------------------------------------------------------------


def test_magnus_dp_matches_the_expansion():
    from toroshrink import Word, expand

    rng = random.Random(1)
    for _ in range(40):
        word = Word(3, [(rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))])
        series = expand(word, 4)
        for q in range(1, 5):
            index = tuple(rng.randrange(3) for _ in range(q))
            assert oracles.magnus_coefficient(word.letters, index) == series.coefficient(index)


def test_orbit_oracle_matches_package_evidence_on_small_horizons():
    from toroshrink import ExplicitSequence
    from toroshrink.shrink import _orbit_evidence

    rng = random.Random(2)
    for _ in range(60):
        links = [(rng.randint(1, 7), rng.randint(1, 5)) for _ in range(rng.randint(1, 30))]
        k_max, m_max, p_max = rng.randint(1, 12), rng.randint(1, 5), rng.randint(1, 40)
        expected = _orbit_evidence(ExplicitSequence(tuple(links)), k_max, m_max, p_max)
        cut = links[: m_max + p_max]
        assert oracles.orbit_evidence(cut, k_max, m_max, p_max) == expected, (links, k_max, m_max, p_max)


# -- checks and metrics --------------------------------------------------------------


def test_planted_golden_mismatch_counts_as_a_failure(tmp_path):
    import toroshrink
    import worker

    inputs = W.generate("shrink_decided", 3, str(tmp_path))
    golden = W.load_golden("shrink_decided")
    runner = W.Runner(toroshrink, inputs, golden)
    runner.items = runner.items[:20]
    assert worker.run_pass(runner)["failed"] == 0
    planted = json.loads(json.dumps(golden))
    planted["items"][W.digest(runner.items[5])]["result"] = "0" * 16
    runner = W.Runner(toroshrink, inputs, planted)
    runner.items = runner.items[:20]
    result = worker.run_pass(runner)
    assert (result["attempted"], result["failed"]) == (20, 1)


def test_untraced_worker_installs_no_wrapper(tmp_path):
    code = (
        "import sys, worker\n"
        f"ts, W, runner, _ = worker.prepare('milnor_diagram', 1, {str(tmp_path)!r})\n"
        "runner.items = runner.items[:30]\n"
        "worker.run_pass(runner)\n"
        "import toroshrink.magnus as m, toroshrink.freegroup as f\n"
        "print('tracer' in sys.modules, hasattr(m.expand, '__wrapped__'),"
        " hasattr(f.Word.__mul__, '__wrapped__'))\n"
    )
    env = dict(os.environ, PYTHONPATH=BENCH)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.split() == ["False", "False", "False"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1, 1001)))[::2] == (99.0, 10)
    assert run.tail(list(range(1, 100001)))[::2] == (99.0, 1000)
    assert run.tail(list(range(1, 101)))[::2] == (90.0, 10)
    assert run.tail(list(range(1, 21))) == (50.0, 10, 10)
    assert run.tail(list(range(1, 20))) == (100.0, 19, 0)
    assert run.tail([5.0]) == (100.0, 5.0, 0)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
