import hashlib
import json
import os
import runpy
import time

import pytest

from toroshrink.cli import main
from toroshrink.linkio import HOPF_PD, bing_axis_pd, format_pd


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_drf_eval_fig4(capsys):
    code, out, _ = run(capsys, "drf", "eval", "--link", "nm(3,2)", "--k", "8")
    assert code == 0
    assert out.strip() == "10"


def test_drf_eval_unknown_link_is_an_input_error(capsys):
    code, out, err = run(capsys, "drf", "eval", "--link", "x", "--k", "8")
    assert (code, out) == (3, "")
    assert err == "toroshrink: error: unknown link entry 'x'\n"


def test_link_info_builtin(capsys):
    code, out, _ = run(capsys, "link", "info", "--builtin", "nm(4,3)")
    assert code == 0
    assert "components: [0, 1, 2, 3, 4]" in out


def test_link_info_pd_file(tmp_path, capsys):
    pd_file = tmp_path / "hopf.pd"
    pd_file.write_text(HOPF_PD, encoding="utf-8")
    code, out, _ = run(capsys, "link", "info", "--pd", str(pd_file))
    assert code == 0
    assert "crossings: 2" in out
    assert "lk(1,2) = 1" in out


@pytest.mark.parametrize(
    "argv", [("link", "info"), ("milnor", "--index", "1,2")], ids=["link_info", "milnor"]
)
def test_pd_text_reads_as_a_pd_file(tmp_path, capsys, argv):
    pd_file = tmp_path / "hopf.pd"
    pd_file.write_text(HOPF_PD, encoding="utf-8")
    from_file = run(capsys, *argv, "--pd", str(pd_file))
    assert from_file[0] == 0
    assert run(capsys, *argv, "--pd-text", HOPF_PD) == from_file


def test_link_info_one_component_has_no_linking_numbers(capsys):
    code, out, _ = run(capsys, "link", "info", "--pd-text", "% component 1: -")
    assert code == 0
    assert "linking numbers: none" in out.splitlines()


def test_link_info_empty_file_is_error(tmp_path, capsys):
    pd_file = tmp_path / "empty.pd"
    pd_file.write_text("", encoding="utf-8")
    code, _, err = run(capsys, "link", "info", "--pd", str(pd_file))
    assert code == 3
    assert "empty" in err


def test_milnor_whitehead(capsys):
    code, out, _ = run(
        capsys, "milnor", "--builtin", "whitehead", "--index", "0,0,1,1"
    )
    assert code == 0
    assert "mu(0, 0, 1, 1) = 1" in out or "mu(0, 0, 1, 1) = -1" in out


def test_milnor_hopf_json(capsys):
    code, out, _ = run(
        capsys,
        "milnor",
        "--builtin",
        "hopf",
        "--index",
        "1,2",
        "--format",
        "json",
        "--deterministic",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["records"][0]["mu"] == 1


def test_milnor_batch(capsys):
    code, out, _ = run(
        capsys, "milnor", "--builtin", "borromean", "--all-upto-length", "2"
    )
    assert code == 0
    assert out.count("mu(") == 9


def test_milnor_formats_each_longitude_once(capsys, monkeypatch):
    from toroshrink import freegroup

    original = freegroup.format_word
    calls = []

    def counting(word):
        calls.append(word)
        return original(word)

    monkeypatch.setattr(freegroup, "format_word", counting)
    code, out, _ = run(
        capsys, "milnor", "--builtin", "borromean", "--all-upto-length", "3"
    )
    assert code == 0
    assert out.count("mu(") == 36
    # one word per (component, q): 3 components, q = 2 and 3
    assert len(calls) == 6


def test_milnor_dump_series(capsys):
    from toroshrink.linkio import builtin
    from toroshrink.magnus import expand, format_series
    from toroshrink.milnor import longitude_word

    series = format_series(expand(longitude_word(builtin("borromean"), 3, 3), 3))
    argv = ("milnor", "--builtin", "borromean", "--index", "1,2,3")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--dump-series")
    assert code == 0
    assert out == plain + f"  series: {series}\n"
    code, out, _ = run(capsys, *argv, "--dump-series", "--format", "json", "--deterministic")
    assert code == 0
    (record,) = json.loads(out)["records"]
    assert record["series"] == series


# sha256 of the deterministic JSON bytes of --all-upto-length runs: the
# length-6 ones captured from the code that enumerated every sub-index of
# each index literally, the length-8 ones (the cap) from the recursion over
# every rotation of every one-deletion; a faster Delta must reproduce them,
# so never regenerate them to make this test pass
MILNOR_DATA = os.path.join(os.path.dirname(__file__), "data", "milnor_bytes.json")


@pytest.mark.parametrize("length", [6, 8])
@pytest.mark.parametrize(
    "link_args",
    [("--pd", "bing_axis"), ("--builtin", "whitehead")],
    ids=["bing_axis", "whitehead"],
)
def test_milnor_all_upto_length_bytes_unchanged(tmp_path, capsys, link_args, length):
    flag, name = link_args
    source = name
    if flag == "--pd":
        source = tmp_path / f"{name}.pd"
        source.write_text(format_pd(bing_axis_pd()), encoding="utf-8")
    code, out, _ = run(
        capsys, "milnor", flag, str(source), "--all-upto-length", str(length),
        "--format", "json", "--deterministic",
    )
    assert code == 0
    with open(MILNOR_DATA, encoding="utf-8") as fh:
        expected = json.load(fh)[f"milnor {flag} {name} --all-upto-length {length}"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


# sha256 of the stdout of the full deterministic report and of each demo,
# captured before the tau-series criteria lost their caller-supplied
# certificates, and of `shrink decide` on two inputs that end Unknown with
# orbit evidence (an Example 5.6 near-miss and explicit data), captured
# before orbits shared paths; a change that keeps behaviour must reproduce
# them, so never regenerate them to make this test pass
DATA = os.path.join(os.path.dirname(__file__), "data")
OUTPUT_DATA = os.path.join(DATA, "output_bytes.json")
DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


@pytest.mark.parametrize(
    "name",
    [
        "report --format json --deterministic",
        "report --deterministic",
        "demos/disc_replicating_functions.py",
        "demos/milnor_invariants.py",
        "demos/shrinking_verdicts.py",
        "shrink decide --config decide_near_miss.json --format json --deterministic",
        "shrink decide --config decide_explicit.json --format json --deterministic",
    ],
)
def test_output_bytes_unchanged(capsys, name):
    if name.startswith("demos/"):
        runpy.run_path(os.path.join(DEMOS, os.path.basename(name)), run_name="__main__")
        out = capsys.readouterr().out
    elif name.startswith("shrink decide"):  # the configs sit beside the hashes
        argv = name.split()
        argv[3] = os.path.join(DATA, argv[3])
        code, out, _ = run(capsys, *argv)
        assert code == 2  # unknown
    else:
        code, out, _ = run(capsys, *name.split())
        assert code == 0
    with open(OUTPUT_DATA, encoding="utf-8") as fh:
        expected = json.load(fh)[name]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_shrink_decide_exit_codes(tmp_path, capsys):
    cases = [
        ({"variant": "periodic", "links": [{"nm": [2, 1]}]}, 0, "shrinks"),
        ({"variant": "periodic", "links": [{"nm": [1, 1]}]}, 1, "does_not_shrink"),
        ({"variant": "explicit", "links": [{"nm": [3, 1]}]}, 2, "unknown"),
    ]
    for cfg, expected_code, outcome in cases:
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, _ = run(capsys, "shrink", "decide", "--config", str(path))
        assert code == expected_code
        assert f"verdict: {outcome}" in out


@pytest.mark.parametrize(
    "cfg, criterion",
    [
        ({"variant": "periodic", "links": [{"nm": [2, 1]}]}, "periodic_product"),
        (
            {
                "variant": "generator",
                "even": {"n": "2*s^2", "m": "1"},
                "odd": {"n": "2", "m": "(s+1)^2"},
            },
            "telescoping_pairs",
        ),
        ({"variant": "explicit", "links": [{"nm": [3, 1]}]}, "orbit_evidence"),
    ],
    ids=["bing", "example_56", "explicit"],
)
def test_shrink_decide_failed_recheck_exits_three(tmp_path, capsys, monkeypatch, cfg, criterion):
    # a verdict whose certificate fails its re-check is an error, not a verdict
    monkeypatch.setattr("toroshrink.shrink.verify_certificate", lambda verdict: False)
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "shrink", "decide", "--config", str(path), "--format", fmt)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert f"the {criterion} certificate failed its re-check" in err


def test_shrink_decide_json_deterministic(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(
        json.dumps({"variant": "periodic", "links": [{"nm": [2, 2]}]}),
        encoding="utf-8",
    )
    outputs = set()
    for _ in range(2):
        code, out, _ = run(
            capsys,
            "shrink",
            "decide",
            "--config",
            str(path),
            "--format",
            "json",
            "--deterministic",
        )
        assert code == 1
        outputs.add(out)
    assert len(outputs) == 1
    payload = json.loads(outputs.pop())
    assert payload["certificate_verified"] is True


def test_shrink_decide_text_lists_each_declined_criterion(tmp_path, capsys):
    # n = i, m = 1: every criterion declines; the JSON output keeps its keys
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"variant": "generator", "n": "i", "m": "1"}), encoding="utf-8")
    code, out, _ = run(capsys, "shrink", "decide", "--config", str(path), "--horizon", "8,2,50")
    assert code == 2
    assert [line for line in out.splitlines() if line.startswith("declined: ")] == [
        "declined: periodic_product: no period",
        "declined: sher_armentrout: n >= 2m at index 2",
        "declined: bounded_widths: sup n_i is not known to be finite",
        "declined: convergent_tau_series: lim sup tau >= 1",
        "declined: divergent_weighted_tau_series: harmonic floors need bounded widths n_i",
        "declined: orbit_proof: neither periodic nor a two-case generator",
        "declined: ancel_starbird: not a gap sequence",
    ]
    argv = ["--horizon", "8,2,50", "--format", "json", "--deterministic"]
    code, out, _ = run(capsys, "shrink", "decide", "--config", str(path), *argv)
    assert code == 2
    assert "declined" not in json.loads(out)


def test_shrink_generator_config(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(
        json.dumps(
            {
                "variant": "generator",
                "even": {"n": "2*s^2", "m": "1"},
                "odd": {"n": "2", "m": "(s+1)^2"},
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "shrink", "decide", "--config", str(path))
    assert code == 0
    assert "telescoping_pairs" in out


def test_drf_orbit(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(
        json.dumps({"variant": "periodic", "links": [{"nm": [2, 1]}]}),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "drf", "orbit", "--sequence", str(path), "--k", "5", "--steps", "7"
    )
    assert code == 0
    assert out.strip() == "5 -> 4 -> 3 -> 2 -> 1 -> 0 -> 0 -> 0"


def test_drf_orbit_negative_steps_exits_three(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(
        json.dumps({"variant": "periodic", "links": [{"nm": [2, 1]}]}),
        encoding="utf-8",
    )
    argv = ("drf", "orbit", "--sequence", str(path), "--k", "5", "--steps")
    code, out, err = run(capsys, *argv, "-2")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "--steps must be >= 0" in err
    code, out, _ = run(capsys, *argv, "0")
    assert code == 0
    assert out.strip() == "5"


def test_drf_orbit_negative_k_exits_three(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(
        json.dumps({"variant": "periodic", "links": [{"nm": [2, 1]}]}),
        encoding="utf-8",
    )
    argv = ("drf", "orbit", "--sequence", str(path), "--k", "-1", "--steps", "1")
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "interlacing count must be nonnegative" in err


def test_drf_orbit_past_explicit_data_exits_three(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(
        json.dumps({"variant": "explicit", "links": ["bing", "bing"]}), encoding="utf-8"
    )
    code, out, err = run(
        capsys, "drf", "orbit", "--sequence", str(path), "--k", "3", "--steps", "5"
    )
    assert code == 3
    assert out == ""
    assert "link 3 beyond the declared data" in err


def test_horizon_environment_is_ignored(tmp_path, capsys, monkeypatch):
    # horizons come from --horizon alone, so a malformed variable is not read
    path = tmp_path / "seq.json"
    path.write_text(
        json.dumps({"variant": "periodic", "links": [{"nm": [2, 1]}]}),
        encoding="utf-8",
    )
    monkeypatch.setenv("TOROSHRINK_HORIZON", "1,2")
    code, _, err = run(capsys, "shrink", "decide", "--config", str(path))
    assert code == 0
    assert err == ""


def test_report_single_check(capsys):
    code, out, _ = run(capsys, "report", "--only", "fig4", "--deterministic")
    assert code == 0
    assert "fig4" in out and "pass" in out


def test_report_unknown_check(capsys):
    code, _, err = run(capsys, "report", "--only", "nonsense")
    assert code == 3
    assert "unknown check id" in err


def test_report_json_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "report", "--only", "fig4", "--format", "json", "--deterministic"
    )
    code2, out2, _ = run(
        capsys, "report", "--only", "fig4", "--format", "json", "--deterministic"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["all_ok"] is True


@pytest.mark.parametrize(
    "argv",
    [("drf", "eval", "--link", "nm(3,2)", "--k", "8"), ("link", "info", "--builtin", "hopf")],
    ids=["drf_eval", "link_info"],
)
def test_json_without_deterministic_adds_the_seconds(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json", "--deterministic")
    assert code == 0
    deterministic = json.loads(out)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    seconds = payload.pop("seconds")
    assert isinstance(seconds, float) and seconds >= 0
    assert payload == deterministic


def test_bad_flag_exits_three(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shrink", "decide", "--no-such-flag"])
    assert exc.value.code == 3


def test_milnor_bing_axis_index(capsys):
    # the axis-labelled borromean stage carries the (0,1,2) invariant
    code, out, _ = run(capsys, "milnor", "--builtin", "bing", "--index", "0,1,2")
    assert code == 0
    assert "mu(0, 1, 2) = 1" in out or "mu(0, 1, 2) = -1" in out


def test_milnor_wrong_labels_give_guidance(capsys):
    code, _, err = run(capsys, "milnor", "--builtin", "borromean", "--index", "0,1,2")
    assert code == 3
    assert "components are (1, 2, 3)" in err


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"variant": "periodic"}, "links"),
        ({"variant": "generator", "n": "2*i"}, "m"),
        ({"variant": "generator", "even": {"n": "2", "m": "1"}}, "odd"),
    ],
)
def test_shrink_decide_missing_key_exits_three(tmp_path, capsys, cfg, key):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, err = run(capsys, "shrink", "decide", "--config", str(path))
    assert code == 3
    assert out == ""
    assert repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"variant": "periodic", "links": 5}, "links"),
        ({"variant": "generator", "even": "x", "odd": {"n": "2", "m": "1"}}, "even"),
        ({"variant": "generator", "n": None, "m": "1"}, "n"),
        ({"variant": "eventually_periodic", "prefix": 5, "period": ["bing"]}, "prefix"),
        ({"variant": "explicit", "links": [{"nm": 5}]}, "nm"),
        # JSON true is an int to Python, but not a link size or a term
        ({"variant": "periodic", "links": [{"nm": [True, 1]}]}, "nm"),
        ({"variant": "generator", "n": True, "m": "1"}, "n"),
    ],
)
def test_shrink_decide_mistyped_field_exits_three(tmp_path, capsys, cfg, key):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, err = run(capsys, "shrink", "decide", "--config", str(path))
    assert code == 3
    assert out == ""
    assert repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"variant": "periodic", "links": ["bing"], "prefix": ["whitehead"]}, "prefix"),
        ({"variant": "generator", "n": "2", "m": "1", "even": {"n": "2"}, "odd": {}}, "n"),
        ({"variant": "generator", "even": {"n": "2", "m": "1"}, "odd": {"n": "2", "x": 0}}, "x"),
        ({"variant": "periodic", "links": [{"nm": [2, 1], "n": 7}]}, "n"),
    ],
    ids=["periodic-prefix", "generator-n-with-cases", "odd-case-x", "link-entry-n"],
)
def test_shrink_decide_unknown_key_exits_three(tmp_path, capsys, cfg, key):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, err = run(capsys, "shrink", "decide", "--config", str(path))
    assert code == 3
    assert out == ""
    assert f"has the unknown key {key!r}" in err
    assert "Traceback" not in err


def test_shrink_decide_term_of_huge_degree_exits_three(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(
        json.dumps({"variant": "generator", "n": "(i+1)^100000", "m": "1"}), encoding="utf-8"
    )
    code, out, err = run(capsys, "shrink", "decide", "--config", str(path))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "'(i+1)^100000' has degree above 64" in err


def test_shrink_decide_huge_constant_power_exits_three_at_once(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(
        json.dumps({"variant": "generator", "n": "2^100000000", "m": "1"}), encoding="utf-8"
    )
    start = time.perf_counter()
    code, out, err = run(capsys, "shrink", "decide", "--config", str(path))
    assert time.perf_counter() - start < 0.1
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "'2^100000000' has a constant of more than 4096 bits" in err


def test_milnor_without_index_exits_three(capsys):
    code, out, err = run(capsys, "milnor", "--builtin", "borromean")
    assert code == 3
    assert out == ""
    assert "--index or --all-upto-length" in err


def test_milnor_empty_index_exits_three(capsys):
    # an empty --index is given, so the fault is its length, not its absence
    code, out, err = run(capsys, "milnor", "--builtin", "borromean", "--index", "")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert "multi-index needs length >= 2" in err


def test_milnor_bad_index_exits_three(capsys):
    code, out, err = run(capsys, "milnor", "--builtin", "borromean", "--index", "0,x")
    assert code == 3
    assert out == ""
    assert "bad multi-index '0,x'" in err


@pytest.mark.parametrize("length", ["1", "0", "-3"])
def test_milnor_all_upto_length_below_two_exits_three(capsys, length):
    code, out, err = run(
        capsys, "milnor", "--builtin", "borromean", "--all-upto-length", length
    )
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert f"length bound {length} is below 2" in err


def test_no_link_given_exits_three(capsys):
    code, _, err = run(capsys, "link", "info")
    assert code == 3
    assert "no link given" in err


def test_milnor_link_alias_is_gone(capsys):
    # --builtin is the one way to name a builtin link
    with pytest.raises(SystemExit) as exc:
        main(["milnor", "--link", "bing", "--index", "0,1,2"])
    assert exc.value.code == 3
    assert "--link" in capsys.readouterr().err


def test_bad_horizon_exits_three(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(
        json.dumps({"variant": "periodic", "links": [{"nm": [2, 1]}]}),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "shrink", "decide", "--config", str(path), "--horizon", "1,2")
    assert code == 3
    assert out == ""
    assert "--horizon must be P or K,M,P" in err


def test_horizon_flag_sets_the_horizons():
    # a single value is the step bound P; K,M keep their defaults
    from toroshrink.cli import _horizons, build_parser

    def horizons(flag):
        argv = ["shrink", "decide", "--config", "x", "--horizon", flag]
        return _horizons(build_parser().parse_args(argv))

    assert horizons("9") == (64, 16, 9)
    assert horizons("4,5,6") == (4, 5, 6)


_TWO_CROSSINGS = "X[1,3,2,4] X[3,1,4,2]\n"


def _decide_config(cfg):
    return ("shrink", "decide", "--config", json.dumps(cfg))


def _pd_text(annotations):
    return ("link", "info", "--pd-text", _TWO_CROSSINGS + annotations)


# each input error exits 3 with one stderr line; a shrink decide row holds
# its config as JSON text, written to a file for the run
@pytest.mark.parametrize(
    "argv, message",
    [
        (_decide_config([]), "sequence config must be an object with a 'variant'"),
        (_decide_config({}), "sequence config must be an object with a 'variant'"),
        (
            _decide_config({"variant": "periodic", "links": []}),
            "period must contain at least one link",
        ),
        (
            _decide_config({"variant": "explicit", "links": []}),
            "explicit sequence needs at least one link",
        ),
        (
            _decide_config({"variant": "eventually_periodic", "prefix": ["bing"], "period": []}),
            "periodic tail must contain at least one link",
        ),
        (_decide_config({"variant": "periodic", "links": [5]}), "bad link entry 5"),
        (_decide_config({"variant": "periodic", "links": [{"x": 1}]}), "bad link entry {'x': 1}"),
        (
            _decide_config({"variant": "generator", "n": "i$", "m": "1"}),
            "bad character in term 'i$' at 1",
        ),
        (
            _pd_text("% component 1: 1,2\n% component 1: 3,4"),
            "duplicate component labels",
        ),
        (
            _pd_text("% component 2: 1,2\n% component 3: 3,4"),
            "component labels [2, 3] must be contiguous starting at 0 or 1",
        ),
        (
            _pd_text("% component 1: a,b\n% component 2: 3,4"),
            "bad component annotation '% component 1: a,b'",
        ),
        (
            ("milnor", "--builtin", "borromean", "--all-upto-length", "9"),
            "length bound 9 exceeds 8",
        ),
    ],
    ids=[
        "config-list",
        "config-empty",
        "periodic-no-links",
        "explicit-no-links",
        "empty-period",
        "link-entry-int",
        "link-entry-unknown-key",
        "term-bad-character",
        "pd-duplicate-label",
        "pd-labels-from-2",
        "pd-bad-annotation",
        "milnor-length-9",
    ],
)
def test_input_error_exits_three_with_one_line(tmp_path, capsys, argv, message):
    if argv[:3] == ("shrink", "decide", "--config"):
        path = tmp_path / "seq.json"
        path.write_text(argv[3], encoding="utf-8")
        argv = (*argv[:3], str(path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"toroshrink: error: {message}\n"


def test_unexpected_error_exits_three(tmp_path, capsys):
    # 200,000 nested '[' overflow the JSON decoder with a RecursionError
    path = tmp_path / "seq.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    code, out, err = run(capsys, "shrink", "decide", "--config", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("toroshrink: error: ")
    assert err.count("\n") == 1


def test_interrupt_is_not_turned_into_an_exit_code(monkeypatch):
    def interrupted(only=None):
        raise KeyboardInterrupt

    monkeypatch.setattr("toroshrink.report.run_checks", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["report"])
