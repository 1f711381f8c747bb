import hashlib
import json
import os

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


# sha256 of the deterministic JSON bytes of two --all-upto-length runs,
# captured from the code that enumerated every sub-index of each index
# literally; a faster Delta must reproduce them, so never regenerate them
# to make this test pass
MILNOR_DATA = os.path.join(os.path.dirname(__file__), "data", "milnor_bytes.json")


@pytest.mark.parametrize(
    "link_args",
    [("--pd", "bing_axis"), ("--builtin", "whitehead")],
    ids=["bing_axis", "whitehead"],
)
def test_milnor_all_upto_length_six_bytes_unchanged(tmp_path, capsys, link_args):
    flag, name = link_args
    source = name
    if flag == "--pd":
        source = tmp_path / f"{name}.pd"
        source.write_text(format_pd(bing_axis_pd()), encoding="utf-8")
    code, out, _ = run(
        capsys, "milnor", flag, str(source), "--all-upto-length", "6",
        "--format", "json", "--deterministic",
    )
    assert code == 0
    with open(MILNOR_DATA, encoding="utf-8") as fh:
        expected = json.load(fh)[f"milnor {flag} {name} --all-upto-length 6"]
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


def test_horizon_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "seq.json"
    path.write_text(
        json.dumps({"variant": "periodic", "links": [{"nm": [2, 1]}]}),
        encoding="utf-8",
    )
    monkeypatch.setenv("TOROSHRINK_HORIZON", "4,4,50")
    code, out, _ = run(capsys, "shrink", "decide", "--config", str(path))
    assert code == 0


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


@pytest.mark.parametrize("env, flag", [("1,2", None), (None, "1,2")])
def test_bad_horizon_exits_three(tmp_path, capsys, monkeypatch, env, flag):
    path = tmp_path / "seq.json"
    path.write_text(
        json.dumps({"variant": "periodic", "links": [{"nm": [2, 1]}]}),
        encoding="utf-8",
    )
    if env:
        monkeypatch.setenv("TOROSHRINK_HORIZON", env)
    argv = ["shrink", "decide", "--config", str(path)]
    if flag:
        argv += ["--horizon", flag]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "must be P or K,M,P" in err


def test_horizon_flag_overrides_environment_step_bound(monkeypatch):
    # K,M come from the environment, P from the flag
    from toroshrink.cli import _horizons, build_parser

    monkeypatch.setenv("TOROSHRINK_HORIZON", "4,5,6")
    args = build_parser().parse_args(["shrink", "decide", "--config", "x", "--horizon", "9"])
    assert _horizons(args) == (4, 5, 9)


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

    monkeypatch.setattr("toroshrink.cli.run_checks", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["report"])
