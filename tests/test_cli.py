"""Command-line interface: exit codes, artifacts, and schema diagnostics."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diskrot import cli, winding
from diskrot.cli import build_parser, main
from diskrot.maps import ConjugatedRotation, from_config
from diskrot.winding import _pair_track, pair_windings

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run(args, cwd):
    # the child runs in a temporary directory, so a relative PYTHONPATH
    # inherited from the caller would not find the package
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "diskrot.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def _write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_no_command_is_a_usage_error(tmp_path):
    res = _run([], tmp_path)
    assert res.returncode == 2


def test_convergents_command(tmp_path):
    res = _run(["convergents", "--count", "5", "--out", "o"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "2/3" in res.stdout
    with open(tmp_path / "o" / "convergents.json") as f:
        doc = json.load(f)
    assert [c["b"] for c in doc["convergents"]] == [1, 2, 3, 5, 8]


def test_winding_command_with_rigid_config(tmp_path):
    cfg = _write_config(tmp_path, {"family": "rigid", "alpha": "golden"})
    res = _run(
        ["winding", "--config", cfg, "--pairs", "5", "--out", "o"], tmp_path
    )
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "o" / "windings.csv") as f:
        lines = f.read().splitlines()
    assert lines[0] == "x1,y1,x2,y2,W,refinements"
    assert len(lines) == 6
    w = float(lines[1].split(",")[4])
    assert abs(w - 0.6180339887498949) < 1e-12


def test_winding_command_pairs_file_and_cross_check(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"family": "conjugated", "alpha": "golden", "g": {"hamiltonian": "twist-a"}},
    )
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0.5,0.1,-0.2,0.4\n0.3,-0.3,0.1,0.6\n")
    res = _run(
        [
            "winding",
            "--config",
            cfg,
            "--pairs-file",
            str(pairs),
            "--cross-check",
            "--out",
            "o",
        ],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "o" / "winding.json") as f:
        doc = json.load(f)
    assert doc["pairs"] == 2
    assert doc["cross_check_max_deviation"] < 1e-6
    # W is the exact winding, with no time grid to refine, and the
    # cross-check compares W with the tracked deformed isotopy
    iso = from_config(json.loads(Path(cfg).read_text()))
    X, Y = np.array([[0.5, 0.1], [0.3, -0.3]]), np.array([[-0.2, 0.4], [0.1, 0.6]])
    rows = np.loadtxt(tmp_path / "o" / "windings.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 4], pair_windings(iso, X, Y))
    assert not rows[:, 5].any()
    alt = ConjugatedRotation(iso.alpha, iso.g, deform=True)
    assert np.array_equal(rows[:, 6], pair_windings(alt, X, Y))


def test_winding_command_tracks_pairs_once_without_closed_form(tmp_path, monkeypatch):
    # the deformed W and its refinements come from one pair track, and the
    # cross-check against the closed form tracks nothing
    cfg = {"family": "conjugated", "alpha": "golden", "deform": True}
    path = _write_config(tmp_path, cfg)
    calls = []

    def counted(iso, X, Y, *args):
        calls.append((iso.deform, len(X)))
        return _pair_track(iso, X, Y, *args)

    monkeypatch.setattr(cli, "_pair_track", counted)
    monkeypatch.setattr(winding, "_pair_track", counted)
    out = tmp_path / "o"
    argv = ["winding", "--config", path, "--pairs", "7", "--cross-check"]
    assert main(argv + ["--out", str(out)]) == 0
    assert calls == [(True, 7)]
    monkeypatch.undo()
    rows = np.loadtxt(out / "windings.csv", delimiter=",", skiprows=1)
    iso = from_config(cfg)
    X, Y = rows[:, :2], rows[:, 2:4]
    assert np.array_equal(rows[:, 4], pair_windings(iso, X, Y))
    assert np.array_equal(rows[:, 5], _pair_track(iso, X, Y)[1])


def test_cross_check_of_a_deformed_config_is_the_closed_form(tmp_path):
    # the second isotopy of the deformed variant is the plain one
    cfg = {"family": "plane-extension", "alpha": "golden", "beta": 0.9,
           "core": {"family": "conjugated", "alpha": "golden", "deform": True}}
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["winding", "--config", path, "--pairs", "5", "--cross-check", "--out", str(out)]) == 0
    with open(out / "windings.csv") as f:
        assert f.readline().strip() == "x1,y1,x2,y2,W,refinements,W_alt_isotopy"
    rows = np.loadtxt(out / "windings.csv", delimiter=",", skiprows=1)
    iso = from_config(cfg)
    plain = ConjugatedRotation(iso.alpha, iso.g, beta=iso.beta)
    X, Y = rows[:, :2], rows[:, 2:4]
    assert np.array_equal(rows[:, 6], plain.windings_closed_form(X, Y, (1,))[0])
    with open(out / "winding.json") as f:
        dev = json.load(f)["cross_check_max_deviation"]
    assert dev == np.max(np.abs(rows[:, 4] - rows[:, 6])) and dev < 1e-8


class TrackerCalled(AssertionError):
    pass


def _untracked(*args, **kw):
    raise TrackerCalled


CONFIGS = {
    "default": None,
    "rigid": {"family": "rigid", "alpha": "golden"},
    "plane": {"family": "plane-extension", "alpha": "golden", "beta": 0.75},
    "cored": {"family": "plane-extension", "alpha": "golden", "beta": 0.9,
              "core": {"family": "conjugated", "alpha": "golden"}},
}
# each command that takes a config, at a small size
SMALL_RUNS = {
    "winding": ["--pairs", "5"],
    "foliation-check": ["--pairs", "5", "--nmax", "2"],
    "linking": ["--n", "16"],
    "righthand": ["--pairs", "2", "--n", "16"],
    "thm41-bound": ["--n", "2", "--samples", "200"],
    "action": ["--samples", "20"],
    "calabi": ["--samples", "2000"],
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_only_the_deformed_variant_reaches_the_tracker(tmp_path, monkeypatch, name):
    # every family with closed forms runs each command with the tracker gone
    monkeypatch.setattr(winding, "track", _untracked)
    monkeypatch.setattr(winding, "_track", _untracked)
    config = [] if CONFIGS[name] is None else ["--config", _write_config(tmp_path, CONFIGS[name])]
    for command, args in SMALL_RUNS.items():
        out = str(tmp_path / command)
        assert main([command, *config, *args, "--out", out]) == 0, command
    deformed = _write_config(tmp_path, {"family": "conjugated", "alpha": "golden", "deform": True})
    with pytest.raises(TrackerCalled):
        main(["winding", "--config", deformed, "--pairs", "2", "--out", str(tmp_path / "d")])


def test_malformed_pairs_file_exits_2_with_row(tmp_path):
    for body, row in [
        ("0.5,0.1,-0.2,0.4\n0.3,-0.3,0.1\n", ":2:"),
        ("0.5,0.1,-0.2,0.4\n\n0.3,-0.3,x,0.6\n", ":3:"),
        ("0.1,0.2,nan,0.3\n", ":1:"),
        ("0.5,0.1,-0.2,0.4\n0.1,inf,0.2,0.3\n", ":2:"),
    ]:
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(body)
        res = _run(["winding", "--pairs-file", str(pairs), "--out", "o"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "schema error" in res.stderr and row in res.stderr
        assert "Traceback" not in res.stderr


def test_action_and_calabi_commands(tmp_path):
    cfg = _write_config(tmp_path, {"family": "rigid", "alpha": "golden"})
    res = _run(["action", "--config", cfg, "--samples", "20", "--out", "o"], tmp_path)
    assert res.returncode == 0, res.stderr
    res = _run(
        ["calabi", "--config", cfg, "--samples", "1000", "--out", "o"], tmp_path
    )
    assert res.returncode == 0, res.stderr
    with open(tmp_path / "o" / "calabi.json") as f:
        doc = json.load(f)
    assert abs(doc["value"] - doc["boundary_rot"]) < 1e-10


def test_plane_extension_action_is_silent(tmp_path):
    # the README's config: beta = 3/4 is rational, and only alpha must not be
    cfg = _write_config(
        tmp_path, {"family": "plane-extension", "alpha": "golden", "beta": 0.75}
    )
    res = _run(["action", "--samples", "20", "--config", cfg, "--out", "o"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


def test_schema_error_exits_2_with_pointer(tmp_path):
    cfg = _write_config(tmp_path, {"family": "conjugated", "g": {"steps": -1}})
    res = _run(["action", "--config", cfg, "--out", "o"], tmp_path)
    assert res.returncode == 2
    assert "schema error" in res.stderr
    assert "/g/steps" in res.stderr
    # Python's json reads NaN and Infinity, which are not rotation numbers
    for cfg, pointer in [
        ({"family": "rigid", "alpha": math.nan}, "/alpha"),
        ({"family": "plane-extension", "beta": math.inf}, "/beta"),
        ({"family": "conjugated", "g": {"hamiltonian": []}}, "/g/hamiltonian"),
        # a core turning the unit circle by another alpha would jump at r = 1
        (
            {"family": "plane-extension", "alpha": 0.3, "beta": 0.9,
             "core": {"family": "conjugated", "alpha": "golden"}},
            "/core/alpha",
        ),
    ]:
        cfg = _write_config(tmp_path, cfg)
        res = _run(["action", "--config", cfg, "--out", "o"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "schema error" in res.stderr and pointer in res.stderr
        assert "Traceback" not in res.stderr


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = _run(["action", "--config", str(bad), "--out", "o"], tmp_path)
    assert res.returncode == 2
    assert "config error" in res.stderr
    res = _run(["action", "--config", str(tmp_path / "missing.json")], tmp_path)
    assert res.returncode == 2
    # a directory or a file that is not UTF-8 text, for both input flags
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe0,0,0.5,0\n")
    for path in (tmp_path, binary):
        for flag, command in (("--config", "action"), ("--pairs-file", "winding")):
            res = _run([command, flag, str(path), "--out", "o"], tmp_path)
            assert res.returncode == 2, res.stderr
            assert str(path) in res.stderr and "Traceback" not in res.stderr
            assert len(res.stderr.splitlines()) == 1


def test_strip_measure_command(tmp_path):
    res = _run(
        ["strip-measure", "--samples", "20000", "--conv", "2/3", "--out", "o"],
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    with open(tmp_path / "o" / "strip-measure.json") as f:
        doc = json.load(f)
    assert abs(doc["value"] - doc["expected"]) <= 4.0 * doc["stderr"]


def test_computation_failure_exits_1(tmp_path):
    # a convergent on the wrong side of alpha breaks transversality
    res = _run(
        ["strip-measure", "--samples", "2000", "--conv", "1/2", "--out", "o"],
        tmp_path,
    )
    assert res.returncode == 1
    assert "FoliationNotTransverse" in res.stderr


def test_foliation_check_passes_at_seed_3(tmp_path):
    # twist-a, 100 pairs, nmax 32: pair 20's 64-step tracked windings are a
    # whole turn off on 4 iterates (|Lambda - W| 4.06 > 2); the pair
    # windings come from the closed form, which the track cannot spoil
    assert main(["foliation-check", "--seed", "3", "--out", str(tmp_path / "o")]) == 0


def test_verify_all_fast_smoke(tmp_path):
    res = _run(["verify-all", "--fast", "--out", "o"], tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    lines = [l for l in res.stdout.splitlines() if l.startswith("[PASS]")]
    assert len(lines) == 10
    with open(tmp_path / "o" / "verify-all.json") as f:
        doc = json.load(f)
    assert doc["passed"] and doc["fast"]
    assert [c["criterion"] for c in doc["criteria"]] == list(range(1, 11))
    # the run's telemetry lives in a sidecar: seconds and a peak per criterion
    with open(tmp_path / "o" / "run.json") as f:
        run = json.load(f)
    assert [c["criterion"] for c in run["criteria"]] == list(range(1, 11))
    for c in run["criteria"]:
        assert c["seconds"] > 0 and c["peak_rss_mb"] > 0
    peaks = [c["peak_rss_mb"] for c in run["criteria"]]
    assert peaks == sorted(peaks) and run["peak_rss_mb"] >= peaks[-1]
    assert run["seconds"] >= sum(c["seconds"] for c in run["criteria"])
    assert run["argv"] == ["verify-all", "--fast", "--out", "o"]
    assert run["seed"] == 0 and run["fast"] is True
    assert run["diskrot_version"] and run["numpy"] and run["blas"]
    assert isinstance(run["threads"], dict) and run["git_revision"]
    assert "seconds" not in json.dumps(doc) and "peak_rss_mb" not in json.dumps(doc)


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    return capsys.readouterr().err


def test_each_command_takes_only_the_flags_it_reads(capsys):
    for argv in (
        ["verify-all", "--fast", "--samples", "5"],
        ["verify-all", "--pairs", "3"],
        ["mean-action", "--pairs", "3"],
        ["strip-measure", "--n", "3"],
        ["convergents", "--config", "cfg.json"],
    ):
        assert "unrecognized arguments" in _usage_error(argv, capsys), argv


def test_count_defaults_live_in_the_parser():
    defaults = {
        "winding": {"pairs": 100},
        "action": {"samples": 100},
        "calabi": {"samples": 1_000_000},
        "mean-action": {"n": 4096},
        "linking": {"n": 512},
        "righthand": {"pairs": 100, "n": 256},
        "foliation-check": {"pairs": 100, "nmax": 32},
        "strip-measure": {"samples": 1_000_000, "conv": (2, 3)},
        "convergents": {"count": 10},
        "thm41-bound": {"n": 4, "samples": 100_000},
    }
    for command, want in defaults.items():
        args = vars(build_parser().parse_args([command]))
        assert {k: args[k] for k in want} == want, command


def test_counts_must_be_positive(capsys):
    for argv in (
        ["mean-action", "--n", "0"],
        ["mean-action", "--n", "-3"],
        ["righthand", "--pairs", "0"],
        ["foliation-check", "--nmax", "0"],
        ["winding", "--pairs", "0"],
        ["convergents", "--count", "0"],
        ["linking", "--n", "abc"],
    ):
        assert "argument --" in _usage_error(argv, capsys), argv


def test_standard_errors_need_two_samples(capsys):
    for argv in (["strip-measure", "--samples", "1"], ["thm41-bound", "--samples", "1"]):
        assert "need an integer >= 2" in _usage_error(argv, capsys), argv


def test_malformed_alpha_and_convergent_are_usage_errors(capsys):
    for argv in (
        ["strip-measure", "--conv", "2"],
        ["strip-measure", "--conv", "2/0"],
        ["strip-measure", "--conv", "2/4"],
        ["strip-measure", "--alpha", "1.5"],
        ["convergents", "--alpha", "1.5"],
        ["convergents", "--alpha", "abc"],
        ["convergents", "--alpha", "nan"],
        ["strip-measure", "--beta", "nan"],
        ["strip-measure", "--beta", "inf"],
    ):
        assert f"argument {argv[1]}" in _usage_error(argv, capsys), argv
    assert build_parser().parse_args(["convergents", "--alpha", "0.25"]).alpha == 0.25


def test_shared_parser_leaks_nothing_between_calls(tmp_path, monkeypatch, capsys):
    # main() reuses one parser per process; every call in this sequence
    # must give what the same call gives on a freshly built parser
    assert build_parser() is build_parser()
    steps = [
        ["convergents", "--alpha", "0.3", "--count", "3"],
        ["convergents"],
        ["convergents", "--count", "0"],
        ["mean-action", "--n", "8"],
    ]

    def run(argv, where):
        where.mkdir()
        monkeypatch.chdir(where)
        try:
            rc = main([*argv, "--out", "o"])
        except SystemExit as e:
            rc = e.code
        out, err = capsys.readouterr()
        return rc, out, err, {p.name: p.read_bytes() for p in Path("o").glob("*")}

    shared = [run(argv, tmp_path / f"shared{i}") for i, argv in enumerate(steps)]
    assert [rc for rc, *_ in shared] == [0, 0, 2, 0]
    assert "argument --count" in shared[2][2]
    for i, argv in enumerate(steps):
        build_parser.cache_clear()
        assert run(argv, tmp_path / f"fresh{i}") == shared[i], argv
