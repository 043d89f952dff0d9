"""Self-tests of the benchmark, at toy sizes.

    python3 -m pytest -q perfbench/selftest.py

The file is named so that a bare `pytest` run of the repository does not
collect it; name it on the command line to run it.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import bench
import tracer

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

# acceptance-fast has no smaller size than the --fast suite itself
TOY = {
    "winding-sweep": bench.Workload((("thm41-bound", "--n", "2", "--samples", "200"),), inputs=2),
    "orbit-averages": bench.Workload(
        (
            ("mean-action", "--n", "64"),
            ("linking", "--n", "16"),
            ("righthand", "--pairs", "1", "--n", "16"),
        )
    ),
}


@pytest.fixture(autouse=True)
def _keep_diskrot_modules():
    # the benchmark's set-up re-imports diskrot; give other tests theirs back
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "diskrot"}
    yield
    bench._purge_diskrot()
    sys.modules.update(saved)


def test_spec_names_match_the_benchmark_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(TOY))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result, record = bench.run(name, 3, 0.0, False, workload=TOY[name], out_root=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == bench.MIN_ROUNDS * len(record["rounds"][0]["commands"])
    assert list(result["metrics"]) == list(bench.END_TO_END_UNITS)
    for m in result["metrics"].values():
        assert m["unit"] and m["value"] > 0
    assert len(record["setup_s"]) == bench.SETUPS_PER_ROUND * len(record["rounds"])
    meta = {"nproc", "python", "numpy", "blas", "thread_cap", "git_revision", "seed", "commands"}
    assert meta <= set(record["meta"])


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    result, record = bench.run(name, 3, 0.0, True, workload=TOY[name], out_root=tmp_path)
    assert result["correct"]
    assert list(result["metrics"]) == list(tracer.PER_LAYER_UNITS)
    assert all(m["unit"] for m in result["metrics"].values())
    assert record["spans"] > 0
    assert 0 < record["self_total_s"] <= record["traced_wall_s"]
    assert (tmp_path / f"spans-{name}.npz").is_file()


def test_typical_round_takes_each_scaled_part_at_its_median():
    def command(parts):
        return {"wall_s": sum(parts), "wall_parts": parts}

    rounds = [
        {"scale": {"wall": 1.0}, "commands": [command([1.0, 5.0]), command([2.0])]},
        # a burst in one part
        {"scale": {"wall": 1.0}, "commands": [command([9.0, 4.0]), command([3.0])]},
        # a round at half the reference speed
        {"scale": {"wall": 0.5}, "commands": [command([2.4, 8.4]), command([5.0])]},
    ]
    assert bench.typical_round(rounds, "wall") == pytest.approx(1.2 + 4.2 + 2.5)
    # a command whose parts differ between rounds counts at its median whole time
    rounds[2]["commands"][0] = command([2.4, 8.0, 0.4])
    assert bench.typical_round(rounds, "wall") == pytest.approx(6.0 + 2.5)


def test_line_clock_leaves_yardstick_passes_out():
    clock = bench.LineClock(gauge=True)
    start = clock.now()
    for _ in range(3):
        print("a line", file=clock)
    assert len(clock.marks) == len(clock.yards) == 3
    assert clock.now()[0] - start[0] < 0.5 * sum(wall for wall, _ in clock.yards)


def _corrupt(path, edit):
    rep = json.loads(path.read_text())
    edit(rep)
    path.write_text(json.dumps(rep))


def test_corrupted_outputs_are_failures(tmp_path):
    digests = json.loads(bench.DIGESTS.read_text())
    _, cli = bench.set_up()
    wl = TOY["winding-sweep"]
    rnd = bench.run_round(cli, wl, 5, tmp_path, digests)
    assert bench._failed([rnd]) == 0
    out = tmp_path / "input-0"
    template = wl.commands[0]
    assert bench.check_command(template, out, 0, digests) == []
    assert bench.check_command(template, out, 1, digests) != []

    # a false verdict, and an integer output that differs from the digest
    _corrupt(out / "thm41-bound.json", lambda r: r.update(within_bound=False))
    assert any("gap" in f for f in bench.check_command(template, out, 0, digests))
    _corrupt(out / "thm41-bound.json", lambda r: r.update(within_bound=True, n=3))
    assert any("digest" in f for f in bench.check_command(template, out, 0, digests))

    wl = TOY["orbit-averages"]
    bench.run_round(cli, wl, 5, tmp_path, digests)
    csv = out / "mean-action-partial_averages.csv"
    rows = csv.read_text().splitlines()
    rows[1] = "1,0.5"
    csv.write_text("\n".join(rows) + "\n")
    assert any("CSV" in f for f in bench.check_command(wl.commands[0], out, 0, digests))
    (out / "linking.json").unlink()
    assert bench.check_command(wl.commands[1], out, 0, digests) != []


def test_acceptance_fast_round_checks_every_verdict(tmp_path):
    digests = json.loads(bench.DIGESTS.read_text())
    _, cli = bench.set_up()
    wl = bench.WORKLOADS["acceptance-fast"]
    rnd = bench.run_round(cli, wl, 11, tmp_path, digests)
    assert rnd["commands"][0]["argv"][-3] == "0"  # the suite's specified seed
    assert bench._failed([rnd]) == 0
    # one part per criterion, then the report line, then the check
    assert len(rnd["commands"][0]["wall_parts"]) == 12
    out = tmp_path / "input-0"

    def fail_criterion_6(rep):
        rep["criteria"][5]["passed"] = False

    _corrupt(out / "verify-all.json", fail_criterion_6)
    failures = bench.check_command(wl.commands[0], out, 0, digests)
    assert any("criterion 6 failed" in f for f in failures)


def test_refuses_to_run_without_diskrot_sources(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "winding-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
