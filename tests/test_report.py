"""Report artifacts: atomic JSON/CSV output and deterministic charts."""

from __future__ import annotations

import json
import os

from diskrot.ergodic import ConvergenceReport
from diskrot.report import (
    ReportBundle,
    git_revision,
    read_csv,
    svg_line_chart,
    write_chart,
    write_csv,
    write_json,
)


def test_json_roundtrip_and_no_leftover_temp(tmp_path):
    path = tmp_path / "out.json"
    write_json(str(path), {"b": 2, "a": [1.5, None]})
    with open(path) as f:
        assert json.load(f) == {"a": [1.5, None], "b": 2}
    assert [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")] == []


def test_csv_roundtrip_preserves_floats_exactly():
    import tempfile

    rows = [[0.1 + 0.2, 1e-17], [1.0 / 3.0, 123456.789012345]]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "vals.csv")
        write_csv(path, ["a", "b"], rows)
        header, back = read_csv(path)
    assert header == ["a", "b"]
    assert back == rows


def test_svg_chart_is_deterministic(tmp_path):
    xs = [1, 2, 4, 8]
    ys = [0.9, 0.7, 0.65, 0.63]
    one = svg_line_chart(xs, ys, title="t", target=0.618)
    two = svg_line_chart(xs, ys, title="t", target=0.618)
    assert one == two
    assert "<polyline" in one and "stroke-dasharray" in one
    path = tmp_path / "chart.svg"
    write_chart(str(path), xs, ys, title="t", target=0.618)
    assert path.read_text() == one


def test_svg_chart_degenerate_ranges():
    out = svg_line_chart([3.0], [5.0])
    assert out.startswith("<svg")


def test_report_bundle_writes_all_artifacts(tmp_path):
    bundle = ReportBundle(str(tmp_path), "demo", config={"family": "rigid"}, seed=7)
    bundle.add(value=1.25, note="x")
    rep = ConvergenceReport(
        n_values=(1, 2, 4), partial_averages=(0.8, 0.7, 0.66), target=0.618
    )
    bundle.add_convergence("avgs", rep)
    json_path = bundle.write()
    with open(json_path) as f:
        doc = json.load(f)
    assert doc["value"] == 1.25 and doc["seed"] == 7
    assert doc["avgs"]["partial_averages"] == [0.8, 0.7, 0.66]
    for key in ("avgs", "avgs.svg"):
        assert os.path.exists(doc["artifacts"][key])
    header, rows = read_csv(doc["artifacts"]["avgs"])
    assert header == ["n", "partial_average"]
    assert [r[1] for r in rows] == [0.8, 0.7, 0.66]


def test_reports_take_the_mode_the_umask_gives(tmp_path):
    # mkstemp creates 0o600 files; a report is readable as open() makes it
    for mask, mode in ((0o022, 0o644), (0o077, 0o600), (0o002, 0o664)):
        old = os.umask(mask)
        try:
            write_json(str(tmp_path / "r.json"), {"a": 1})
            write_csv(str(tmp_path / "r.csv"), ["a"], [[1.0]])
            write_chart(str(tmp_path / "r.svg"), [1, 2], [0.5, 0.25])
        finally:
            os.umask(old)
        for name in ("r.json", "r.csv", "r.svg"):
            assert os.stat(tmp_path / name).st_mode & 0o777 == mode, (name, oct(mask))


def test_git_revision_reads_head_and_its_ref(tmp_path):
    sha, other = "1" * 40, "2" * 40
    git = tmp_path / ".git"
    assert git_revision(tmp_path) == "unknown"  # not a checkout
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert git_revision(tmp_path) == "unknown"  # a branch with no commit yet
    (git / "packed-refs").write_text(
        f"# pack-refs with: peeled fully-peeled sorted\n{other} refs/heads/dev\n"
        f"{sha} refs/heads/main\n^{other}\n"
    )
    assert git_revision(tmp_path) == sha
    (git / "refs" / "heads" / "main").write_text(f"{other}\n")  # a loose ref wins
    assert git_revision(tmp_path) == other
    (git / "HEAD").write_text(f"{sha}\n")  # detached
    assert git_revision(tmp_path) == sha
