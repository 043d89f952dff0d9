"""Report bundles: atomic JSON/CSV emission and minimal SVG line charts,
and the run metadata of a sidecar file.

Charts are a pure function of the CSV series, so regenerating one from
its data file reproduces it byte for byte.  Run metadata (version, git
revision, numpy and BLAS, thread variables, peak memory) goes to a
sidecar next to a report, never into it, so reports stay comparable
byte for byte between runs.
"""
from __future__ import annotations

import csv
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np


def _atomic_write(path, data):
    """Write via a sibling temp file and rename, so readers never see a
    partial artifact.  The file gets the mode open() would give it, 0o666
    less the umask, not mkstemp's 0o600."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
        mask = os.umask(0)  # os reads the umask only by setting it
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _plain(obj):
    # numpy scalars and arrays leak into report dicts from the verifiers
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def git_revision(root=None):
    """The commit checked out at `root` (by default the checkout holding
    src/diskrot, when the package runs from one), read from .git/HEAD and
    the ref it names, loose or in packed-refs; "unknown" outside a
    checkout, and in a linked worktree or submodule, whose .git is a file.  Reading the files takes a fraction of the milliseconds a git
    process would."""
    root = Path(__file__).resolve().parents[2] if root is None else Path(root)
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # a detached HEAD holds the commit itself
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    """The process's peak resident set so far (ru_maxrss), in MB; None
    where the platform has no `resource` module (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def run_metadata():
    """What a run ran on: package version, git revision, Python, numpy and
    its BLAS, and the *_THREADS variables."""
    from . import __version__

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 only prints its build configuration
        blas = {}
    return {
        "diskrot_version": __version__,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def write_json(path, obj):
    _atomic_write(
        path, json.dumps(obj, indent=2, sort_keys=True, default=_plain) + "\n"
    )


def write_csv(path, header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
    _atomic_write(path, buf.getvalue())


def read_csv(path):
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r)
        rows = [[float(v) for v in row] for row in r]
    return header, rows


WIDTH, HEIGHT = 640, 400


def svg_line_chart(xs, ys, title="", target=None):
    """A minimal WIDTH x HEIGHT polyline chart; deterministic text output."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    pad = 50
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if target is not None:
        y0, y1 = min(y0, target), max(y1, target)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    # a little headroom so the polyline is not glued to the frame
    yr = y1 - y0
    y0, y1 = y0 - 0.05 * yr, y1 + 0.05 * yr

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (WIDTH - 2 * pad)

    def sy(y):
        return HEIGHT - pad - (y - y0) / (y1 - y0) * (HEIGHT - 2 * pad)

    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<rect x="{pad}" y="{pad}" width="{WIDTH - 2 * pad}" '
        f'height="{HEIGHT - 2 * pad}" fill="none" stroke="black"/>',
        f'<text x="{pad}" y="{HEIGHT - pad + 16}" font-family="monospace" '
        f'font-size="11">{x0:.6g}</text>',
        f'<text x="{WIDTH - pad}" y="{HEIGHT - pad + 16}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{x1:.6g}</text>',
        f'<text x="{pad - 4}" y="{sy(ys[0]):.0f}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{ys[0]:.6g}</text>',
    ]
    if target is not None:
        parts.append(
            f'<line x1="{pad}" y1="{sy(target):.2f}" x2="{WIDTH - pad}" '
            f'y2="{sy(target):.2f}" stroke="gray" stroke-dasharray="4 3"/>'
        )
    parts.append(f'<polyline points="{pts}" fill="none" stroke="blue"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(path, xs, ys, title="", target=None):
    _atomic_write(path, svg_line_chart(xs, ys, title=title, target=target))


class ReportBundle:
    """Collects a JSON report, CSV series, and charts for one command."""

    def __init__(self, out_dir, name, config=None, seed=None):
        self.out_dir = out_dir
        self.name = name
        self.report = {"command": name, "config": config, "seed": seed}
        self.series = {}

    def add(self, **fields):
        self.report.update(fields)

    def add_series(self, key, header, rows, chart=None):
        self.series[key] = (header, rows, chart)

    def add_convergence(self, key, report):
        self.report[key] = report.to_dict()
        rows = list(zip(report.n_values, report.partial_averages))
        self.add_series(
            key,
            ["n", "partial_average"],
            rows,
            chart={"title": key, "target": report.target},
        )

    def write(self):
        paths = {}
        for key, (header, rows, chart) in self.series.items():
            csv_path = os.path.join(self.out_dir, f"{self.name}-{key}.csv")
            write_csv(csv_path, header, rows)
            paths[key] = csv_path
            if chart is not None:
                svg_path = os.path.join(self.out_dir, f"{self.name}-{key}.svg")
                xs = [r[0] for r in rows]
                ys = [r[1] for r in rows]
                write_chart(
                    svg_path, xs, ys, title=chart.get("title", key),
                    target=chart.get("target"),
                )
                paths[key + ".svg"] = svg_path
        self.report["artifacts"] = paths
        json_path = os.path.join(self.out_dir, f"{self.name}.json")
        write_json(json_path, self.report)
        return json_path
