"""diskrot benchmark workloads, output checks and end-to-end metrics.

diskrot is driven as a black box through `diskrot.cli.main(argv)` in this
process.  A run repeats rounds of its workload's commands on inputs derived
from the run's seed until the next round would overrun the measuring
window, and sets the package up afresh before each round (timed as
setup_s).  Every command's report is checked before its clock stops, and
every reported time is scaled to a reference host speed (see "host speed").
A traced run instead times one untraced round and then the same round with
span recording installed (see tracer.py).
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    """CLI commands a round runs, once per input seed of the run.

    Every command also gets --seed <input seed> --out <directory>.  Every
    round of a run repeats the same inputs, so a command's median over the
    rounds is a median of times for the same work.
    """

    commands: tuple
    inputs: int = 1
    fixed_seed: int | None = None

    def input_seeds(self, seed):
        if self.fixed_seed is not None:
            return [self.fixed_seed]
        return [seed * 1000 + j for j in range(self.inputs)]


WORKLOADS = {
    # The acceptance suite is specified at seed 0, and its cost varies by
    # more than half between seeds (18 to 31 s over nine seeds), which no
    # run of affordable length can average out; so acceptance-fast checks
    # the suite at its specified seed and the run seed leaves it unchanged.
    "acceptance-fast": Workload((("verify-all", "--fast"),), fixed_seed=0),
    # One reference point per command, so eight commands a round average
    # the cost of the reference point's position.
    "winding-sweep": Workload((("thm41-bound", "--n", "4", "--samples", "2500"),), inputs=8),
    # The cost of linking differs by a factor of several between input
    # seeds, so a round averages eight; righthand's cost is mostly its
    # seed-independent tangent tracks at the fixed origin.
    "orbit-averages": Workload(
        (
            ("mean-action", "--n", "512"),
            ("linking", "--n", "32"),
            ("righthand", "--pairs", "1", "--n", "16"),
        ),
        inputs=8,
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUPS_PER_ROUND = 5
MIN_ROUNDS = 3

# Float tolerances stated by the acceptance criteria for the same checks:
# criterion 3 (mean action), criterion 4 (linking average) and criterion 5
# (linearized rotation number at the fixed origin).
MEAN_ACTION_TOL = 0.02
LINKING_TOL = 0.05
LINEARIZED_TOL = 1e-6


# ---------------------------------------------------------------- set-up


def _purge_diskrot():
    for name in [m for m in sys.modules if m == "diskrot" or m.startswith("diskrot.")]:
        del sys.modules[name]
    # free the dropped modules now, so that peak memory does not grow with
    # the number of set-ups a run makes
    gc.collect()


def set_up():
    """Import diskrot, build its isotopies and fill its first-call caches.

    Returns (seconds, cli module).  The TwistStep potential cache is filled
    through the closed-form action of each named conjugacy, and the
    Gauss-Legendre node cache through one path-integral action.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    _purge_diskrot()
    t0 = time.perf_counter()
    diskrot = importlib.import_module("diskrot")
    cli = importlib.import_module("diskrot.cli")
    for mod in ("verify", "report", "quadrature"):
        importlib.import_module(f"diskrot.{mod}")
    for name in ("twist-a", "twist-b", "twist-c"):
        iso = diskrot.from_config({**cli.DEFAULT_CONFIG, "g": {"hamiltonian": name}})
        iso.action_closed_form(np.array([0.5, 0.1]))
    diskrot.ActionField(diskrot.RigidRotation(diskrot.GOLDEN), method="path").action(
        np.array([0.3, 0.2])
    )
    elapsed = time.perf_counter() - t0
    if not Path(diskrot.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"diskrot imported from {diskrot.__file__}, not from {SRC}")
    return elapsed, cli


# ---------------------------------------------------------------- checks


def _skeleton(obj, path=""):
    """(path, value) of every integer and boolean in a report, seeds aside."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            if key != "seed":
                yield from _skeleton(obj[key], f"{path}/{key}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _skeleton(v, f"{path}/{i}")
    elif isinstance(obj, (bool, int)):
        yield path, obj


def skeleton_digest(report):
    """Digest of a report's integer outputs: sample counts, iterate
    schedules, violation counts, exactness flags and verdicts."""
    text = json.dumps(list(_skeleton(report)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def command_key(template):
    return " ".join(template)


def _load(out, name, failures):
    path = out / f"{name}.json"
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        failures.append(f"{path.name}: unreadable report ({e})")
        return None


def _check_verify_all(rep, failures):
    got = [c.get("criterion") for c in rep.get("criteria", [])]
    if got != list(range(1, 11)):
        failures.append(f"verify-all: criteria {got}, expected 1..10")
    for c in rep.get("criteria", []):
        if c.get("passed") is not True:
            failures.append(f"verify-all: criterion {c.get('criterion')} failed")
    if rep.get("passed") is not True:
        failures.append("verify-all: suite verdict is not passed")


def _check_thm41(rep, failures):
    if rep.get("within_bound") is not True or not rep["gap"] <= rep["bound"]:
        failures.append(f"thm41-bound: gap {rep.get('gap')} exceeds bound {rep.get('bound')}")
    if not math.isfinite(rep.get("winding_integral", math.nan)):
        failures.append("thm41-bound: winding integral is not finite")


def _check_series(rep, name, failures):
    """The CSV series and chart on disk must carry the report's averages."""
    from diskrot.report import read_csv

    conv = rep["partial_averages"]
    arts = rep.get("artifacts", {})
    try:
        _, rows = read_csv(arts["partial_averages"])
    except (KeyError, OSError, ValueError) as e:
        failures.append(f"{name}: series CSV unreadable ({e})")
        return
    if [r[0] for r in rows] != conv["n_values"] or [r[1] for r in rows] != conv["partial_averages"]:
        failures.append(f"{name}: series CSV differs from the report")
    if not Path(arts.get("partial_averages.svg", "")).is_file():
        failures.append(f"{name}: chart SVG missing")


def _check_converges(rep, name, tol, failures):
    target = rep["partial_averages"]["target"]
    if not abs(rep["final"] - target) < tol:
        failures.append(f"{name}: final {rep['final']} not within {tol} of {target}")
    _check_series(rep, name, failures)


def _check_mean_action(rep, failures):
    _check_converges(rep, "mean-action", MEAN_ACTION_TOL, failures)


def _check_linking(rep, failures):
    _check_converges(rep, "linking", LINKING_TOL, failures)


def _check_righthand(rep, failures):
    if rep.get("mode") != "right" or not rep["min_S"] > 0 or not rep["tangent_average"] > 0:
        failures.append(
            f"righthand: mode {rep.get('mode')}, min_S {rep.get('min_S')}, "
            f"tangent average {rep.get('tangent_average')}"
        )
    alpha = rep["config"]["alpha"]
    if not abs(rep["linearized_rotation"] - alpha) < LINEARIZED_TOL:
        failures.append(f"righthand: linearized rotation {rep['linearized_rotation']} != {alpha}")


CHECKS = {
    "verify-all": _check_verify_all,
    "thm41-bound": _check_thm41,
    "mean-action": _check_mean_action,
    "linking": _check_linking,
    "righthand": _check_righthand,
}


def check_command(template, out, rc, digests):
    """Failures of one command: exit code, its checks and its digest."""
    failures = []
    if rc != 0:
        failures.append(f"{template[0]}: exit code {rc}")
    rep = _load(Path(out), template[0], failures)
    if rep is None:
        return failures
    try:
        CHECKS[template[0]](rep, failures)
    except (KeyError, TypeError) as e:
        failures.append(f"{template[0]}: report lacks {e!r}")
    expected = digests.get(command_key(template))
    got = skeleton_digest(rep)
    if got != expected:
        failures.append(f"{template[0]}: integer digest {got}, expected {expected}")
    return failures


# ---------------------------------------------------------------- host speed

# The shared host this benchmark was built on changes speed by up to about
# 30% for tens of seconds to minutes at a time, so whole runs land at one
# speed or another.  A round therefore also times a fixed yardstick
# computation at every line its commands print, and every time a run
# reports is scaled by YARDSTICK_REF_S / (the round's mean yardstick time
# on the same clock).  The mean, not the median: within a round the host
# may switch speed several times, and the mean follows the share of the
# round spent at each speed where the median snaps to one of them.  The yardstick shares no code with diskrot, so
# a change to the program moves the scaled times as it moves the measured
# ones.  Pure interpreter work followed the speed changes of diskrot's
# commands more closely than yardsticks made of numpy calls did.
# YARDSTICK_REF_S is about the yardstick's time on that host.
YARDSTICK_REF_S = 0.02


def yardstick_pass():
    """(wall, CPU) seconds of a fixed piece of pure interpreter work."""
    w0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - w0, time.process_time() - c0


# ---------------------------------------------------------------- rounds


class LineClock(io.StringIO):
    """Captured output of one command, with a (wall, CPU) clock.

    Whenever a line ends the clock notes the time, then (with gauge on)
    times one yardstick pass, which it leaves out of every time it notes.
    """

    def __init__(self, gauge):
        super().__init__()
        self.gauge = gauge
        self.marks, self.yards = [], []
        self._skipped = (0.0, 0.0)

    def now(self):
        return time.perf_counter() - self._skipped[0], time.process_time() - self._skipped[1]

    def write(self, s):
        if "\n" in s:
            w, c = time.perf_counter(), time.process_time()
            sw, sc = self._skipped
            self.marks.append((w - sw, c - sc))
            if self.gauge:
                self.yards.append(yardstick_pass())
                self._skipped = (sw + time.perf_counter() - w, sc + time.process_time() - c)
        return super().write(s)


def run_command(cli, argv, out):
    """Run one CLI command in-process with its output captured in out;
    returns its exit code."""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:
            traceback.print_exc(file=out)
            rc = None
    return rc


def run_round(cli, workload, seed, out, digests, gauge=True):
    """One pass over the workload's commands and inputs, each command timed
    together with the check of its output.  A command's time is also split
    into parts at the lines it prints (verify-all prints one a criterion).
    With gauge on, the round's "scale" holds YARDSTICK_REF_S over its
    mean yardstick time, for each clock."""
    out = Path(out)
    shutil.rmtree(out, ignore_errors=True)
    records, yards = [], []
    for j, input_seed in enumerate(workload.input_seeds(seed)):
        for template in workload.commands:
            argv = [*template, "--seed", str(input_seed), "--out", str(out / f"input-{j}")]
            clock = LineClock(gauge)
            start = clock.now()
            rc = run_command(cli, argv, clock)
            failures = check_command(template, out / f"input-{j}", rc, digests)
            marks = [start, *clock.marks, clock.now()]
            text = clock.getvalue()
            if failures and text:
                failures.append(text[-2000:])
            record = {"argv": argv, "rc": rc, "failures": failures}
            for k, key in enumerate(("wall", "cpu")):
                record[f"{key}_s"] = marks[-1][k] - marks[0][k]
                record[f"{key}_parts"] = [b[k] - a[k] for a, b in zip(marks, marks[1:])]
            records.append(record)
            yards += clock.yards
    rnd = {
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "commands": records,
        "yards": yards,
    }
    if gauge:
        rnd["scale"] = {
            key: YARDSTICK_REF_S / statistics.fmean(y[k] for y in yards)
            for k, key in enumerate(("wall", "cpu"))
        }
    return rnd


def typical_round(rounds, key):
    """Round time ("wall" or "cpu"), scaled to the reference speed, with
    each part of each command at its median over the rounds.

    A burst of contention on a shared host that slows one criterion of one
    verify-all pass then moves only that criterion's median.  A command
    whose number of parts differs between rounds counts at the median of
    its whole times.
    """
    scales = [r["scale"][key] for r in rounds]
    total = 0.0
    for cmds in zip(*(r["commands"] for r in rounds)):
        parts = [[t * k for t in c[f"{key}_parts"]] for c, k in zip(cmds, scales)]
        if len({len(p) for p in parts}) == 1:
            total += sum(statistics.median(times) for times in zip(*parts))
        else:
            total += statistics.median(c[f"{key}_s"] * k for c, k in zip(cmds, scales))
    return total


def _failed(rounds):
    return sum(1 for r in rounds for c in r["commands"] if c["failures"])


def _attempted(rounds):
    return sum(len(r["commands"]) for r in rounds)


# ---------------------------------------------------------------- metadata


def _git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def metadata(name, seed, seconds, trace, workload):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    diskrot = sys.modules.get("diskrot")
    return {
        "workload": name,
        "seed": seed,
        "input_seeds": workload.input_seeds(seed),
        "commands": [list(c) for c in workload.commands],
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_cap": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "git_revision": _git_revision(),
        "diskrot_version": getattr(diskrot, "__version__", None),
    }


# ---------------------------------------------------------------- runs


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(name, seed, seconds, trace, workload=None, out_root=OUT):
    """Run one benchmark; returns (result for the last stdout line, record)."""
    workload = workload or WORKLOADS[name]
    digests = json.loads(DIGESTS.read_text())
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    work = out_root / name
    setups = []

    def set_up_cli():
        # set-ups before every round sample the machine's speed as the
        # rounds do, which drifts on this scale on a shared host
        for _ in range(SETUPS_PER_ROUND):
            dt, cli = set_up()
            setups.append(dt)
        return cli

    record = {}
    if not trace:
        rounds = []
        t_start = time.perf_counter()
        while True:
            rounds.append(run_round(set_up_cli(), workload, seed, work / "round", digests))
            typical = statistics.median(r["wall_s"] for r in rounds)
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() - t_start + typical > seconds:
                break
        # set-ups run right before their round and share its scale
        scaled_setups = [
            dt * rounds[i // SETUPS_PER_ROUND]["scale"]["wall"] for i, dt in enumerate(setups)
        ]
        metrics = {
            "wall_s": typical_round(rounds, "wall"),
            "cpu_s": typical_round(rounds, "cpu"),
            "setup_s": statistics.median(scaled_setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["measured"] = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "yardstick_s": statistics.median(y[0] for r in rounds for y in r["yards"]),
        }
        units = END_TO_END_UNITS
        if name == "winding-sweep":
            # n iterates of M Monte Carlo pairs per thm41-bound command
            (cmd,) = workload.commands
            n, m = int(cmd[cmd.index("--n") + 1]), int(cmd[cmd.index("--samples") + 1])
            record["pair_iterates_per_s"] = n * m * workload.inputs / metrics["wall_s"]
    else:
        # no yardstick passes here: they would land in the spans of the
        # commands that print
        plain = run_round(set_up_cli(), workload, seed, work / "untraced", digests, gauge=False)
        cli = set_up_cli()
        tr = tracer.Tracer()
        tr.install()
        try:
            traced = run_round(cli, workload, seed, work / "traced", digests, gauge=False)
        finally:
            tr.uninstall()
        rounds = [plain, traced]
        metrics, self_total = tracer.layer_metrics(tr, traced["wall_s"], plain["wall_s"])
        units = tracer.PER_LAYER_UNITS
        record.update(
            traced_wall_s=traced["wall_s"],
            spans=len(tr.start),
            self_total_s=self_total,
            missing_entry_points=tr.missing,
        )
        tr.save(out_root / f"spans-{name}.npz")

    record.update(meta=metadata(name, seed, seconds, trace, workload), setup_s=setups)
    attempted, failed = _attempted(rounds), _failed(rounds)
    record.update(rounds=rounds, metrics=metrics, attempted=attempted, failed=failed)
    record["fail_ratio"] = failed / attempted
    with open(out_root / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(record, f, indent=1)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: _metric(metrics[k], u) for k, u in units.items()},
    }, record
