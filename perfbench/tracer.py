"""Span recorder for the traced benchmark run.

The tracer wraps diskrot's entry points from outside the package: each
function is replaced in its defining module and in every diskrot module
(or module-level tuple or dict) that holds it by name, and each method is
replaced on its class.  Every call records one span: name, start, end,
parent span, a point count read from the argument shapes, an auxiliary
count read from the arguments or the result, and whether it raised.

Spans are kept in memory in flat typed arrays (about 45 bytes a span; a
traced acceptance-fast round records about a million) and written once at
the end.  Per-layer metrics are derived from them afterwards: a span's self
time is its duration minus the durations of its direct child spans, which
are disjoint because the program is single-threaded.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np


def _npts(x):
    """Number of 2-vectors in a (..., 2) array or a point pair."""
    try:
        return x.size >> 1
    except AttributeError:
        return int(np.size(x)) >> 1


def _getter(fn, name):
    """(args, kwargs) -> value of the named parameter of fn."""
    params = list(inspect.signature(fn).parameters.values())
    idx = [p.name for p in params].index(name)
    default = params[idx].default

    def get(args, kwargs):
        return args[idx] if len(args) > idx else kwargs.get(name, default)

    return get


# Counters: a factory takes the wrapped function and returns
# count(args, kwargs, result) -> int, read after the call returns.


def points_of(name):
    """Point count of the named array argument."""

    def make(fn):
        get = _getter(fn, name)
        return lambda a, k, r: _npts(get(a, k))

    return make


def value_of(name):
    """Integer value of the named argument."""

    def make(fn):
        get = _getter(fn, name)
        return lambda a, k, r: int(get(a, k))

    return make


def _pair_count(fn):
    gx, gy = _getter(fn, "X"), _getter(fn, "Y")
    return lambda a, k, r: max(_npts(gx(a, k)), _npts(gy(a, k)))


def _matrix_entries(fn):
    gx, gy = _getter(fn, "xs"), _getter(fn, "ys")
    return lambda a, k, r: _npts(gx(a, k)) * _npts(gy(a, k))


def _per_entry_times(fn):
    # eval(t, pts) with an array of times is the per-entry (bisection) form
    get = _getter(fn, "t")
    return lambda a, k, r: int(np.ndim(get(a, k)) > 0)


def _moved_rows(fn):
    get = _getter(fn, "pts")
    return lambda a, k, r: int(np.count_nonzero(np.any(r != get(a, k), axis=-1)))


def _naive_entries(fn):
    get = _getter(fn, "n")
    return lambda a, k, r: int(get(a, k)) ** 2


def _incremental_entries(fn):
    get = _getter(fn, "schedule")
    return lambda a, k, r: int(max(get(a, k))) ** 2


def _track_samples(fn):
    return lambda a, k, r: int(r[1].size)


def _passed(fn):
    return lambda a, k, r: int(bool(r["passed"]))


def _bytes(fn):
    get = _getter(fn, "data")

    def count(a, k, r):
        data = get(a, k)
        return len(data.encode() if isinstance(data, str) else data)

    return count


# (module, attribute path, span name, points counter, aux counter).  A
# "*.eval" / "*.jac" path means that method on every Isotopy subclass that
# defines it.  The span name's prefix is the layer.
ENTRY_POINTS = (
    ("geometry", "radii_of", "geometry.radii", points_of("pts"), None),
    ("maps", "*.eval", "maps.eval", points_of("pts"), _per_entry_times),
    ("maps", "*.jac", "maps.jac", points_of("pts"), None),
    ("maps", "TwistStep.apply", "maps.twist", points_of("pts"), _moved_rows),
    ("maps", "ConjugacyMap.inverse", "maps.conj_inverse", points_of("pts"), None),
    ("maps", "ConjugacyMap.forward", "maps.conj_forward", points_of("pts"), None),
    ("maps", "Isotopy.orbit", "maps.orbit", points_of("pts"), value_of("n")),
    ("winding", "pair_windings", "winding.pair", _pair_count, None),
    ("winding", "winding_matrix", "winding.matrix", _matrix_entries, None),
    ("winding", "winding_tangent", "winding.tangent", None, None),
    ("winding", "position_angle_tracks", "winding.track", points_of("pts"), None),
    ("action", "ActionField.action", "action.action", points_of("pts"), None),
    ("action", "ActionField.pullback_defect", "action.defect", points_of("pts"), None),
    ("action", "calabi", "action.calabi", value_of("samples"), None),
    ("quadrature", "adaptive_segments", "quadrature.segments", value_of("count"), None),
    ("quadrature", "adaptive_gl", "quadrature.gl", None, None),
    ("ergodic", "mean_action", "ergodic.mean_action", None, None),
    ("ergodic", "linking_average", "ergodic.linking", None, None),
    ("ergodic", "right_handedness_certificate", "ergodic.certificate", None, None),
    ("ergodic", "linearized_rotation_average", "ergodic.linearized", None, None),
    ("ergodic", "admissibility_check", "ergodic.admissibility", None, None),
    ("ergodic", "double_sum_naive", "ergodic.double_sum", None, _naive_entries),
    ("ergodic", "double_sum_incremental", "ergodic.double_sum", None, _incremental_entries),
    ("foliation", "_leaf_tracks", "foliation.leaf_tracks", points_of("pts"), _track_samples),
    ("foliation", "_lift_path", "foliation.lift", None, None),
    ("foliation", "annulus_table", "foliation.annulus", None, None),
    ("foliation", "displacement_table", "foliation.displacement", None, None),
    ("farey", "rotation_of_measure", "farey.rotation", value_of("samples"), None),
    ("farey", "product_integral_winding", "farey.product", value_of("samples"), None),
    ("farey", "strip_measure", "farey.strip", value_of("samples"), None),
    *(
        ("verify", f"criterion_{i}", f"verify.criterion_{i}", None, _passed)
        for i in range(1, 11)
    ),
    ("cli", "cmd_*", "cli.command", None, None),
    ("report", "ReportBundle.write", "report.bundle", None, None),
    ("report", "write_json", "report.json", None, None),
    ("report", "write_csv", "report.csv", None, None),
    ("report", "write_chart", "report.chart", None, None),
    ("report", "_atomic_write", "report.file", None, _bytes),
)

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "maps.eval_calls": "count",
    "maps.eval_points": "points",
    "maps.eval_mean_batch": "points",
    "maps.eval_small_call_ratio": "ratio",
    "maps.eval_self_s": "s",
    "maps.jac_calls": "count",
    "maps.jac_points": "points",
    "maps.jac_self_s": "s",
    "maps.twist_calls": "count",
    "maps.twist_points": "points",
    "maps.twist_self_s": "s",
    "maps.twist_points_per_s": "points/s",
    "maps.twist_bytes_computed": "B",
    "maps.twist_useful_ratio": "ratio",
    "maps.conj_inverse_points": "points",
    "maps.conj_forward_points": "points",
    "maps.orbit_calls": "count",
    "maps.orbit_steps": "count",
    "maps.orbit_self_s": "s",
    "geometry.radii_calls": "count",
    "geometry.radii_self_s": "s",
    "winding.pair_calls": "count",
    "winding.pairs": "count",
    "winding.pair_self_s": "s",
    "winding.pair_evals_per_pair": "points",
    "winding.bisect_points": "points",
    "winding.bisect_ratio": "ratio",
    "winding.matrix_calls": "count",
    "winding.matrix_entries": "count",
    "winding.matrix_self_s": "s",
    "winding.matrix_fallback_pairs": "count",
    "winding.tangent_calls": "count",
    "winding.tangent_jac_points": "points",
    "winding.tangent_self_s": "s",
    "winding.track_calls": "count",
    "winding.track_eval_points": "points",
    "winding.track_self_s": "s",
    "action.calls": "count",
    "action.points": "points",
    "action.path_points": "points",
    "action.self_s": "s",
    "action.calabi_self_s": "s",
    "quadrature.segments_calls": "count",
    "quadrature.integrands": "count",
    "quadrature.defect_points": "points",
    "quadrature.gl_calls": "count",
    "quadrature.self_s": "s",
    "ergodic.mean_action_calls": "count",
    "ergodic.linking_calls": "count",
    "ergodic.certificate_calls": "count",
    "ergodic.collisions": "count",
    "ergodic.double_sum_entries": "count",
    "ergodic.double_sum_self_s": "s",
    "ergodic.admissibility_self_s": "s",
    "ergodic.self_s": "s",
    "foliation.leaf_tracks_calls": "count",
    "foliation.leaf_track_samples": "count",
    "foliation.leaf_tracks_self_s": "s",
    "foliation.lift_calls": "count",
    "foliation.lift_self_s": "s",
    "foliation.annulus_calls": "count",
    "foliation.annulus_retrack_ratio": "ratio",
    "foliation.displacement_calls": "count",
    "foliation.self_s": "s",
    "farey.rotation_points": "points",
    "farey.product_pairs": "count",
    "farey.strip_points": "points",
    "farey.self_s": "s",
    **{f"verify.criterion_{i}_s": "s" for i in range(1, 11)},
    "verify.passed": "count",
    "cli.command_s": "s",
    "report.files_written": "count",
    "report.bytes_written": "B",
    "report.write_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Installs span-recording wrappers on diskrot and removes them again."""

    def __init__(self):
        self.span_names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self.aux = array("q")
        self.err = array("b")
        self._stack = [-1]
        self._undo = []
        self.missing = []

    def _name_id(self, span):
        if span not in self._ids:
            self._ids[span] = len(self.span_names)
            self.span_names.append(span)
        return self._ids[span]

    def _wrap(self, fn, span, points_factory, aux_factory):
        nid = self._name_id(span)
        points = points_factory(fn) if points_factory else None
        aux = aux_factory(fn) if aux_factory else None
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        pts, auxs, errs, stack = self.points, self.aux, self.err, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            pts.append(0)
            auxs.append(0)
            errs.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errs[sid] = 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if points:
                pts[sid] = points(args, kwargs, result)
            if aux:
                auxs[sid] = aux(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, orig, wrapped):
        # every diskrot module that imported orig by name, plus module-level
        # tuples (verify.ALL_CRITERIA) and dicts (cli._COMMANDS) holding it
        for modname, mod in list(sys.modules.items()):
            if modname != "diskrot" and not modname.startswith("diskrot."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapped)
                elif type(value) is tuple and any(v is orig for v in value):
                    self._set(mod, attr, tuple(wrapped if v is orig else v for v in value))
                elif type(value) is dict and any(v is orig for v in value.values()):
                    for key, v in value.items():
                        if v is orig:
                            self._undo.append((value, key, orig))
                            value[key] = wrapped

    def _targets(self, mod, path):
        """(owner, attribute, function) triples an entry path names."""
        head, _, method = path.partition(".")
        if head == "*":
            base = mod.Isotopy
            return [
                (cls, method, vars(cls)[method])
                for cls in vars(mod).values()
                if isinstance(cls, type) and issubclass(cls, base)
                and cls is not base and method in vars(cls)
            ]
        if head.endswith("*"):
            return [
                (None, name, fn)
                for name, fn in vars(mod).items()
                if name.startswith(head[:-1]) and inspect.isfunction(fn)
            ]
        if method:
            cls = getattr(mod, head, None)
            fn = vars(cls).get(method) if cls is not None else None
            return [(cls, method, fn)] if fn is not None else []
        fn = getattr(mod, head, None)
        return [(None, head, fn)] if inspect.isfunction(fn) else []

    def install(self):
        for modname, path, span, points, aux in ENTRY_POINTS:
            mod = importlib.import_module(f"diskrot.{modname}")
            targets = self._targets(mod, path)
            if not targets:
                self.missing.append(f"{modname}.{path}")
            for owner, attr, fn in targets:
                wrapped = self._wrap(fn, span, points, aux)
                if owner is None:
                    self._replace_function(fn, wrapped)
                else:
                    self._set(owner, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if type(owner) is dict:
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "points": np.frombuffer(self.points, dtype=np.int64),
            "aux": np.frombuffer(self.aux, dtype=np.int64),
            "err": np.frombuffer(self.err, dtype=np.int8),
        }

    def save(self, path):
        np.savez(path, span_names=np.array(self.span_names), **self.arrays())


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer, traced_wall_s, untraced_wall_s):
    """Per-layer metrics of one traced round, plus self-time totals.

    Returns (metrics {name: value}, self time summed over all spans).
    """
    a = tracer.arrays()
    name, parent, points, aux, err = a["name"], a["parent"], a["points"], a["aux"], a["err"]
    dur = a["end"] - a["start"]
    n = len(dur)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    none = len(tracer.span_names)
    pname = np.full(n, none)
    pname[has_parent] = name[parent[has_parent]]
    ids = {s: i for i, s in enumerate(tracer.span_names)}

    def sel(span):
        return name == ids.get(span, -1)

    def under(span, parent_span):
        return sel(span) & (pname == ids.get(parent_span, -1))

    def layer(prefix):
        return np.isin(name, [i for s, i in ids.items() if s.startswith(prefix + ".")])

    def count(mask):
        return int(np.count_nonzero(mask))

    def total(values, mask):
        return float(values[mask].sum())

    ev, jac, tw, orb = sel("maps.eval"), sel("maps.jac"), sel("maps.twist"), sel("maps.orbit")
    pair, mat, tan, trk = (
        sel("winding.pair"), sel("winding.matrix"), sel("winding.tangent"), sel("winding.track")
    )
    pair_ev = under("maps.eval", "winding.pair")
    act, dfc, cal = sel("action.action"), sel("action.defect"), sel("action.calabi")
    quad = layer("quadrature")
    quad_parents = np.zeros(n, dtype=bool)
    quad_parents[parent[quad & has_parent]] = True
    dsum, adm = sel("ergodic.double_sum"), sel("ergodic.admissibility")
    leaf, lift, ann = sel("foliation.leaf_tracks"), sel("foliation.lift"), sel("foliation.annulus")
    rep = layer("report")

    m = {
        "maps.eval_calls": count(ev),
        "maps.eval_points": total(points, ev),
        "maps.eval_mean_batch": _ratio(total(points, ev), count(ev)),
        "maps.eval_small_call_ratio": _ratio(count(ev & (points <= 2)), count(ev)),
        "maps.eval_self_s": total(self_t, ev),
        "maps.jac_calls": count(jac),
        "maps.jac_points": total(points, jac),
        "maps.jac_self_s": total(self_t, jac),
        "maps.twist_calls": count(tw),
        "maps.twist_points": total(points, tw),
        "maps.twist_self_s": total(self_t, tw),
        "maps.twist_points_per_s": _ratio(total(points, tw), total(dur, tw)),
        "maps.twist_bytes_computed": 32.0 * total(points, tw),
        "maps.twist_useful_ratio": _ratio(total(aux, tw), total(points, tw)),
        "maps.conj_inverse_points": total(points, sel("maps.conj_inverse")),
        "maps.conj_forward_points": total(points, sel("maps.conj_forward")),
        "maps.orbit_calls": count(orb),
        "maps.orbit_steps": total(aux, orb),
        "maps.orbit_self_s": total(self_t, orb),
        "geometry.radii_calls": count(sel("geometry.radii")),
        "geometry.radii_self_s": total(self_t, sel("geometry.radii")),
        "winding.pair_calls": count(pair),
        "winding.pairs": total(points, pair),
        "winding.pair_self_s": total(self_t, pair),
        "winding.pair_evals_per_pair": _ratio(total(points, pair_ev), total(points, pair)),
        "winding.bisect_points": total(points, pair_ev & (aux == 1)),
        "winding.bisect_ratio": _ratio(total(points, pair_ev & (aux == 1)), total(points, pair_ev)),
        "winding.matrix_calls": count(mat),
        "winding.matrix_entries": total(points, mat),
        "winding.matrix_self_s": total(self_t, mat),
        "winding.matrix_fallback_pairs": total(points, under("winding.pair", "winding.matrix")),
        "winding.tangent_calls": count(tan),
        "winding.tangent_jac_points": total(points, under("maps.jac", "winding.tangent")),
        "winding.tangent_self_s": total(self_t, tan),
        "winding.track_calls": count(trk),
        "winding.track_eval_points": total(points, under("maps.eval", "winding.track")),
        "winding.track_self_s": total(self_t, trk),
        "action.calls": count(act),
        "action.points": total(points, act),
        "action.path_points": total(points, act & quad_parents),
        "action.self_s": total(self_t, act | dfc),
        "action.calabi_self_s": total(self_t, cal),
        "quadrature.segments_calls": count(sel("quadrature.segments")),
        "quadrature.integrands": total(points, sel("quadrature.segments")),
        "quadrature.defect_points": total(points, dfc),
        "quadrature.gl_calls": count(sel("quadrature.gl")),
        "quadrature.self_s": total(self_t, quad),
        "ergodic.mean_action_calls": count(sel("ergodic.mean_action")),
        "ergodic.linking_calls": count(sel("ergodic.linking")),
        "ergodic.certificate_calls": count(sel("ergodic.certificate")),
        "ergodic.collisions": count(adm & (err == 1)),
        "ergodic.double_sum_entries": total(aux, dsum),
        "ergodic.double_sum_self_s": total(self_t, dsum),
        "ergodic.admissibility_self_s": total(self_t, adm),
        "ergodic.self_s": total(self_t, layer("ergodic")),
        "foliation.leaf_tracks_calls": count(leaf),
        "foliation.leaf_track_samples": total(aux, leaf),
        "foliation.leaf_tracks_self_s": total(self_t, leaf),
        "foliation.lift_calls": count(lift),
        "foliation.lift_self_s": total(self_t, lift),
        "foliation.annulus_calls": count(ann),
        "foliation.annulus_retrack_ratio": _ratio(
            count(under("foliation.leaf_tracks", "foliation.annulus")), count(ann)
        ),
        "foliation.displacement_calls": count(sel("foliation.displacement")),
        "foliation.self_s": total(self_t, layer("foliation")),
        "farey.rotation_points": total(points, sel("farey.rotation")),
        "farey.product_pairs": total(points, sel("farey.product")),
        "farey.strip_points": total(points, sel("farey.strip")),
        "farey.self_s": total(self_t, layer("farey")),
        **{
            f"verify.criterion_{i}_s": total(dur, sel(f"verify.criterion_{i}"))
            for i in range(1, 11)
        },
        "verify.passed": total(aux, layer("verify")),
        "cli.command_s": total(dur, sel("cli.command")),
        "report.files_written": count(sel("report.file")),
        "report.bytes_written": total(aux, sel("report.file")),
        "report.write_s": total(self_t, rep),
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
    }
    return m, float(self_t.sum())
