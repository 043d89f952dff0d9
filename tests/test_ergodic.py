"""Birkhoff averages, double-sum engines, and handedness certificates."""

from __future__ import annotations

import numpy as np
import pytest

from diskrot import ergodic
from diskrot.ergodic import (
    ConvergenceReport,
    admissibility_check,
    double_sum_incremental,
    double_sum_naive,
    linearized_rotation_average,
    linking_average,
    linking_samples,
    mean_action,
    pow2_schedule,
    right_handedness_certificate,
)
from diskrot.action import ActionField
from diskrot.errors import OrbitCollision, ResampleExhausted
from diskrot.geometry import GOLDEN, uniform_disk
from diskrot.maps import ConjugacyMap, ConjugatedRotation, PlaneExtension, RigidRotation
from diskrot.winding import pair_windings

RIGID = RigidRotation(GOLDEN)
CONJ = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))


def test_pow2_schedule_endpoints():
    assert pow2_schedule(64) == [1, 2, 4, 8, 16, 32, 64]
    assert pow2_schedule(100) == [1, 2, 4, 8, 16, 32, 64, 100]


def test_convergence_report_verdict():
    rep = ConvergenceReport(
        n_values=(1, 2, 4, 8),
        partial_averages=(0.9, 0.62, 0.618, 0.6181),
        target=GOLDEN,
    )
    assert rep.verdict[0] == "converged"
    assert abs(rep.cauchy_window - 0.002) < 1e-12
    with pytest.raises(ValueError):
        ConvergenceReport(n_values=(2, 1), partial_averages=(0.0, 0.0))


def test_incremental_double_sum_is_bit_exact():
    rng = np.random.default_rng(0)
    W = rng.standard_normal((100, 100)) * 1e3
    schedule = [1, 2, 3, 5, 8, 13, 21, 50, 100]
    inc = double_sum_incremental(W, schedule)
    for val, n in zip(inc, schedule):
        assert val == double_sum_naive(W, n)


def test_admissibility_check_flags_collisions():
    X = np.array([[0.1, 0.2], [0.5, 0.5]])
    Y = np.array([[0.3, 0.3], [0.5, 0.5 + 1e-12]])
    with pytest.raises(OrbitCollision) as err:
        admissibility_check(X, Y)
    assert (err.value.i, err.value.j) == (1, 1)
    assert admissibility_check(X[:1], Y[:1]) > 0.1


def test_blocked_admissibility_check_keeps_the_full_square_answers():
    # 100 columns put X's rows in blocks of 655, so row 2900 lies in the last
    rng = np.random.default_rng(3)
    X, Y = uniform_disk(rng, 3000, 0.95), uniform_disk(rng, 100, 0.95)
    full = np.hypot(X[:, None, 0] - Y[None, :, 0], X[:, None, 1] - Y[None, :, 1])
    assert admissibility_check(X, Y) == full.min()
    Y[17] = X[2900] + [1e-13, 0.0]
    with pytest.raises(OrbitCollision) as err:
        admissibility_check(X, Y)
    assert (err.value.i, err.value.j) == (2900, 17)


def test_mean_action_of_rigid_rotation_is_constant():
    rep = mean_action(ActionField(RIGID, method="path"), (0.4, 0.1), 64)
    assert max(abs(v - GOLDEN) for v in rep.partial_averages) < 1e-8
    assert rep.target == GOLDEN


def test_batched_mean_action_equals_single_points():
    field = ActionField(CONJ)
    xs = uniform_disk(np.random.default_rng(4), 5, 0.95)
    reports = mean_action(field, xs, 128)
    assert len(reports) == 5
    for x, rep in zip(xs, reports):
        assert rep.partial_averages == mean_action(field, x, 128).partial_averages


def test_linking_average_rigid_is_exact():
    rep = linking_average(RIGID, (0.5, 0.0), (-0.3, 0.45), 32)
    assert max(abs(v - GOLDEN) for v in rep.partial_averages) < 1e-12


def test_linking_average_conjugated_converges():
    rep = linking_average(CONJ, (0.55, 0.1), (-0.32, 0.41), 128)
    assert abs(rep.final - GOLDEN) < 0.05


@pytest.mark.parametrize("name", ["twist-a", "twist-b", "twist-c"])
def test_orbit_windings_closed_form_match_the_orbit_winding_matrix(name):
    iso = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named(name))
    x, y = np.array([0.55, 0.1]), np.array([-0.32, 0.41])
    W = iso.orbit_windings_closed_form(x, y, 64)
    X, Y = iso.orbit(x, 64), iso.orbit(y, 64)
    want = pair_windings(iso, X[:, None], Y[None, :])
    assert W.shape == (64, 64)
    # the matrix route applies g^-1 to the orbit points, which rounds
    assert np.max(np.abs(W - want)) < 1e-12


def test_linking_average_tracks_where_there_is_no_closed_form():
    x, y = np.array([0.55, 0.1]), np.array([-0.32, 0.41])
    deformed = ConjugatedRotation(GOLDEN, CONJ.g, deform=True)
    assert deformed.orbit_windings_closed_form(x, y, 16) is None
    X, Y = deformed.orbit(x, 16), deformed.orbit(y, 16)
    W = pair_windings(deformed, X[:, None], Y[None, :])
    want = double_sum_incremental(W, pow2_schedule(16))
    assert linking_average(deformed, x, y, 16).partial_averages == tuple(want)
    # and the closed form's averages agree with the tracked ones
    closed = linking_average(CONJ, x, y, 16).partial_averages
    assert np.max(np.abs(np.subtract(closed, want))) < 1e-12


@pytest.mark.parametrize("radii", [(0.5, 1.14), (1.05, 1.2)])
def test_linking_average_on_a_plane_band_matches_the_tracked_deformed_plane(radii):
    # one orbit inside r = 1 and one on the band, then two on the band at
    # different radii: the radial closed form against the tracked isotopy
    plane = PlaneExtension(GOLDEN, 0.9, core=CONJ)
    deformed = PlaneExtension(GOLDEN, 0.9, core=ConjugatedRotation(GOLDEN, CONJ.g, deform=True))
    assert 1.0 < radii[1] < plane.domain_radius
    x, y = radii[0] * np.array([1.0, 0.0]), radii[1] * np.array([-0.6, 0.8])
    closed = linking_average(plane, x, y, 16).partial_averages
    tracked = linking_average(deformed, x, y, 16).partial_averages
    assert np.max(np.abs(np.subtract(closed, tracked))) < 1e-9


def _draws(seed):
    """A seeded draw of pairs whose third draw is a pair of equal points."""
    rng, calls = np.random.default_rng(seed), []

    def draw():
        calls.append(1)
        pair = uniform_disk(rng, 2, 0.95)
        return pair[[0, 0]] if len(calls) == 3 else pair

    return rng, calls, draw


@pytest.mark.parametrize("deform", [False, True])
def test_batched_linking_samples_equal_the_per_pair_loop(deform):
    iso = ConjugatedRotation(GOLDEN, CONJ.g, deform=deform)
    rng, calls, draw = _draws(5)
    got = linking_samples(iso, draw, 4, 16)
    ref_rng, ref_calls, ref_draw = _draws(5)
    want = []
    while len(want) < 4:
        try:
            want.append(linking_average(iso, *ref_draw(), 16))
        except OrbitCollision:
            pass
    # the colliding third draw is skipped, and one more is drawn in its place
    assert len(calls) == len(ref_calls) == 5
    assert [r.partial_averages for r in got] == [r.partial_averages for r in want]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_linearized_rotation_average_rigid():
    avg, vals = linearized_rotation_average(RIGID, 8)
    assert abs(avg - GOLDEN) < 1e-12
    assert max(abs(v - GOLDEN) for v in vals) < 1e-12


def test_right_handedness_certificate_smoke():
    cert = right_handedness_certificate(CONJ, pair_samples=5, n=32, seed=0)
    assert cert["mode"] == "right"
    assert cert["min_S"] > 0.0
    assert abs(cert["linearized_rotation"] - GOLDEN) < 1e-6


def test_left_handed_mode_for_reversed_rotation():
    iso = RigidRotation(-GOLDEN)
    cert = right_handedness_certificate(iso, pair_samples=3, n=16, seed=1)
    assert cert["mode"] == "left"
    assert cert["max_S"] < 0.0


def test_certificate_stops_redrawing_colliding_pairs(monkeypatch):
    draws = []

    def collide(X, Y):
        draws.append(1)
        raise OrbitCollision("orbits pass within merge_eps")

    monkeypatch.setattr(ergodic, "admissibility_check", collide)
    with pytest.raises(ResampleExhausted):
        right_handedness_certificate(RIGID, pair_samples=3, n=4, seed=0)
    # 3 pairs wanted, at most 8 draws per pair
    assert len(draws) == 24
