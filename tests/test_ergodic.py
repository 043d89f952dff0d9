"""Birkhoff averages, double-sum engines, and handedness certificates."""

from __future__ import annotations

import math

import numpy as np
import pytest

from diskrot.ergodic import (
    ConvergenceReport,
    EmpiricalMeasure,
    OrbitCache,
    admissibility_check,
    double_sum_incremental,
    double_sum_naive,
    empirical_weak_convergence,
    linearized_rotation_average,
    linking_average,
    mean_action,
    pow2_schedule,
    right_handedness_certificate,
)
from diskrot.action import ActionField
from diskrot.errors import OrbitCollision
from diskrot.geometry import GOLDEN, uniform_disk
from diskrot.maps import ConjugacyMap, ConjugatedRotation, RigidRotation

RIGID = RigidRotation(GOLDEN)
CONJ = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))


def test_pow2_schedule_endpoints():
    assert pow2_schedule(64) == [1, 2, 4, 8, 16, 32, 64]
    assert pow2_schedule(100) == [1, 2, 4, 8, 16, 32, 64, 100]
    assert pow2_schedule(48, start=16) == [16, 32, 48]


def test_convergence_report_verdict():
    rep = ConvergenceReport(
        n_values=(1, 2, 4, 8),
        partial_averages=(0.9, 0.62, 0.618, 0.6181),
        target=GOLDEN,
        tol=0.01,
    )
    assert rep.verdict[0] == "converged"
    assert abs(rep.cauchy_window - 0.002) < 1e-12
    assert rep.defect() == abs(0.6181 - GOLDEN)
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


def test_empirical_invariance_defects_obey_the_bound():
    out = empirical_weak_convergence(CONJ, (0.45, 0.2), [8, 32, 128])
    assert out
    for rec in out.values():
        assert rec["within_bound"]
        assert all(
            d <= b + 1e-12 for d, b in zip(rec["invariance_defects"], rec["bounds"])
        )


def test_empirical_measure_and_orbit_cache():
    mu = EmpiricalMeasure.from_orbit(CONJ, (0.4, 0.3), 50)
    assert abs(mu.integrate(lambda p: np.ones(len(p))) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        EmpiricalMeasure(atoms=np.zeros((2, 2)), weights=np.array([0.7, 0.7]))
    cache = OrbitCache.build(CONJ, (0.4, 0.3), 200)
    assert cache.recheck(CONJ) < 1e-12
