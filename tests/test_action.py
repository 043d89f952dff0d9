"""Action fields, primitive one-forms, and the Calabi invariant."""

from __future__ import annotations

import numpy as np

from diskrot.action import (
    ActionField,
    PrimitiveOneForm,
    action_winding_gap,
    calabi,
    exterior_derivative_density,
)
from diskrot.geometry import GOLDEN, uniform_disk
from diskrot.maps import ConjugacyMap, ConjugatedRotation, IteratedIsotopy, RigidRotation

CONJ = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))


def test_default_primitive_has_unit_exterior_derivative():
    pts = uniform_disk(np.random.default_rng(0), 50, 0.9)
    dens = exterior_derivative_density(PrimitiveOneForm(), pts)
    assert np.max(np.abs(dens - 1.0 / np.pi)) < 1e-6


def test_gauged_primitive_keeps_the_density():
    beta = PrimitiveOneForm().plus_dh(
        lambda z: 0.3 * z[..., 0] * z[..., 1],
        lambda z: 0.3 * np.stack([z[..., 1], z[..., 0]], axis=-1),
    )
    pts = uniform_disk(np.random.default_rng(1), 50, 0.9)
    dens = exterior_derivative_density(beta, pts)
    assert np.max(np.abs(dens - 1.0 / np.pi)) < 1e-6


def test_rigid_action_is_the_rotation_number():
    field = ActionField(RigidRotation(GOLDEN), method="path")
    pts = uniform_disk(np.random.default_rng(2), 100)
    assert np.max(np.abs(field.action(pts) - GOLDEN)) < 1e-8
    assert abs(field.action((0.4, -0.3)) - GOLDEN) < 1e-8


def test_closed_form_action_matches_path_integrals():
    auto = ActionField(CONJ)
    path = ActionField(CONJ, method="path", path_tol=1e-9)
    pts = uniform_disk(np.random.default_rng(3), 10, 0.95)
    a_cf = auto.action(pts)
    a_path = path.action(pts)
    assert np.max(np.abs(a_cf - a_path)) < 1e-7


def test_action_is_anchor_independent():
    field = ActionField(CONJ, method="path")
    pts = uniform_disk(np.random.default_rng(4), 5, 0.9)
    base = field.action(pts)
    for anchor in (0.7, 2.9):
        assert np.max(np.abs(field.action_via(anchor, pts) - base)) < 1e-6


def test_gauge_change_shifts_the_action_by_the_coboundary():
    # with beta' = beta + dh the action moves by h(f z) - h(z)
    def h(z):
        return 0.2 * (z[..., 0] ** 2 - z[..., 1]) + 0.1 * z[..., 0] * z[..., 1]

    def grad_h(z):
        gx = 0.4 * z[..., 0] + 0.1 * z[..., 1]
        gy = 0.1 * z[..., 0] - 0.2 * np.ones_like(z[..., 1])
        return np.stack([gx, gy], axis=-1)

    beta2 = PrimitiveOneForm().plus_dh(h, grad_h)
    f1 = ActionField(CONJ, method="path")
    f2 = ActionField(CONJ, beta=beta2, method="path")
    pts = uniform_disk(np.random.default_rng(5), 5, 0.9)
    shift = h(CONJ.map(pts)) - h(pts)
    assert np.max(np.abs(f2.action(pts) - f1.action(pts) - shift)) < 1e-6


def test_calabi_of_rigid_rotation_is_exact():
    res = calabi(ActionField(RigidRotation(GOLDEN)), samples=1000, seed=0)
    assert abs(res.value - GOLDEN) < 1e-12
    assert res.stderr < 1e-12


def test_calabi_estimators_agree():
    field = ActionField(CONJ)
    strat = calabi(field, samples=200_000, seed=0)
    gauss = calabi(field, samples=40_000, seed=0, method="gauss")
    assert abs(strat.value - GOLDEN) < 4.0 * max(strat.stderr, 1e-6)
    assert abs(gauss.value - strat.value) < 4.0 * strat.stderr + gauss.stderr


def test_iterated_action_adds_boundary_rotations():
    field = ActionField(IteratedIsotopy(CONJ, 3))
    pts = uniform_disk(np.random.default_rng(6), 200, 0.95)
    a = field.action(pts)
    # away from the conjugacy support the action is the boundary constant
    outside = np.hypot(pts[:, 0], pts[:, 1]) > 0.86
    assert outside.any()
    assert np.max(np.abs(a[outside] - 3 * GOLDEN)) < 1e-12


def test_action_winding_gap_within_bound():
    field = ActionField(CONJ)
    rng = np.random.default_rng(0)
    (res,) = action_winding_gap(field, (0.4, 0.2), [2], 2000, rng)
    assert res["within_bound"]
    assert res["gap"] <= res["bound"]


def test_action_winding_gap_rows_are_prefixes_of_one_pass():
    # the rows of several n from one call equal single-n calls exactly
    field = ActionField(CONJ)
    ns = (1, 2, 4)
    x = (0.4, 0.2)
    rows = action_winding_gap(field, x, ns, 500, np.random.default_rng(3))
    for n, row in zip(ns, rows):
        (single,) = action_winding_gap(field, x, [n], 500, np.random.default_rng(3))
        assert row == single
