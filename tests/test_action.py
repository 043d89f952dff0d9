"""Action fields, the primitive one-form, and the Calabi invariant."""

from __future__ import annotations

import numpy as np
import pytest

from diskrot import action
from diskrot.action import PATH_TOL, ActionField, action_winding_gap, beta, calabi
from diskrot.errors import OutsideDomain
from diskrot.geometry import GOLDEN, TWOPI, as_xy, uniform_disk
from diskrot.maps import ConjugacyMap, ConjugatedRotation, PlaneExtension, RigidRotation
from test_maps import PLANES, Concatenation, plane_points

CONJ = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))


def exterior_derivative_density(form, pts, h=1e-4):
    """Finite-difference d(form) at pts, as a multiple of dx ^ dy.

    Computed from the circulation of the one-form around a small
    axis-aligned square; equals 1/pi for any primitive of omega.
    """
    pts = as_xy(pts)
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    # midpoint rule on each edge of the square [0,h]^2 anchored at pts
    circ = (
        form(pts + 0.5 * ex, ex)
        + form(pts + ex + 0.5 * ey, ey)
        - form(pts + 0.5 * ex + ey, ex)
        - form(pts + 0.5 * ey, ey)
    )
    return circ / (h * h)


def test_default_primitive_has_unit_exterior_derivative():
    pts = uniform_disk(np.random.default_rng(0), 50, 0.9)
    dens = exterior_derivative_density(beta, pts)
    assert np.max(np.abs(dens - 1.0 / np.pi)) < 1e-6


def test_rigid_action_is_the_rotation_number():
    field = ActionField(RigidRotation(GOLDEN), method="path")
    pts = uniform_disk(np.random.default_rng(2), 100)
    assert np.max(np.abs(field.action(pts) - GOLDEN)) < 1e-8
    assert abs(field.action((0.4, -0.3)) - GOLDEN) < 1e-8


def test_closed_form_action_matches_path_integrals():
    # twist-b with three sub-steps and a smaller support: a geometry none
    # of the named defaults builds
    twist_b = ConjugatedRotation(
        GOLDEN, ConjugacyMap.from_named("twist-b", repeats=3, support_radius=0.6)
    )
    pts = uniform_disk(np.random.default_rng(3), 10, 0.95)
    for iso in (CONJ, twist_b):
        a_cf = ActionField(iso).action(pts)
        a_path = ActionField(iso, method="path").action(pts)
        assert np.max(np.abs(a_cf - a_path)) < 1e-7


@pytest.mark.parametrize("name", sorted(PLANES))
def test_radial_closed_form_action_matches_path_integrals(name):
    # a_T varies with r on the band, so the path route checks the radial
    # part too: points on both sides of r = 1, within the domain r <= R
    # (a radial path past R meets the jump of p' there, which the adaptive
    # panels cannot certify)
    iso = PLANES[name]
    pts = plane_points(iso, np.random.default_rng(9), 40)
    pts = pts[np.hypot(*pts.T) <= iso.domain_radius]
    a_cf = ActionField(iso).action(pts)
    assert np.ptp(a_cf) > 0.1
    # the path route is certified to PATH_TOL only; on these points it
    # lies within 2.5e-10 of the closed form (within 1e-15 without a core)
    assert np.max(np.abs(a_cf - ActionField(iso, method="path").action(pts))) < 1e-9


@pytest.mark.parametrize("method", ["auto", "path"])
def test_points_outside_the_domain_are_rejected(method):
    # just past a plane's R, where the path route's panels cannot certify the
    # jump of p', and at r = 5 off the unit disk, where the closed form
    # answered; the error names the first such point of the batch
    plane = PlaneExtension(GOLDEN, 0.75)
    R = plane.domain_radius
    for iso, far in ((plane, (R + 1e-3, 0.0)), (CONJ, (3.0, -4.0))):
        pts = np.array([[0.1, 0.2], far, [0.3, 0.0], [0.0, 6.0]])
        with pytest.raises(OutsideDomain, match=r"point 1 \(") as err:
            ActionField(iso, method=method).action(pts)
        assert repr(far[0]) in str(err.value)
        # the index counts the points of a batch of any shape in flat order
        with pytest.raises(OutsideDomain, match=r"point 2 \(0\.0, 6\.0\)"):
            ActionField(iso, method=method).action(pts[[0, 2, 3, 1]].reshape(2, 2, 2))
    # the boundary itself is in the domain
    on = np.array([[R, 0.0]])
    assert np.array_equal(ActionField(plane, method=method).action(on), ActionField(plane).action(on))


def test_action_is_anchor_independent():
    # the action from a chord to a different boundary anchor is the same
    field = ActionField(CONJ, method="path")
    pts = uniform_disk(np.random.default_rng(4), 5, 0.9)
    base = field.action(pts)
    for anchor in (0.7, 2.9):
        x0 = np.array([np.cos(anchor), np.sin(anchor)])
        via = field.boundary_value(np.array([anchor]))[0] + field._segment_integral(x0, pts)
        assert np.max(np.abs(via - base)) < 1e-6


def test_calabi_of_rigid_rotation_is_exact():
    res = calabi(ActionField(RigidRotation(GOLDEN)), samples=1000, seed=0)
    assert abs(res.value - GOLDEN) < 1e-12
    assert res.stderr < 1e-12


def test_calabi_of_conjugated_rotation_is_the_rotation_number():
    strat = calabi(ActionField(CONJ), samples=200_000, seed=0)
    assert abs(strat.value - GOLDEN) < 4.0 * max(strat.stderr, 1e-6)
    assert strat.to_dict()["method"] == "stratified"


def test_iterated_action_adds_boundary_rotations():
    pts = uniform_disk(np.random.default_rng(6), 200, 0.95)
    closed = CONJ.action_closed_form(pts, 3)
    summed = ActionField(CONJ).action(CONJ.orbit(pts, 3)).sum(0)
    # away from the conjugacy support the action is the boundary constant
    outside = np.hypot(pts[:, 0], pts[:, 1]) > 0.86
    assert outside.any()
    assert np.max(np.abs(closed[outside] - 3 * GOLDEN)) < 1e-12
    assert np.max(np.abs(summed[outside] - 3 * GOLDEN)) < 1e-12


class _FaultyClosedForm(RigidRotation):
    def action_closed_form(self, pts, n=1):
        raise AttributeError("fault inside the closed form")


def test_closed_form_hook_none_takes_the_path_route_and_errors_propagate():
    # every family of the package answers the hook, so a reference isotopy
    # without one stands in: the plane extension run as a Concatenation
    plane = Concatenation(PlaneExtension(GOLDEN, 0.75), 1)
    pts = uniform_disk(np.random.default_rng(7), 5, 0.9)
    assert plane.action_closed_form(pts) is None
    auto = ActionField(plane).action(pts)
    assert np.array_equal(auto, ActionField(plane, method="path").action(pts))
    with pytest.raises(AttributeError, match="fault inside"):
        ActionField(_FaultyClosedForm(GOLDEN)).action(pts)


@pytest.mark.parametrize("name", ["twist-a", "twist-b", "twist-c"])
def test_action_winding_gap_action_is_the_closed_form_of_f_n(name):
    iso = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named(name))
    x = np.array([0.4, 0.2])
    ns = (1, 4, 16)
    rows = action_winding_gap(ActionField(iso), x, ns, 200, np.random.default_rng(5))
    for n, row in zip(ns, rows):
        assert abs(row["action_n"] - iso.action_closed_form(x, n)) < 1e-12


def test_action_winding_gap_action_matches_the_concatenated_path_integral():
    cored = PlaneExtension(GOLDEN, 0.9, core=CONJ)
    x = np.array([0.3, -0.5])
    ns = (1, 4)
    rows = action_winding_gap(ActionField(cored), x, ns, 200, np.random.default_rng(5))
    for n, row in zip(ns, rows):
        reference = ActionField(Concatenation(cored, n)).action(x)
        assert abs(row["action_n"] - reference) < (n + 1) * PATH_TOL


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


@pytest.mark.parametrize(
    "iso",
    [
        RigidRotation(GOLDEN),
        ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-b", repeats=3)),
        ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"), deform=True),
        PlaneExtension(GOLDEN, 0.9, core=CONJ),
    ],
    ids=["rigid", "twist-b-steps-3", "deformed", "plane-cored"],
)
def test_pullback_defect_writes_out_the_jacobian_vector_product(iso):
    # the path route's call shape: a (P, 16) block of points on P segments
    # and one (P, 1) direction per segment
    rng = np.random.default_rng(8)
    radius = getattr(iso, "domain_radius", 1.0)
    pts = uniform_disk(rng, 40 * 16, radius).reshape(40, 16, 2)
    v = rng.standard_normal((40, 1, 2))
    got = ActionField(iso).pullback_defect(pts, v)
    assert got.shape == (40, 16)
    f, J = iso.eval(1.0, pts), iso.jac(1.0, pts)
    px, py, vx, vy = pts[..., 0], pts[..., 1], v[..., 0], v[..., 1]
    jx = J[..., 0, 0] * vx + J[..., 0, 1] * vy
    jy = J[..., 1, 0] * vx + J[..., 1, 1] * vy
    reference = (f[..., 0] * jy - f[..., 1] * jx) / TWOPI - (px * vy - py * vx) / TWOPI
    assert np.array_equal(got, reference)
    # the stacked matmul rounds its sums its own way: 1e-15 relative to
    # |J v|, whose twist Jacobians reach entries of a few hundred
    stacked = (J @ np.broadcast_to(v, pts.shape)[..., None])[..., 0]
    scale = np.maximum(1.0, np.hypot(stacked[..., 0], stacked[..., 1]))
    assert np.all(np.abs(got - (beta(f, stacked) - beta(pts, v))) <= 1e-15 * scale)


def test_chunked_actions_equal_one_batch(monkeypatch):
    # both routes go through one _CHUNK loop; the closed form works point by
    # point, so a chunk boundary inside the batch changes no bit
    pts = uniform_disk(np.random.default_rng(19), 10, 0.95)
    whole = CONJ.action_closed_form(pts)
    path = ActionField(CONJ, method="path")
    one_batch = path.action(pts)
    per_chunk = np.concatenate([path.action(pts[lo : lo + 4]) for lo in (0, 4, 8)])
    monkeypatch.setattr(action, "_CHUNK", 4)
    sizes = []
    closed_form = CONJ.action_closed_form

    def counted(z):
        sizes.append(len(z))
        return closed_form(z)

    monkeypatch.setattr(CONJ, "action_closed_form", counted)
    field = ActionField(CONJ)
    assert np.array_equal(field.action(pts), whole)
    assert sizes == [4, 4, 2]
    assert np.array_equal(field.action(pts.reshape(5, 2, 2)), whole.reshape(5, 2))
    assert field.action(pts[9]) == whole[9]
    # the boundary integrals of a chunk share one Gauss-Legendre reduction
    # (a BLAS product over the chunk), whose last bit depends on the chunk's
    # width: the path route equals its chunks and the one batch to an ulp
    assert np.array_equal(path.action(pts), per_chunk)
    assert np.max(np.abs(per_chunk - one_batch)) <= 1e-15
