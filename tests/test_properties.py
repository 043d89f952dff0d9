"""Property tests of the invariants the paper relies on: area preservation,
exact inverses, winding symmetry, the lambda and action cocycles, and batched
values equal to one-at-a-time values."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diskrot.action import PATH_TOL, ActionField
from diskrot.ergodic import double_sum_incremental
from diskrot.foliation import annulus_table, displacements, lambda_int
from diskrot.geometry import GOLDEN
from diskrot.maps import ConjugacyMap, ConjugatedRotation, PlaneExtension, RigidRotation
from diskrot.winding import _pair_track, pair_windings, pair_windings_iterated
from test_maps import ONE, PLANES, Concatenation, _kernel, uncropped

G = ConjugacyMap.from_named("twist-b")
CONJ = ConjugatedRotation(GOLDEN, G)
# exact windings, and the same map's tracked second isotopy
TWIST_A = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))
TWIST_A_TRACKED = ConjugatedRotation(GOLDEN, TWIST_A.g, deform=True)
# a cored plane, whose closed-form actions the path route checks
CORED = PlaneExtension(GOLDEN, 0.75, core=CONJ)

FEW = settings(max_examples=10, deadline=None)


def _disk_points(count, r_min=0.0, r_max=0.95):
    polar = st.tuples(st.floats(r_min, r_max), st.floats(0.0, 2.0 * np.pi))
    return st.lists(polar, min_size=count, max_size=count).map(
        lambda rt: np.array([[r * np.cos(t), r * np.sin(t)] for r, t in rt])
    )


# every family whose linking sums have a closed form: twist cores, and planes
# with and without one
LINKING = {
    "rigid": RigidRotation(GOLDEN),
    **{h: ConjugatedRotation(GOLDEN, ConjugacyMap.from_named(h)) for h in ("twist-a", "twist-b", "twist-c")},
    **PLANES,
    "cored-twist-b": CORED,
}


@FEW
@given(
    st.sampled_from(sorted(LINKING)),
    st.integers(1, 32),
    _disk_points(1, r_min=0.05, r_max=0.9),
    st.floats(0.05, 0.95),
    st.floats(0.0, 2.0 * np.pi),
)
def test_border_sums_equal_double_sums_of_the_orbit_windings(name, n, x, s, theta):
    iso = LINKING[name]
    # y out on a plane's band, x inside the unit disk, where p = alpha
    R = iso.domain_radius
    y = (1.0 + s * (R - 1.0) if R > 1.0 else s) * np.array([np.cos(theta), np.sin(theta)])
    ns = list(range(1, n + 1))
    sums = iso.linking_closed_form(x, y[None], ns)[:, 0]
    want = double_sum_incremental(iso.orbit_windings_closed_form(x[0], y, n), ns)
    assert np.max(np.abs(sums / np.square(ns) - want)) < 1e-12


@FEW
@given(_disk_points(8), st.floats(0.0, 1.0))
def test_jacobians_have_unit_determinant(pts, t):
    assert np.max(np.abs(np.linalg.det(ONE.jac_forward(pts, scale=t)) - 1.0)) < 1e-12
    assert np.max(np.abs(np.linalg.det(CONJ.jac(t, pts)) - 1.0)) < 1e-10


@FEW
@given(_disk_points(8), st.floats(0.0, 1.0))
def test_conjugacy_inverse_undoes_forward(pts, scale):
    assert np.max(np.abs(G.inverse(G.forward(pts, scale), scale) - pts)) < 1e-12


@FEW
@given(
    _disk_points(16, r_max=1.0),
    st.floats(-1.0, 1.0),
    st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16),
)
def test_culled_kernels_equal_the_uncropped_formulas(pts, scale, per_entry):
    for s in (scale, np.array(per_entry)):
        for name in ("forward", "inverse", "jac_forward", "jac_inverse", "generating"):
            got = _kernel(G, name)(pts, s)
            assert np.array_equal(got, uncropped(G, name, pts, s)), name


@FEW
@given(_disk_points(6), _disk_points(6))
def test_winding_is_symmetric(X, Y):
    assume(np.hypot(*(Y - X).T).min() > 1e-3)
    assert np.max(np.abs(_pair_track(CONJ, X, Y)[0] - _pair_track(CONJ, Y, X)[0])) < 1e-12
    assert np.max(np.abs(pair_windings(CONJ, X, Y) - pair_windings(CONJ, Y, X))) < 1e-12


@FEW
@given(_disk_points(6), _disk_points(6))
def test_exact_windings_are_symmetric_and_match_the_deformed_track(X, Y):
    assume(np.hypot(*(Y - X).T).min() > 1e-3)
    exact = pair_windings(TWIST_A, X, Y)
    assert np.max(np.abs(exact - pair_windings(TWIST_A, Y, X))) < 1e-12
    assert np.max(np.abs(exact - pair_windings(TWIST_A_TRACKED, X, Y))) < 1e-8


@FEW
@given(
    _disk_points(4),
    _disk_points(4),
    st.sampled_from([TWIST_A, CONJ]),
    st.integers(1, 8),
    st.integers(1, 8),
)
def test_cumulative_windings_are_additive_along_the_orbit(X, Y, iso, m, n):
    # W_{f^(m+n)}(X, Y) = W_{f^m}(X, Y) + W_{f^n}(f^m X, f^m Y)
    assume(np.hypot(*(Y - X).T).min() > 1e-3)
    w_m, w_mn = pair_windings_iterated(iso, X, Y, (m, m + n))
    fX, fY = iso.orbit(X, m + 1)[m], iso.orbit(Y, m + 1)[m]
    (w_n,) = pair_windings_iterated(iso, fX, fY, (n,))
    assert np.max(np.abs(w_mn - (w_m + w_n))) < 1e-12


@FEW
@given(_disk_points(4), _disk_points(4), st.integers(1, 8))
def test_tracked_cumulative_windings_match_the_closed_form(X, Y, n):
    assume(np.hypot(*(Y - X).T).min() > 1e-3)
    ns = (1, n)
    exact = pair_windings_iterated(TWIST_A, X, Y, ns)
    assert np.max(np.abs(pair_windings_iterated(TWIST_A_TRACKED, X, Y, ns) - exact)) < 1e-10


@FEW
@given(
    _disk_points(8, r_max=1.2),
    st.sampled_from(
        [
            RigidRotation(GOLDEN),
            CONJ,
            TWIST_A_TRACKED,
            PlaneExtension(GOLDEN, 0.75),
            PlaneExtension(GOLDEN, 0.9, core=TWIST_A_TRACKED),
        ]
    ),
    st.integers(1, 8),
    st.floats(0.0, 1.0),
    st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
)
def test_isotopy_over_0_n_is_the_isotopy_of_f_n(pts, iso, n, u, per_entry):
    # eval(t), t in [0, n], runs n copies of the isotopy of f one after
    # another: the flows by themselves, the deformed ramp by restarting
    concat = Concatenation(iso, n)
    for t in (u * n, np.array(per_entry) * n, float(n), float(math.ceil(u * n))):
        assert np.max(np.abs(iso.eval(t, pts) - concat.eval(t / n, pts))) < 1e-12


def _action_cocycle_defect(a_n, iso, pts, n):
    """|a_{f^n}(x) - sum_{k<n} a(f^k x)|, the largest over pts."""
    summed = ActionField(iso).action(iso.orbit(pts, n)).sum(0)
    return np.max(np.abs(a_n - summed))


@FEW
@given(_disk_points(4), st.integers(1, 64))
def test_action_cocycle_closed_form(pts, n):
    # links the Birkhoff sums of the action to the action of f^n
    assert _action_cocycle_defect(CONJ.action_closed_form(pts, n), CONJ, pts, n) < 1e-11


@settings(max_examples=3, deadline=None)
@given(_disk_points(2, r_max=1.05), st.integers(1, 3))
def test_action_cocycle_path_route(pts, n):
    # the path integral of f^n is certified to PATH_TOL, and the closed
    # forms summed along the orbit lie well within n PATH_TOL
    a_n = ActionField(Concatenation(CORED, n)).action(pts)
    assert _action_cocycle_defect(a_n, CORED, pts, n) < (n + 1) * PATH_TOL


@settings(max_examples=200, deadline=None)
@given(*(st.integers(-10**6, 10**6) for _ in range(3)))
def test_lambda_int_cocycle_and_antisymmetry(k, l, m):
    assert lambda_int(k, l) == -lambda_int(l, k)
    assert lambda_int(k, l) + lambda_int(l, m) == lambda_int(k, m)


@settings(max_examples=5, deadline=None)
@given(_disk_points(3, r_min=0.05, r_max=0.9), _disk_points(3, r_min=0.05, r_max=0.9))
def test_batched_pair_values_equal_single_pair_calls(Z, Zp):
    assume(np.hypot(*(Zp - Z).T).min() > 1e-2)
    n = 2
    batch = annulus_table(CONJ, Z, Zp, n=n)
    w0, m = displacements(CONJ, Z, (1, 2))
    assert np.array_equal(batch["m_seq"], np.diff(m, axis=0, prepend=0))
    assert np.array_equal(batch["m_total"], m[-1])
    # the closed form, and the tracked fallback of a second isotopy
    exact = pair_windings_iterated(CONJ, Z, Zp, (1, 2))
    windings = pair_windings_iterated(TWIST_A_TRACKED, Z, Zp, (1, 2))
    for j, (z, zp) in enumerate(zip(Z, Zp)):
        single = annulus_table(CONJ, z, zp, n=n)
        for key, value in single.items():
            assert np.array_equal(batch[key][..., j], value), key
        w0_j, m_j = displacements(CONJ, z[None], (1, 2))
        assert np.array_equal(w0_j[:, 0], w0[:, j]) and np.array_equal(m_j[:, 0], m[:, j])
        assert np.array_equal(pair_windings_iterated(CONJ, z, zp, (1, 2)), exact[:, j])
        assert windings[0, j] == _pair_track(TWIST_A_TRACKED, z[None], zp[None])[0][0]
