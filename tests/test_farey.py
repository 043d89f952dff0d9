"""Convergents, invariant circles, and strip-measure estimates."""

from __future__ import annotations

import numpy as np
import pytest

from diskrot import winding
from diskrot.errors import FoliationNotTransverse, RationalInput
from diskrot.farey import (
    Convergent,
    convergents,
    crossing_counts,
    invariant_circle,
    product_integral_winding,
    rotation_of_measure,
    strip_measure,
)
from diskrot.foliation import displacements
from diskrot.geometry import GOLDEN, uniform_disk
from diskrot.maps import ConjugacyMap, ConjugatedRotation, PlaneExtension, RigidRotation
from diskrot.winding import _pair_track, pair_windings


def test_golden_convergents_are_fibonacci_ratios():
    fib = [(1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13), (13, 21)]
    convs = convergents(GOLDEN, len(fib))
    assert [(c.a, c.b) for c in convs] == fib
    defects = [c.defect for c in convs]
    # alternating signs, shrinking magnitude, classical quality bound
    assert all(d1 * d2 < 0 for d1, d2 in zip(defects, defects[1:]))
    assert all(abs(d2) < abs(d1) for d1, d2 in zip(defects, defects[1:]))
    assert all(abs(c.defect) < 1.0 / c.b for c in convs)


def test_convergents_reject_rational_input():
    with pytest.raises(RationalInput):
        convergents(0.5, 5)


def test_convergent_validation():
    with pytest.raises(ValueError):
        Convergent(2, 4, GOLDEN)
    with pytest.raises(ValueError):
        Convergent(1, 0, GOLDEN)
    assert abs(Convergent(2, 3, GOLDEN).value - 2.0 / 3.0) < 1e-15


def test_strip_measure_matches_the_defect():
    iso = PlaneExtension(GOLDEN, 0.75)
    res = strip_measure(iso, Convergent(2, 3, GOLDEN), samples=50_000, seed=0)
    assert abs(res["value"] - res["expected"]) <= 3.0 * res["stderr"]
    assert abs(res["expected"] - (2.0 - 3.0 * GOLDEN)) < 1e-15


def test_strip_region_counts_and_membership():
    iso = PlaneExtension(GOLDEN, 0.75)
    rng = np.random.default_rng(1)
    pts = uniform_disk(rng, 2000)
    counts = crossing_counts(iso, Convergent(2, 3, GOLDEN), pts)
    assert counts.min() >= 0
    assert counts.max() >= 1  # the strip meets the unit disk


def test_wrong_side_convergent_is_not_transverse():
    iso = PlaneExtension(GOLDEN, 0.75)
    with pytest.raises(FoliationNotTransverse):
        crossing_counts(
            iso, Convergent(1, 2, GOLDEN), uniform_disk(np.random.default_rng(2), 500)
        )


def test_invariant_circle_sampler_is_invariant():
    g = ConjugacyMap.from_named("twist-a")
    iso = ConjugatedRotation(GOLDEN, g)
    pts = invariant_circle(g, 0.5)(np.random.default_rng(3), 500)
    r = np.hypot(*g.inverse(iso.map(pts)).T)
    assert np.max(np.abs(r - 0.5)) < 1e-12


def test_lebesgue_shapes():
    pts = uniform_disk(np.random.default_rng(4), 1000)
    assert pts.shape == (1000, 2)
    assert np.hypot(*pts.T).max() <= 1.0


def test_origin_windings_rigid():
    # the tracker's: the closed form gives alpha by construction
    pts = uniform_disk(np.random.default_rng(5), 100, 0.9)
    w = _pair_track(RigidRotation(GOLDEN), np.zeros(2), pts)[0]
    assert np.max(np.abs(w - GOLDEN)) < 1e-12


def test_rotation_of_measure_routes_agree():
    iso = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))
    rot = rotation_of_measure(iso, samples=5000, seed=0)
    assert abs(rot["winding_value"] - GOLDEN) <= 3.0 * rot["winding_stderr"]
    assert abs(rot["displacement_value"] - GOLDEN) <= 3.0 * rot["displacement_stderr"]
    assert abs(rot["difference"]) <= 3.0 * rot["combined_stderr"]


def test_rotation_of_measure_reads_both_routes_off_one_winding():
    iso = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))
    rot = rotation_of_measure(iso, samples=500, seed=3)
    pts = uniform_disk(np.random.default_rng(3), 500)
    _, (m,) = displacements(iso, pts, (1,))
    # f_t fixes the origin, so W(0, z) is the change of z's lifted angle
    w = pair_windings(iso, np.zeros(2), pts)
    assert abs(rot["winding_value"] - float(w.mean())) < 1e-12
    assert rot["displacement_value"] == float(m.astype(float).mean())


def test_rotation_of_measure_of_the_conjugated_family_tracks_nothing(monkeypatch):
    def untracked(*args, **kw):
        raise AssertionError("tracker called")

    monkeypatch.setattr(winding, "_track", untracked)
    iso = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))
    rot = rotation_of_measure(iso, samples=500, seed=3)
    assert abs(rot["difference"]) <= 3.0 * rot["combined_stderr"]


def test_product_integral_estimates_the_rotation():
    iso = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))
    res = product_integral_winding(
        iso, uniform_disk, uniform_disk, samples=4000, seed=0
    )
    assert abs(res["value"] - GOLDEN) <= 3.0 * res["stderr"]
