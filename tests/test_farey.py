"""Convergents, invariant circles, and strip-measure estimates."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from diskrot.errors import FoliationNotTransverse, NearRationalWarning, RationalInput
from diskrot.farey import (
    Convergent,
    InvariantCircleSpec,
    StripRegion,
    convergents,
    invariant_circle,
    lebesgue_disk,
    mixture,
    origin_windings,
    product_integral_winding,
    rotation_of_measure,
    strip_measure,
)
from diskrot.foliation import displacement_table
from diskrot.geometry import GOLDEN, uniform_disk
from diskrot.maps import ConjugacyMap, ConjugatedRotation, PlaneExtension, RigidRotation


def _plane_extension(beta=0.75):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearRationalWarning)
        return PlaneExtension(GOLDEN, beta)


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


def test_invariant_circle_spec_radius():
    spec = InvariantCircleSpec(Convergent(2, 3, GOLDEN), beta=0.75)
    assert abs(spec.radius - (1.0 + 2.0 / 3.0 - GOLDEN)) < 1e-15
    with pytest.raises(ValueError):
        InvariantCircleSpec(Convergent(1, 2, GOLDEN), beta=0.75)


def test_strip_measure_matches_the_defect():
    iso = _plane_extension()
    res = strip_measure(iso, Convergent(2, 3, GOLDEN), samples=50_000, seed=0)
    assert abs(res["value"] - res["expected"]) <= 3.0 * res["stderr"]
    assert abs(res["expected"] - (2.0 - 3.0 * GOLDEN)) < 1e-15


def test_strip_region_counts_and_membership():
    iso = _plane_extension()
    region = StripRegion(iso, Convergent(2, 3, GOLDEN))
    rng = np.random.default_rng(1)
    pts = uniform_disk(rng, 2000)
    counts = region.crossing_counts(pts)
    assert counts.min() >= 0
    assert counts.max() >= 1  # the strip meets the unit disk
    hit = pts[np.nonzero(counts > 0)[0][0]]
    theta = float(np.arctan2(hit[1], hit[0]) % (2 * np.pi))
    assert region.contains(theta, hit)
    assert not region.contains(theta - 2 * np.pi * counts.max(), hit)


def test_wrong_side_convergent_is_not_transverse():
    iso = _plane_extension()
    region = StripRegion(iso, Convergent(1, 2, GOLDEN))
    with pytest.raises(FoliationNotTransverse):
        region.crossing_counts(uniform_disk(np.random.default_rng(2), 500))


def test_invariant_circle_sampler_is_invariant():
    g = ConjugacyMap.from_named("twist-a")
    iso = ConjugatedRotation(GOLDEN, g)
    pts = invariant_circle(g, 0.5)(np.random.default_rng(3), 500)
    r = np.hypot(*g.inverse(iso.map(pts)).T)
    assert np.max(np.abs(r - 0.5)) < 1e-12


def test_mixture_and_lebesgue_shapes():
    rng = np.random.default_rng(4)
    sample = mixture([lebesgue_disk(), lebesgue_disk(0.5)], [0.5, 0.5])
    pts = sample(rng, 1000)
    assert pts.shape == (1000, 2)
    assert np.hypot(*pts.T).max() <= 1.0


def test_origin_windings_rigid():
    pts = uniform_disk(np.random.default_rng(5), 100, 0.9)
    w = origin_windings(RigidRotation(GOLDEN), pts)
    assert np.max(np.abs(w - GOLDEN)) < 1e-12


def test_rotation_of_measure_routes_agree():
    iso = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))
    rot = rotation_of_measure(iso, samples=5000, seed=0)
    assert abs(rot["winding_value"] - GOLDEN) <= 3.0 * rot["winding_stderr"]
    assert abs(rot["displacement_value"] - GOLDEN) <= 3.0 * rot["displacement_stderr"]
    assert abs(rot["difference"]) <= 3.0 * rot["combined_stderr"]


def test_rotation_of_measure_reads_both_routes_off_one_track():
    iso = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))
    rot = rotation_of_measure(iso, samples=500, seed=3)
    pts = lebesgue_disk()(np.random.default_rng(3), 500)
    m_seq, _ = displacement_table(iso, pts, n=1)
    assert rot["winding_value"] == float(origin_windings(iso, pts).mean())
    assert rot["displacement_value"] == float(m_seq[0].astype(float).mean())


def test_product_integral_estimates_the_rotation():
    iso = ConjugatedRotation(GOLDEN, ConjugacyMap.from_named("twist-a"))
    res = product_integral_winding(iso, samples=4000, seed=0)
    assert abs(res["value"] - GOLDEN) <= 3.0 * res["stderr"]
