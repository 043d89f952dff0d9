"""Property tests of the invariants the paper relies on: area preservation,
exact inverses, winding symmetry, the lambda cocycle, and batched values
equal to one-at-a-time values."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diskrot.foliation import annulus_table, displacement_table, lambda_int
from diskrot.geometry import GOLDEN
from diskrot.maps import ConjugacyMap, ConjugatedRotation, TwistStep
from diskrot.winding import OrbitTrack, pair_windings

G = ConjugacyMap.from_named("twist-b")
CONJ = ConjugatedRotation(GOLDEN, G)
STEP = TwistStep(center=(0.2, 0.1), amp=1.1, inner=0.3, outer=0.6)

FEW = settings(max_examples=10, deadline=None)


def _disk_points(count, r_min=0.0, r_max=0.95):
    polar = st.tuples(st.floats(r_min, r_max), st.floats(0.0, 2.0 * np.pi))
    return st.lists(polar, min_size=count, max_size=count).map(
        lambda rt: np.array([[r * np.cos(t), r * np.sin(t)] for r, t in rt])
    )


@FEW
@given(_disk_points(8), st.floats(0.0, 1.0))
def test_jacobians_have_unit_determinant(pts, t):
    assert np.max(np.abs(np.linalg.det(STEP.jac(pts, scale=t)) - 1.0)) < 1e-12
    assert np.max(np.abs(np.linalg.det(CONJ.jac(t, pts)) - 1.0)) < 1e-10


@FEW
@given(_disk_points(8), st.floats(0.0, 1.0))
def test_conjugacy_inverse_undoes_forward(pts, scale):
    assert np.max(np.abs(G.inverse(G.forward(pts, scale), scale) - pts)) < 1e-12


@FEW
@given(_disk_points(6), _disk_points(6))
def test_winding_is_symmetric(X, Y):
    assume(np.hypot(*(Y - X).T).min() > 1e-3)
    assert np.max(np.abs(pair_windings(CONJ, X, Y) - pair_windings(CONJ, Y, X))) < 1e-12


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
    m_seq, m_total = displacement_table(CONJ, Z, n=n)
    assert np.array_equal(batch["m_seq"], m_seq)
    assert np.array_equal(batch["m_total"], m_total)
    windings = OrbitTrack(CONJ, np.concatenate([Z, Zp]), n).pair_windings()
    for j, (z, zp) in enumerate(zip(Z, Zp)):
        single = annulus_table(CONJ, z, zp, n=n)
        for key, value in single.items():
            assert np.array_equal(batch[key][..., j], value), key
        m_seq_j, m_total_j = displacement_table(CONJ, z, n=n)
        assert np.array_equal(m_seq_j, m_seq[:, j]) and m_total_j == m_total[j]
        assert windings[0, j] == pair_windings(CONJ, z[None], zp[None])[0]
