"""Sampling and deck-window guards of the verification suite."""

from __future__ import annotations

import numpy as np
import pytest

from diskrot.errors import ResampleExhausted, TailNotCertified
from diskrot.foliation import lambda_prefixes
from diskrot.geometry import GOLDEN
from diskrot.maps import PlaneExtension
from diskrot.verify import _admissible_pairs
from diskrot.winding import OrbitTrack


def test_resampling_that_cannot_succeed_raises():
    # no two points of the disk are 10 apart
    with pytest.raises(ResampleExhausted):
        _admissible_pairs(np.random.default_rng(0), 5, min_sep=10)


def test_lambda_deck_window_beyond_k_max_raises():
    # on the profile band the outer point gains a quarter turn per iterate,
    # so over 8 iterates the pair's deck window spans more than one copy
    iso = PlaneExtension(GOLDEN, GOLDEN + 0.3)
    Z = np.array([[0.5, 0.0]])
    Zp = np.array([[1.25, 0.0]])
    ns = (1, 8)
    lambda_prefixes(OrbitTrack(iso, np.concatenate([Z, Zp]), 8), ns, k_max=10)
    with pytest.raises(TailNotCertified):
        lambda_prefixes(OrbitTrack(iso, np.concatenate([Z, Zp]), 8), ns, k_max=1)
