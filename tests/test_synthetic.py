import io

import numpy as np
import pytest

from nwpeval.archive import archive_bytes, read_archive
from nwpeval.grids import CHANNELS, Var
from nwpeval.synthetic import _PROFILES, make_state, perturb
from nwpeval.verify import DEFAULT_REPORT_CHANNELS


def perturb_by_position(state, seed, amplitude=1.0):
    """Oracle for a full canonical state: plane k draws the k-th noise
    field, scaled by the profile of the k-th canonical channel."""
    rng = np.random.default_rng(seed)
    data = state.data.copy()
    for k, (var, _) in enumerate(CHANNELS):
        noise = _PROFILES[var][2]
        data[k] += (amplitude * noise
                    * rng.standard_normal(state.grid.shape)).astype(np.float32)
        if var is Var.Q:
            data[k] = np.clip(data[k], 0.0, 0.05)
    return data


def subset_read(state, channels):
    return read_archive(io.BytesIO(archive_bytes(state)), channels)


def assert_noise_of_its_own_variable(before, after):
    """Each plane's added noise has the spread of its own variable's profile."""
    assert after.channels == before.channels
    for (var, _), b, a in zip(before.channels, before.data, after.data):
        spread = np.std(a.astype(np.float64) - b) / _PROFILES[var][2]
        assert 0.8 < spread < 1.25, (var, spread)


class TestPerturb:
    @pytest.mark.parametrize("amplitude", [1.0, 0.3])
    def test_full_state_is_bitwise_the_positional_draw(self, small_grid, amplitude):
        state = make_state(small_grid, seed=4)
        out = perturb(state, seed=9, amplitude=amplitude, source_label="noisy")
        assert np.array_equal(out.data, perturb_by_position(state, 9, amplitude))
        assert out.source_label == "noisy" and out.channels == CHANNELS

    def test_reversed_read_gets_each_variables_noise(self, coarse_grid):
        state = subset_read(make_state(coarse_grid, seed=4), CHANNELS[::-1])
        out = perturb(state, seed=9)
        assert_noise_of_its_own_variable(state, out)
        # V50 comes first: wind-scale noise, not MSLP's
        v50 = state.channel(Var.V, 50)
        assert np.abs(out.channel(Var.V, 50) - v50).max() < 10 * _PROFILES[Var.V][2]

    def test_subset_read_is_perturbed_plane_by_plane(self, coarse_grid):
        full = make_state(coarse_grid, seed=4)
        state = subset_read(full, DEFAULT_REPORT_CHANNELS)
        assert_noise_of_its_own_variable(state, perturb(state, seed=9))
        # a prefix of the canonical order draws as the full state does
        prefix = subset_read(full, CHANNELS[:9])
        assert np.array_equal(perturb(prefix, seed=9).data, perturb(full, seed=9).data[:9])
