import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwpeval import verify
from nwpeval.archive import archive_bytes, read_archive
from nwpeval.grids import (CHANNELS, EAST_ASIA, GLOBAL, GridMismatchError,
                           GridSpec, RegionBox, Var)
from nwpeval.splice import region_mask
from nwpeval.synthetic import make_climatology, make_state
from nwpeval.verify import (DEFAULT_REPORT_CHANNELS, DegenerateAnomalyError,
                            EmptyMaskError, acc_weighted, evaluate_run,
                            lat_weights, rmse_weighted)
from tests.conftest import random_state


def brute_force_rmse(f, o, grid, mask):
    """Independent oracle: explicit double-precision loops."""
    num = 0.0
    den = 0.0
    for i in range(grid.nlat):
        w = math.cos(math.radians(grid.lat_start - i * grid.dlat))
        for j in range(grid.nlon):
            if mask[i, j]:
                num += w * (float(f[i, j]) - float(o[i, j])) ** 2
                den += w
    return math.sqrt(num / den)


def brute_force_acc(f, o, c, grid, mask):
    sww = 0.0
    for i in range(grid.nlat):
        w = math.cos(math.radians(grid.lat_start - i * grid.dlat))
        for j in range(grid.nlon):
            if mask[i, j]:
                sww += w
    cov = vf = vo = 0.0
    for i in range(grid.nlat):
        w = math.cos(math.radians(grid.lat_start - i * grid.dlat)) / sww
        for j in range(grid.nlon):
            if mask[i, j]:
                af = float(f[i, j]) - float(c[i, j])
                ao = float(o[i, j]) - float(c[i, j])
                cov += w * af * ao
                vf += w * af * af
                vo += w * ao * ao
    return cov / math.sqrt(vf * vo)


def subset_read(state, channels=DEFAULT_REPORT_CHANNELS):
    """The subset state a read of the state's archive gives, as run_experiment
    reads truths and the climatology and `nwpeval evaluate` reads all three."""
    return read_archive(io.BytesIO(archive_bytes(state)), channels)


def score_series(forecasts, truths, clim, regions):
    """evaluate_run on each lead in turn, as its callers drive it, with the
    truths and the climatology as report planes."""
    records, errors = [], []
    clim = subset_read(clim)
    for lead, fc in forecasts.items():
        r, e = evaluate_run(lead, fc, subset_read(truths[lead]), clim, regions)
        records.extend(r)
        errors.extend(e)
    return records, errors


def random_grid(rng):
    nlat = int(rng.integers(2, 17))
    nlon = int(rng.integers(2, 33))
    return GridSpec(nlat=nlat, nlon=nlon, lat_start=90.0,
                    dlat=180.0 / max(nlat, 2), lon_start=0.0,
                    dlon=360.0 / nlon)


class TestLatWeights:
    def test_single_point(self, small_grid):
        mask = np.zeros(small_grid.shape, bool)
        mask[3, 5] = True
        w = lat_weights(small_grid, mask)
        assert w[3, 5] == 1.0
        assert w.sum() == 1.0

    def test_two_points_cosine_ratio(self):
        g = GridSpec(nlat=4, nlon=1, lat_start=60, dlat=30, lon_start=0, dlon=1)
        mask = np.zeros(g.shape, bool)
        mask[0, 0] = True   # 60 deg
        mask[2, 0] = True   # 0 deg
        w = lat_weights(g, mask)
        np.testing.assert_allclose(w[2, 0], 2.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(w[0, 0], 1.0 / 3.0, atol=1e-12)

    def test_equator_symmetry_on_canonical_grid(self):
        g = GridSpec.canonical()
        w = lat_weights(g, np.ones(g.shape, bool))
        np.testing.assert_allclose(w, w[::-1, :], atol=1e-18)

    def test_empty_mask(self, small_grid):
        with pytest.raises(EmptyMaskError):
            lat_weights(small_grid, np.zeros(small_grid.shape, bool))

    def test_pole_only_mask_falls_back_to_uniform(self, small_grid):
        mask = np.zeros(small_grid.shape, bool)
        mask[0, :] = True  # 90N, cos = 0 up to rounding
        w = lat_weights(small_grid, mask)
        assert abs(w.sum() - 1.0) < 1e-12
        assert (w[0] > 0).all()


class TestRMSE:
    def test_zero_for_identical(self, small_grid):
        f = np.random.default_rng(0).standard_normal(small_grid.shape)
        w = lat_weights(small_grid, np.ones(small_grid.shape, bool))
        assert rmse_weighted(f, f, w) == 0.0

    @pytest.mark.parametrize("box", [GLOBAL, EAST_ASIA])
    def test_constant_offset(self, small_grid, box):
        rng = np.random.default_rng(1)
        o = rng.standard_normal(small_grid.shape)
        w = lat_weights(small_grid, region_mask(small_grid, box))
        for c in (-3.5, 0.125, 42.0):
            assert abs(rmse_weighted(o + c, o, w) - abs(c)) < 1e-9

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        g = GridSpec(nlat=3, nlon=4, lat_start=90, dlat=60, lon_start=0, dlon=90)
        f = rng.standard_normal(g.shape).astype(np.float32)
        o = rng.standard_normal(g.shape).astype(np.float32)
        mask = np.ones(g.shape, bool)
        w = lat_weights(g, mask)
        got = rmse_weighted(f, o, w)
        want = brute_force_rmse(f, o, g, mask)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_triangle_inequality(self, small_grid):
        rng = np.random.default_rng(3)
        w = lat_weights(small_grid, np.ones(small_grid.shape, bool))
        f, g_, o = (rng.standard_normal(small_grid.shape) for _ in range(3))
        assert rmse_weighted(f, o, w) <= \
            rmse_weighted(f, g_, w) + rmse_weighted(g_, o, w) + 1e-12


class TestACC:
    def setup_method(self):
        self.grid = GridSpec(nlat=3, nlon=4, lat_start=90, dlat=60,
                             lon_start=0, dlon=90)
        rng = np.random.default_rng(4)
        self.c = rng.standard_normal(self.grid.shape)
        self.mask = np.ones(self.grid.shape, bool)
        self.w = lat_weights(self.grid, self.mask)

    def test_perfect_forecast(self):
        o = self.c + np.random.default_rng(5).standard_normal(self.grid.shape)
        assert abs(acc_weighted(o, o, self.c, self.w) - 1.0) < 1e-12

    def test_anti_forecast(self):
        a = np.random.default_rng(6).standard_normal(self.grid.shape)
        assert abs(acc_weighted(self.c - a, self.c + a, self.c, self.w) + 1.0) < 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal(self.grid.shape).astype(np.float32)
        o = rng.standard_normal(self.grid.shape).astype(np.float32)
        got = acc_weighted(f, o, self.c, self.w)
        want = brute_force_acc(f, o, self.c, self.grid, self.mask)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(8)
        af = rng.standard_normal(self.grid.shape)
        ao = rng.standard_normal(self.grid.shape)
        base = acc_weighted(self.c + af, self.c + ao, self.c, self.w)
        scaled = acc_weighted(self.c + 7.5 * af, self.c + 0.2 * ao, self.c, self.w)
        assert abs(base - scaled) < 1e-12

    def test_negation_flips_sign(self):
        rng = np.random.default_rng(9)
        af = rng.standard_normal(self.grid.shape)
        ao = rng.standard_normal(self.grid.shape)
        a = acc_weighted(self.c + af, self.c + ao, self.c, self.w)
        b = acc_weighted(self.c - af, self.c + ao, self.c, self.w)
        assert abs(a + b) < 1e-12

    def test_degenerate_anomaly(self):
        with pytest.raises(DegenerateAnomalyError):
            acc_weighted(self.c, self.c + 1.0, self.c, self.w)


class TestOracleSweep:
    def test_both_metrics_on_random_grids(self):
        rng = np.random.default_rng(10)
        for trial in range(40):
            g = random_grid(rng)
            mask = rng.random(g.shape) < 0.7
            if not mask.any():
                mask[0, 0] = True
            w = lat_weights(g, mask)
            f = rng.standard_normal(g.shape).astype(np.float32)
            o = rng.standard_normal(g.shape).astype(np.float32)
            c = rng.standard_normal(g.shape).astype(np.float32)
            want = brute_force_rmse(f, o, g, mask)
            assert abs(rmse_weighted(f, o, w) - want) <= 1e-12 * max(abs(want), 1.0)
            want = brute_force_acc(f, o, c, g, mask)
            got = acc_weighted(f, o, c, w)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
            assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12

    def test_single_row_mask_equals_unweighted(self):
        g = GridSpec(nlat=5, nlon=8, lat_start=60, dlat=30, lon_start=0, dlon=45)
        rng = np.random.default_rng(11)
        f = rng.standard_normal(g.shape)
        o = rng.standard_normal(g.shape)
        mask = np.zeros(g.shape, bool)
        mask[1, :] = True
        w = lat_weights(g, mask)
        want = math.sqrt(np.mean((f[1] - o[1]) ** 2))
        assert abs(rmse_weighted(f, o, w) - want) < 1e-12


class TestEvaluateRun:
    def _series(self, grid, seeds, label="fc"):
        from datetime import timedelta
        base = make_state(grid, seed=seeds[0], source_label=label)
        out = {}
        for n, lead in enumerate(range(24, 24 * (len(seeds) + 1), 24)):
            s = make_state(grid, seed=seeds[n], source_label=label)
            out[lead] = s.replace(valid_time=base.valid_time + timedelta(hours=lead))
        return out

    def test_record_count(self, small_grid):
        seeds = list(range(40, 50))
        fc = self._series(small_grid, seeds)
        tr = self._series(small_grid, [s + 100 for s in seeds], label="truth")
        clim = make_climatology(small_grid)
        regions = {"global": GLOBAL, "east_asia": EAST_ASIA}
        records, errors = score_series(fc, tr, clim, regions)
        assert errors == []
        assert len(records) == 9 * 2 * 10 * 2

    def test_perfect_forecast_scores(self, small_grid):
        seeds = [60, 61, 62]
        fc = self._series(small_grid, seeds)
        tr = {lead: s.replace(source_label="truth") for lead, s in fc.items()}
        clim = make_climatology(small_grid)
        records, errors = score_series(fc, tr, clim, {"global": GLOBAL})
        assert errors == []
        for r in records:
            if r.metric == "RMSE":
                assert r.value == 0.0
            else:
                assert abs(r.value - 1.0) < 1e-12

    def test_constant_difference_pole_to_pole(self, small_grid):
        fc = self._series(small_grid, [70])[24]
        tr = fc.replace(data=fc.data + np.float32(2.0), source_label="truth")
        clim = make_climatology(small_grid)
        records, _ = evaluate_run(24, fc, subset_read(tr), subset_read(clim),
                                  {"global": GLOBAL})
        for r in records:
            if r.metric == "RMSE" and r.variable is not Var.Q:
                np.testing.assert_allclose(r.value, 2.0, rtol=1e-5)

    def test_q_rmse_reported_in_g_per_kg(self, small_grid):
        fc = self._series(small_grid, [71])[24]
        tr = fc.replace(data=fc.data + np.float32(0.001), source_label="truth")
        clim = make_climatology(small_grid)
        records, _ = evaluate_run(24, fc, subset_read(tr), subset_read(clim),
                                  {"global": GLOBAL})
        q = [r for r in records if r.variable is Var.Q and r.metric == "RMSE"]
        assert len(q) == 1
        np.testing.assert_allclose(q[0].value, 1.0, rtol=1e-4)  # 0.001 kg/kg = 1 g/kg

    def test_nan_outside_a_region_spares_its_scores(self, small_grid):
        fc = self._series(small_grid, [87])
        tr = self._series(small_grid, [97], label="truth")
        tr[24].channel(Var.MSLP)[0, 3] = np.nan   # north pole, outside east_asia
        clim = make_climatology(small_grid)
        records, errors = score_series(fc, tr, clim,
                                       {"global": GLOBAL, "east_asia": EAST_ASIA})
        mslp = {(r.region, r.metric) for r in records if r.variable is Var.MSLP}
        assert mslp == {("east_asia", "RMSE"), ("east_asia", "ACC")}
        assert sorted(errors) == ["lead 24 MSLP global: ACC is not finite (nan)",
                                  "lead 24 MSLP global: RMSE is not finite (nan)"]
        assert len(records) == 9 * 2 * 2 - 2

    def test_region_scores_match_mask_oracle(self):
        # boxes on grids that do not start at 0 degrees, some taking in 0
        # degrees through lon_max 360, so a block's columns need not be adjacent
        rng = np.random.default_rng(12)
        mslp = ((Var.MSLP, 0),)
        for trial in range(25):
            g = random_grid(rng)
            g = GridSpec(nlat=g.nlat, nlon=g.nlon, lat_start=g.lat_start, dlat=g.dlat,
                         lon_start=float(rng.choice([0.0, g.dlon / 2, 200.0])),
                         dlon=g.dlon)
            lat = np.sort(rng.uniform(-90, 90, 2))
            lon_min = float(rng.uniform(0, 300))
            lon_max = 360.0 if trial % 3 == 0 else float(rng.uniform(lon_min, 360))
            box = RegionBox(lat_min=lat[0], lat_max=lat[1], lon_min=lon_min,
                            lon_max=lon_max)
            mask = region_mask(g, box)
            if not mask.any():
                continue
            states = [make_state(g, seed=200 + 3 * trial + k) for k in range(3)]
            f, o, c = (s.channel(Var.MSLP) for s in states)
            records, errors = evaluate_run(
                24, states[0], subset_read(states[1], mslp),
                subset_read(states[2], mslp), {"box": box}, mslp)
            assert errors == []
            got = {r.metric: r.value for r in records}
            want = {"RMSE": brute_force_rmse(f, o, g, mask),
                    "ACC": brute_force_acc(f, o, c, g, mask)}
            for metric in want:
                assert abs(got[metric] - want[metric]) <= 1e-12 * max(abs(want[metric]), 1.0)

    def test_regions_weighted_once_per_grid(self, monkeypatch):
        calls = []
        original = verify.lat_weights
        monkeypatch.setattr(verify, "lat_weights",
                            lambda *a: calls.append(a) or original(*a))
        g = GridSpec(nlat=7, nlon=12, lat_start=90, dlat=30, lon_start=15, dlon=30)
        fc = self._series(g, [110, 111, 112])
        tr = self._series(g, [120, 121, 122], label="truth")
        clim = subset_read(make_climatology(g))
        regions = {"global": GLOBAL, "east_asia": EAST_ASIA}
        for lead in fc:
            records, errors = evaluate_run(lead, fc[lead], subset_read(tr[lead]),
                                           clim, regions)
            assert errors == [] and len(records) == 9 * 2 * 2
        assert len(calls) == 2


class TestReportPlanes:
    """Truths and the climatology reach evaluate_run as a subset read."""

    def test_copies_the_channels_in_report_order(self, small_state, small_grid):
        channels = ((Var.Z, 500), (Var.MSLP, 0))
        p = subset_read(small_state, channels)
        assert p.channels == channels and p.data.shape == (2,) + small_grid.shape
        assert np.array_equal(p.channel(Var.Z, 500), small_state.channel(Var.Z, 500))
        assert np.array_equal(p.channel(Var.MSLP), small_state.channel(Var.MSLP))
        assert subset_read(small_state).channels == DEFAULT_REPORT_CHANNELS

    @settings(max_examples=30, deadline=None)
    @given(nlat=st.integers(2, 9), nlon=st.integers(2, 16), seed=st.integers(0, 10_000),
           full=st.tuples(st.booleans(), st.booleans(), st.booleans()), data=st.data())
    def test_full_and_subset_states_score_alike(self, nlat, nlon, seed, full, data):
        # each state read in full or as a subset holding the report channels
        # and perhaps others, in any order
        grid = GridSpec(nlat=nlat, nlon=nlon, lat_start=90.0, dlat=180.0 / nlat,
                        lon_start=0.0, dlon=360.0 / nlon)
        held = data.draw(st.lists(st.sampled_from(CHANNELS), min_size=1, max_size=12,
                                  unique=True))
        report = data.draw(st.permutations(held))[:data.draw(st.integers(1, len(held)))]
        regions = {"global": GLOBAL, "north": RegionBox(0.0, 90.0, 0.0, 360.0)}
        states = [random_state(grid, seed=seed + k, label=f"s{k}") for k in range(3)]
        want = evaluate_run(24, *states, regions, report)
        assert len(want[0]) + len(want[1]) == 2 * 2 * len(report)
        mixed = [s if keep else subset_read(s, held) for s, keep in zip(states, full)]
        assert evaluate_run(24, *mixed, regions, report) == want

    @pytest.mark.parametrize("which", ["truth", "climatology"])
    def test_other_grid_rejected(self, small_grid, coarse_grid, which):
        fc = make_state(small_grid, seed=5)
        planes = {"truth": subset_read(make_state(small_grid, seed=6)),
                  "climatology": subset_read(make_climatology(small_grid))}
        planes[which] = subset_read(make_state(coarse_grid, seed=7))
        with pytest.raises(GridMismatchError, match="climatology grid does not match "
                                                    "the forecast grid"):
            evaluate_run(24, fc, planes["truth"], planes["climatology"],
                         {"global": GLOBAL})
