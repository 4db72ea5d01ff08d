import gc
import io
import math
import sys
import threading
import tracemalloc
import weakref
from datetime import datetime

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nwpeval import verify
from nwpeval.archive import archive_bytes, read_archive
from nwpeval.grids import (CHANNELS, EAST_ASIA, GLOBAL, GridMismatchError,
                           GridSpec, RegionBox, StateSet, Var)
from nwpeval.splice import region_mask
from nwpeval.synthetic import make_climatology, make_state
from nwpeval.verify import (DEFAULT_REPORT_CHANNELS, DegenerateAnomalyError,
                            EmptyMaskError, acc_weighted, evaluate_run,
                            lat_weights, region_block, rmse_weighted)
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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bitwise_the_three_temporary_expression(self, data):
        # a south row up to 1e-9 degrees past the pole, as GridSpec allows,
        # has cos < 0: a mask of it alone sums <= 0 and takes the fallback
        nlat, nlon = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 16))
        past = data.draw(st.sampled_from([0.0, 5e-10, 1e-9]))
        grid = GridSpec(nlat=nlat, nlon=nlon, lat_start=90.0,
                        dlat=(180.0 + past) / (nlat - 1), lon_start=0.0, dlon=360.0 / nlon)
        kind = data.draw(st.sampled_from(["random", "north-pole", "south-pole", "poles"]))
        if kind == "random":
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            mask = rng.random(grid.shape) < data.draw(st.floats(0.05, 1.0))
            assume(mask.any())
        else:
            mask = np.zeros(grid.shape, bool)
            mask[[0] if kind == "north-pole" else [-1] if kind == "south-pole"
                 else [0, -1]] = True

        # the expression lat_weights had: three full-grid float64 temporaries
        w = np.cos(np.radians(grid.latitudes()))[:, np.newaxis] * np.ones(grid.nlon)
        w = np.where(mask, w, 0.0)
        total = w.sum(dtype=np.float64)
        if total <= 0.0:
            w = mask.astype(np.float64)
            total = w.sum(dtype=np.float64)
        want = w / total

        got = lat_weights(grid, mask)
        assert got.dtype == np.float64 and got.shape == grid.shape
        assert got.tobytes() == want.tobytes()


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

    def test_records_hold_no_dict(self, small_grid):
        # a run holds every record until its CSV is written: 8,640 on desk
        fc, truth, clim = score_planes(1, small_grid, seed=17)
        records, _ = evaluate_run(24, fc, truth, clim, {"global": GLOBAL}, fc.channels)
        assert len(records) == 2 and not any(hasattr(r, "__dict__") for r in records)

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


def expression_scores(f, o, c, grid, box):
    """RMSE and ACC of one cell by rmse_weighted and acc_weighted, the plain
    float64 expressions, on an np.ix_ gather of the box's block: the values
    evaluate_run's kernel must equal bitwise. A degenerate ACC is its
    error text."""
    mask = region_mask(grid, box)
    block = np.ix_(mask.any(axis=1), mask.any(axis=0))
    w = lat_weights(grid, mask)[block]
    fb, ob, cb = (x[block] for x in (f, o, c))
    try:
        acc = acc_weighted(fb, ob, cb, w)
    except DegenerateAnomalyError as exc:
        acc = str(exc)
    return {"RMSE": rmse_weighted(fb, ob, w), "ACC": acc}


MSLP = ((Var.MSLP, 0),)


def plane_state(values, grid, label):
    return StateSet(valid_time=datetime(2023, 6, 6), source_label=label,
                    grid=grid, data=values[np.newaxis], channels=MSLP)


@st.composite
def scoring_cases(draw, max_nlat=10, max_nlon=20):
    """A grid with both poles, a box that may be pole-only or reach lon_max
    360, and float32 planes of mixed magnitude, perhaps with a NaN or a
    forecast equal to the climatology."""
    nlat, nlon = draw(st.integers(2, max_nlat)), draw(st.integers(2, max_nlon))
    dlon = 360.0 / nlon
    grid = GridSpec(nlat=nlat, nlon=nlon, lat_start=90.0, dlat=180.0 / (nlat - 1),
                    lon_start=draw(st.sampled_from([0.0, dlon / 2, 200.0])), dlon=dlon)
    lat = draw(st.one_of(st.sampled_from([(90.0, 90.0), (-90.0, -90.0)]),
                         st.tuples(st.floats(-90, 90), st.floats(-90, 90)).map(sorted)))
    lon_min = draw(st.floats(0, 350))
    lon_max = draw(st.one_of(st.just(360.0), st.floats(lon_min, 360)))
    box = RegionBox(lat_min=lat[0], lat_max=lat[1], lon_min=lon_min, lon_max=lon_max)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f, o, c = (rng.standard_normal(grid.shape)
               * 10.0 ** rng.integers(-4, 7, grid.shape) for _ in range(3))
    f, o, c = (x.astype(np.float32) for x in (f, o, c))
    case = draw(st.sampled_from(["plain", "nan-forecast", "nan-truth", "forecast-is-clim"]))
    i, j = rng.integers(grid.nlat), rng.integers(grid.nlon)
    if case == "nan-forecast":
        f[i, j] = np.nan
    elif case == "nan-truth":
        o[i, j] = np.nan
    elif case == "forecast-is-clim":
        f = c.copy()
    return grid, box, f, o, c


def assert_scores_are_the_expressions(grid, box, f, o, c):
    """evaluate_run's global and `box` cells, rows or errors, are bitwise
    those of expression_scores."""
    # global first: the box's cell reuses the work area sized for it
    regions = {"global": GLOBAL, "box": box}
    got, errors = evaluate_run(24, *(plane_state(x, grid, label) for x, label in
                                     ((f, "fc"), (o, "truth"), (c, "clim"))),
                               regions, MSLP)
    values = {(r.region, r.metric): r.value for r in got}
    for name, rbox in regions.items():
        for metric, want in expression_scores(f, o, c, grid, rbox).items():
            where = f"lead 24 MSLP {name}"
            if isinstance(want, str):
                assert f"{where}: {want}" in errors
                assert (name, metric) not in values
            elif math.isfinite(want):
                assert values[(name, metric)] == want
            else:
                assert f"{where}: {metric} is not finite ({want})" in errors
                assert (name, metric) not in values


def score_planes(n, grid, seed):
    """n float32 planes of the report channels on `grid`, as forecast, truth
    and climatology states."""
    rng = np.random.default_rng(seed)
    return [StateSet(valid_time=datetime(2023, 6, 6), source_label=label, grid=grid,
                     data=rng.standard_normal((n,) + grid.shape, dtype=np.float32),
                     channels=DEFAULT_REPORT_CHANNELS[:n])
            for label in ("fc", "truth", "clim")]


class TestScoringKernel:
    """evaluate_run scores each cell in tiles of at most verify.LEAF points
    in one small float64 work area per thread, with blocks taken as views
    where they can be; its values must be bitwise those of the plain
    expressions."""

    @settings(max_examples=150, deadline=None)
    @given(case=scoring_cases())
    def test_bitwise_equal_to_the_expressions(self, case):
        grid, box, f, o, c = case
        assume(region_mask(grid, box).any())
        assert_scores_are_the_expressions(grid, box, f, o, c)

    @settings(max_examples=80, deadline=None)
    @given(case=scoring_cases(max_nlat=40, max_nlon=90),
           leaf=st.sampled_from([128, 136, 1000]))
    def test_many_tiles_per_block_are_bitwise_one(self, case, leaf):
        # numpy splits no node of 128 points or fewer, so 128 is the least
        # LEAF; at these a block of up to 40x90 points is cut into up to 32
        # tiles, most of them starting or ending inside a row
        grid, box, f, o, c = case
        assume(region_mask(grid, box).any())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "LEAF", leaf)
            assert_scores_are_the_expressions(grid, box, f, o, c)

    def test_canonical_grid_cells_are_the_expressions(self):
        # at the real LEAF: global is 16 tiles, east_asia (281x361) 2
        grid = GridSpec.canonical()
        rng = np.random.default_rng(13)
        f, o, c = (rng.standard_normal(grid.shape, dtype=np.float32) * scale
                   for scale in (3.0, 2.0, 1.0))
        assert_scores_are_the_expressions(grid, EAST_ASIA, f, o, c)

    @pytest.mark.parametrize("shape", [(1, verify.LEAF - 1), (1, verify.LEAF),
                                       (1, verify.LEAF + 1), (3, 43700), (181, 360),
                                       (281, 361), (721, 1440)])
    def test_np_sum_is_its_tiles_added_up_the_tree(self, shape):
        # the kernel's sums are bitwise np.sum's only while numpy sums float64
        # pairwise, as verify.LEAF's comment says: a numpy that sums
        # otherwise fails here
        rng = np.random.default_rng(shape[1])
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 7, shape)
        flat, tiles = a.reshape(-1), []
        got = verify._pairwise(lambda start, n: tiles.append(n) or
                               np.array([np.sum(flat[start:start + n])]), 0, a.size)
        assert got[0] == np.sum(a) == np.sum(flat)
        assert sum(tiles) == a.size and max(tiles) <= verify.LEAF

    def test_work_area_is_one_tile_not_the_block(self):
        # 9 report planes on the canonical grid: a (4, global block) work
        # area would be 31.7 MiB; a tile's is about 2 MiB
        grid = GridSpec.canonical()
        states = score_planes(9, grid, seed=14)
        regions = {"global": GLOBAL, "east_asia": EAST_ASIA}
        for box in regions.values():
            region_block(grid, box)   # its weights are cached, made once per run
        tracemalloc.start()
        try:
            records, errors = evaluate_run(24, *states, regions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert errors == [] and len(records) == 9 * 2 * 2
        assert peak < 4 * 2**20

    def test_one_work_area_per_thread_regrown_for_a_larger_block(self, monkeypatch):
        # thread 0 scores small, small, large, small: one area for the two
        # small grids, regrown for the large one and kept for the small one
        # after it; threads 1 and 2 score the small grid beside it, each in
        # an area of its own. More threads than cores, switched often, and
        # every value bitwise the plain expressions', in a larger area too
        small = GridSpec(nlat=19, nlon=36, lat_start=90.0, dlat=10.0, lon_start=0.0,
                         dlon=10.0)
        large = GridSpec(nlat=91, nlon=180, lat_start=90.0, dlat=2.0, lon_start=0.0,
                         dlon=2.0)
        regions = {"global": GLOBAL, "east_asia": EAST_ASIA}
        rng = np.random.default_rng(16)
        planes = {g: [rng.standard_normal(g.shape, dtype=np.float32) for _ in range(3)]
                  for g in (small, large)}
        want = {g: {(name, metric): value for name, box in regions.items()
                    for metric, value in expression_scores(*planes[g], g, box).items()}
                for g in planes}
        areas: dict = {}   # thread name -> the work area of each cell, in order
        score_cell = verify._score_cell

        def spy(f, o, c, w, work, var_o=None):
            areas.setdefault(threading.current_thread().name, []).append(work)
            return score_cell(f, o, c, w, work, var_o)

        monkeypatch.setattr(verify, "_score_cell", spy)
        orders = [[small, small, large, small], [small], [small]]
        got = [[] for _ in orders]
        start = threading.Barrier(len(orders), timeout=10)

        def score(k):
            start.wait()
            for grid in orders[k]:
                records, errors = evaluate_run(24, *(plane_state(x, grid, label) for x, label
                                                     in zip(planes[grid], ("fc", "truth", "clim"))),
                                               regions, MSLP)
                got[k].append((grid, errors, {(r.region, r.metric): r.value for r in records}))

        threads = [threading.Thread(target=score, args=(k,), name=f"scorer{k}")
                   for k in range(len(orders))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(errors == [] and values == want[grid]
                   for calls in got for grid, errors, values in calls)
        cells = len(regions)   # per call: one report channel in each region
        first, regrown = areas["scorer0"][0], areas["scorer0"][2 * cells]
        assert all(a is first for a in areas["scorer0"][:2 * cells])
        assert all(a is regrown for a in areas["scorer0"][2 * cells:])
        assert len(areas["scorer0"]) == 4 * cells and regrown.shape[1] > first.shape[1]
        others = [areas[f"scorer{k}"] for k in (1, 2)]
        assert all(len(a) == cells and all(w is a[0] for w in a) for a in others)
        assert len({id(w) for w in (first, regrown, others[0][0], others[1][0])}) == 4
        assert first.shape[1] == small.nlat * small.nlon   # sized for the block alone

    def test_a_scored_forecast_is_freed_on_return(self, monkeypatch):
        # with no garbage collection, as between two collections in a run: a
        # reference cycle through the kernel would keep each forecast alive
        monkeypatch.setattr(verify, "LEAF", 128)
        grid = GridSpec(nlat=19, nlon=36, lat_start=90.0, dlat=10.0, lon_start=0.0,
                        dlon=10.0)
        fc, truth, clim = score_planes(2, grid, seed=15)
        refs = [weakref.ref(fc), weakref.ref(fc.data)]
        gc.disable()
        try:
            records, _ = evaluate_run(24, fc, truth, clim, {"global": GLOBAL},
                                      truth.channels)
            del fc
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
        assert len(records) == 2 * 2

    @settings(max_examples=40, deadline=None)
    @given(case=scoring_cases())
    def test_a_shared_var_o_memo_changes_no_score(self, case):
        grid, box, f, o, c = case
        assume(region_mask(grid, box).any())
        regions = {"global": GLOBAL, "box": box}
        truth, clim = plane_state(o, grid, "truth"), plane_state(c, grid, "clim")
        forecasts = [plane_state(x, grid, "fc") for x in (f, f[::-1].copy(), f * 2, -f)]
        want = [evaluate_run(24, fc, truth, clim, regions, MSLP) for fc in forecasts]
        memo: dict = {}
        assert [evaluate_run(24, fc, truth, clim, regions, MSLP, memo)
                for fc in forecasts] == want
        assert len(memo) == 2
        # more threads than cores fill one memo at once, as run_experiment's
        # workers do, switching often
        memo, got = {}, [None] * len(forecasts)
        start = threading.Barrier(len(forecasts), timeout=10)

        def score(k):
            start.wait()
            got[k] = evaluate_run(24, forecasts[k], truth, clim, regions, MSLP, memo)

        threads = [threading.Thread(target=score, args=(k,)) for k in range(len(forecasts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want and len(memo) == 2


class TestRegionBlock:
    def test_contiguous_box_indexes_to_views(self, small_grid):
        f = np.arange(small_grid.nlat * small_grid.nlon,
                      dtype=np.float32).reshape(small_grid.shape)
        for box in (GLOBAL, EAST_ASIA, RegionBox(90.0, 90.0, 0.0, 359.0)):
            block, w = region_block(small_grid, box)
            assert np.shares_memory(f[block], f)
            assert w.flags.c_contiguous and w.shape == f[block].shape

    def test_box_through_360_is_gathered(self, small_grid):
        # lon_max 360 takes in 0 degrees: columns 0 and 14-15 of the 16
        f = np.zeros(small_grid.shape, dtype=np.float32)
        box = RegionBox(-45.0, 45.0, 315.0, 360.0)
        block, w = region_block(small_grid, box)
        assert not np.shares_memory(f[block], f)
        assert f[block].shape == w.shape == (5, 3)
        assert np.array_equal(w, lat_weights(small_grid, region_mask(small_grid, box))[
            np.ix_(range(2, 7), [0, 14, 15])])

    @pytest.mark.parametrize("box", [GLOBAL, EAST_ASIA], ids=["global", "east_asia"])
    def test_canonical_weights_are_built_in_one_grid_array(self, box):
        # one 721x1440 float64 array is 7.9 MiB; the mask and its complement
        # 1 MiB each; four float64 temporaries took 16.8 MiB
        grid = GridSpec.canonical()
        tracemalloc.start()
        try:
            region_block.__wrapped__(grid, box)   # not the cached one
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
