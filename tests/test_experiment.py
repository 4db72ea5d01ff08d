import dataclasses
import sys
import textwrap
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
import yaml

from nwpeval import experiment
from nwpeval.archive import ingest_raw, write_archive
from nwpeval.experiment import (ConfigError, ExperimentConfig, ICSource,
                                SpliceScenario, load_config, parse_channel,
                                run_experiment, write_metric_csv)
from nwpeval.grids import CHANNELS, EAST_ASIA, GLOBAL, GridSpec, Var, channel_name
from nwpeval.plots import PlotInputError, read_metric_csv
from nwpeval.rollout import BackendSpec
from nwpeval.splice import SpliceSpec
from nwpeval.synthetic import default_time, make_climatology, make_state, perturb

LEADS = tuple(range(24, 241, 24))


def build_inputs(tmp_path, grid, n_sources=2):
    """Truth series held constant plus noisy IC archives per source."""
    truth = make_state(grid, seed=1, source_label="era5")
    for lead in LEADS:
        t = truth.replace(valid_time=truth.valid_time + timedelta(hours=lead))
        write_archive(t, str(tmp_path / f"truth_{lead}.nws"))
    clim = make_climatology(grid)
    write_archive(clim, str(tmp_path / "clim.nws"))
    labels = []
    for n in range(n_sources):
        label = f"src{n}"
        ic = perturb(truth, seed=100 + n, source_label=label)
        write_archive(ic, str(tmp_path / f"{label}.nws"))
        labels.append(label)
    return labels


def make_config(tmp_path, grid, labels, scenarios=(), leads=LEADS):
    return ExperimentConfig(
        name="test",
        init_time=default_time(),
        ic_sources=tuple(ICSource(label=lb, path=str(tmp_path / f"{lb}.nws"))
                         for lb in labels),
        truth_pattern=str(tmp_path / "truth_{lead}.nws"),
        climatology_path=str(tmp_path / "clim.nws"),
        backend=BackendSpec(builtin="persistence"),
        output_dir=str(tmp_path / "out"),
        lead_hours=leads,
        splice_scenarios=tuple(scenarios),
        model_grid=grid,
        workers=2,
    )


class TestRunExperiment:
    def test_row_and_plot_counts(self, tmp_path, small_grid):
        labels = build_inputs(tmp_path, small_grid)
        report = run_experiment(make_config(tmp_path, small_grid, labels))
        assert report.failures == {}
        rows = read_metric_csv(str(report.csv_path))
        assert len(rows) == 2 * 9 * 2 * 10 * 2
        assert len(report.plot_files) == 9 * 2 * 2

    def test_rerun_is_byte_identical(self, tmp_path, small_grid):
        labels = build_inputs(tmp_path, small_grid)
        cfg = make_config(tmp_path, small_grid, labels)
        r1 = run_experiment(cfg)
        first_csv = r1.csv_path.read_bytes()
        first_svgs = {p.name: p.read_bytes() for p in r1.plot_files}
        r2 = run_experiment(cfg)
        assert r2.csv_path.read_bytes() == first_csv
        for p in r2.plot_files:
            assert p.read_bytes() == first_svgs[p.name]

    def test_persistence_on_constant_truth_gives_zero_rmse(self, tmp_path, small_grid):
        truth = make_state(small_grid, seed=1, source_label="era5")
        for lead in LEADS:
            t = truth.replace(valid_time=truth.valid_time + timedelta(hours=lead))
            write_archive(t, str(tmp_path / f"truth_{lead}.nws"))
        write_archive(make_climatology(small_grid), str(tmp_path / "clim.nws"))
        write_archive(truth.replace(source_label="perfect"),
                      str(tmp_path / "perfect.nws"))
        cfg = make_config(tmp_path, small_grid, ["perfect"])
        report = run_experiment(cfg)
        for row in read_metric_csv(str(report.csv_path)):
            if row["metric"] == "RMSE":
                assert float(row["value"]) == 0.0

    def test_splice_scenario_adds_runs(self, tmp_path, small_grid):
        labels = build_inputs(tmp_path, small_grid)
        scenario = SpliceScenario(label="donorpadbase", base_source=labels[0],
                                  donor_source=labels[1],
                                  spec=SpliceSpec(region=EAST_ASIA))
        cfg = make_config(tmp_path, small_grid, labels, scenarios=[scenario])
        report = run_experiment(cfg)
        rows = read_metric_csv(str(report.csv_path))
        assert {r["source"] for r in rows} == set(labels) | {"donorpadbase"}
        assert len(rows) == 3 * 9 * 2 * 10 * 2

    def test_truths_and_climatology_read_as_report_planes(self, tmp_path, small_grid,
                                                          monkeypatch):
        labels = build_inputs(tmp_path, small_grid)
        channels = ((Var.Z, 500), (Var.T2, 0))
        cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels, leads=(24, 48)),
                                  report_channels=channels)
        reads = []
        read_archive = experiment.read_archive

        def spy(path, channels=None):
            state = read_archive(path, channels)
            reads.append((Path(path).name, channels, state.data.shape[0]))
            return state

        monkeypatch.setattr(experiment, "read_archive", spy)
        report = run_experiment(cfg)
        assert report.failures == {}
        assert len(read_metric_csv(str(report.csv_path))) == 2 * 2 * 2 * 2 * 2
        assert reads == [("truth_24.nws", channels, 2), ("truth_48.nws", channels, 2),
                         ("clim.nws", channels, 2),
                         ("src0.nws", None, 69), ("src1.nws", None, 69)]

    def test_missing_truth_is_per_lead_not_fatal(self, tmp_path, small_grid):
        labels = build_inputs(tmp_path, small_grid)
        (tmp_path / "truth_48.nws").unlink()
        report = run_experiment(make_config(tmp_path, small_grid, labels))
        rows = read_metric_csv(str(report.csv_path))
        assert {int(r["lead_hours"]) for r in rows} == set(LEADS) - {48}
        assert "lead 48" in report.log_path.read_text()

    def test_truth_off_the_grid_is_logged_per_lead(self, tmp_path, small_grid,
                                                   coarse_grid):
        labels = build_inputs(tmp_path, small_grid)
        write_archive(make_state(coarse_grid, seed=1, source_label="era5"),
                      str(tmp_path / "truth_48.nws"))
        report = run_experiment(make_config(tmp_path, small_grid, labels, leads=(24, 48)))
        assert report.failures == {}
        rows = read_metric_csv(str(report.csv_path))
        assert {int(r["lead_hours"]) for r in rows} == {24}
        log = report.log_path.read_text()
        assert "truth: lead 48: truth era5 grid does not match the forecast grid" in log
        assert f"{labels[0]}: lead 48: no truth state" in log

    def test_broken_source_does_not_abort_others(self, tmp_path, small_grid):
        # a sound header passes validate(); the short payload fails that run
        # and the splice it donates to, no other
        labels = build_inputs(tmp_path, small_grid)
        path = tmp_path / f"{labels[1]}.nws"
        path.write_bytes(path.read_bytes()[:-5])
        scenario = SpliceScenario(label="pad", base_source=labels[0],
                                  donor_source=labels[1], spec=SpliceSpec(region=EAST_ASIA))
        report = run_experiment(make_config(tmp_path, small_grid, labels, [scenario]))
        assert labels[1] in report.failures
        assert report.failures["pad"] == "base or donor source failed to load"
        rows = read_metric_csv(str(report.csv_path))
        assert {r["source"] for r in rows} == {labels[0]}

    def test_failed_external_step_gives_no_rows(self, tmp_path, small_grid,
                                                 monkeypatch):
        # src1's backend fails at step 2, after lead 24 was emitted and scored
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: small_grid))
        labels = build_inputs(tmp_path, small_grid)
        script = tmp_path / "backend.py"
        script.write_text(textwrap.dedent(f"""\
            import argparse, shutil, sys
            from nwpeval.archive import read_header
            p = argparse.ArgumentParser()
            p.add_argument("--in", dest="infile"); p.add_argument("--out")
            p.add_argument("--step-hours")
            a = p.parse_args()
            if read_header(a.infile)["source_label"] == "src1" and \\
                    a.infile.endswith("step001.nws"):
                sys.exit("no step 2 for src1")
            shutil.copyfile(a.infile, a.out)
            """))
        backend = BackendSpec(kind="external-command",
                              command=f"{sys.executable} {script}", horizons={24})
        cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels,
                                              leads=(24, 48, 72)), backend=backend)
        report = run_experiment(cfg)
        assert list(report.failures) == ["src1"]
        assert "step 2" in report.failures["src1"]
        rows = read_metric_csv(str(report.csv_path))
        assert {r["source"] for r in rows} == {"src0"}
        assert len(rows) == 9 * 2 * 3 * 2


class TestMemory:
    def test_peak_does_not_grow_a_state_per_lead(self, tmp_path):
        # tracemalloc sees numpy buffers; one 37x72 state is 0.70 MiB
        grid = GridSpec(nlat=37, nlon=72, lat_start=90.0, dlat=5.0,
                        lon_start=0.0, dlon=5.0)
        labels = build_inputs(tmp_path, grid)
        state_bytes = len(CHANNELS) * grid.nlat * grid.nlon * 4
        peaks = {}
        for n in (2, 10):
            cfg = dataclasses.replace(make_config(tmp_path, grid, labels, leads=LEADS[:n]),
                                      output_dir=str(tmp_path / f"out{n}"), workers=1)
            tracemalloc.start()
            try:
                report = run_experiment(cfg)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.failures == {}
        assert peaks[10] - peaks[2] < 2 * state_bytes

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="Python 3.10 keeps a call's arguments referenced by "
                               "the caller until it returns, so the IC outlives step 1")
    def test_external_run_holds_under_two_states(self, tmp_path, monkeypatch):
        # IC handed over and dropped once on disk, archive written from the
        # array, finiteness checked plane by plane: one 91x180 state is 4.3 MiB
        grid = GridSpec(nlat=91, nlon=180, lat_start=90.0, dlat=2.0,
                        lon_start=0.0, dlon=2.0)
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: grid))
        labels = build_inputs(tmp_path, grid, n_sources=1)
        script = tmp_path / "backend.py"
        script.write_text(textwrap.dedent("""\
            import argparse, shutil
            p = argparse.ArgumentParser()
            p.add_argument("--in", dest="infile"); p.add_argument("--out")
            p.add_argument("--step-hours")
            a = p.parse_args()
            shutil.copyfile(a.infile, a.out)
            """))
        backend = BackendSpec(kind="external-command",
                              command=f"{sys.executable} {script}", horizons={24})
        cfg = dataclasses.replace(make_config(tmp_path, grid, labels, leads=(24, 48, 72)),
                                  backend=backend, workers=1)
        state_bytes = len(CHANNELS) * grid.nlat * grid.nlon * 4
        scored = []
        evaluate_run = experiment.evaluate_run
        monkeypatch.setattr(experiment, "evaluate_run", lambda lead, fc, *a:
                            scored.append(fc.channels) or evaluate_run(lead, fc, *a))
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.failures == {}
        assert len(read_metric_csv(str(report.csv_path))) == 9 * 2 * 3 * 2
        assert peak < 2 * state_bytes
        # each step's output is read as the report planes alone
        assert scored == [cfg.report_channels] * 3


class TestConfigValidation:
    def test_empty_sources_rejected(self, tmp_path, small_grid):
        cfg = make_config(tmp_path, small_grid, [])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_duplicate_labels_rejected(self, tmp_path, small_grid):
        labels = build_inputs(tmp_path, small_grid)
        cfg = make_config(tmp_path, small_grid, [labels[0], labels[0]])
        with pytest.raises(ConfigError, match="unique"):
            cfg.validate()

    def test_unknown_scenario_source(self, tmp_path, small_grid):
        labels = build_inputs(tmp_path, small_grid)
        sc = SpliceScenario(label="x", base_source="nope", donor_source=labels[0],
                            spec=SpliceSpec(region=EAST_ASIA))
        cfg = make_config(tmp_path, small_grid, labels, scenarios=[sc])
        with pytest.raises(ConfigError, match="unknown source"):
            cfg.validate()

    def test_lead_not_divisible(self, tmp_path, small_grid):
        labels = build_inputs(tmp_path, small_grid)
        cfg = make_config(tmp_path, small_grid, labels, leads=(23,))
        with pytest.raises(ConfigError, match="divisible"):
            cfg.validate()

    def test_missing_source_file(self, tmp_path, small_grid):
        build_inputs(tmp_path, small_grid)
        cfg = make_config(tmp_path, small_grid, ["ghost"])
        with pytest.raises(ConfigError, match="missing file"):
            cfg.validate()

    @pytest.mark.parametrize("init_time,ok", [
        (datetime(2023, 6, 6), True),   # naive: taken as UTC
        (datetime(2023, 6, 6, 2, tzinfo=timezone(timedelta(hours=2))), True),
        (datetime(2023, 6, 6, 6, tzinfo=timezone.utc), False),
    ])
    def test_nws_ic_time_is_init_time_in_utc(self, tmp_path, small_grid, init_time, ok):
        labels = build_inputs(tmp_path, small_grid)   # ICs valid at 2023-06-06 00Z
        cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels),
                                  init_time=init_time)
        if ok:
            cfg.validate()
        else:
            with pytest.raises(ConfigError, match="'src0' is valid at 2023-06-06 00:00"):
                cfg.validate()

    def test_malformed_ic_header(self, tmp_path, small_grid):
        labels = build_inputs(tmp_path, small_grid)
        (tmp_path / f"{labels[1]}.nws").write_bytes(b"garbage!" * 64)
        with pytest.raises(ConfigError, match=f"source '{labels[1]}': bad magic"):
            make_config(tmp_path, small_grid, labels).validate()

    def test_malformed_climatology_header(self, tmp_path, small_grid):
        labels = build_inputs(tmp_path, small_grid)
        (tmp_path / "clim.nws").write_bytes(b"NWPSTAT1")
        with pytest.raises(ConfigError, match="climatology"):
            make_config(tmp_path, small_grid, labels).validate()


class TestYamlConfig:
    def test_load_and_run(self, tmp_path, small_grid):
        labels = build_inputs(tmp_path, small_grid)
        doc = {
            "name": "yaml-demo",
            "init_time": "2023-06-06T00:00:00Z",
            "grid": {"nlat": small_grid.nlat, "nlon": small_grid.nlon,
                     "lat_start": small_grid.lat_start, "dlat": small_grid.dlat,
                     "lon_start": small_grid.lon_start, "dlon": small_grid.dlon},
            "ic_sources": [{"label": lb, "path": f"{lb}.nws"} for lb in labels],
            "truth": "truth_{lead}.nws",
            "climatology": "clim.nws",
            "backend": {"kind": "builtin", "builtin": "persistence",
                        "horizons": [24]},
            "lead_hours": [24, 48],
            "regions": {"global": [-90, 90, 0, 360],
                        "east_asia": [-10, 60, 60, 150]},
            "splice_scenarios": [{"label": "pad", "base_source": labels[0],
                                  "donor_source": labels[1],
                                  "box": [-10, 60, 60, 150]}],
            "output_dir": "out",
            "workers": 1,
        }
        cfg_path = tmp_path / "exp.yaml"
        cfg_path.write_text(yaml.safe_dump(doc))
        cfg = load_config(str(cfg_path))
        assert cfg.name == "yaml-demo"
        assert cfg.model_grid == small_grid
        assert cfg.snapshot_bytes == cfg_path.read_bytes()
        report = run_experiment(cfg)
        assert report.failures == {}
        rows = read_metric_csv(str(report.csv_path))
        assert len(rows) == 3 * 9 * 2 * 2 * 2
        import hashlib
        assert report.config_hash == hashlib.sha256(cfg.snapshot_bytes).hexdigest()
        snapshot = (tmp_path / "out" / "config_snapshot").read_bytes()
        assert snapshot == cfg_path.read_bytes()

    def test_channel_order_by_name(self, tmp_path, small_grid, monkeypatch):
        # a raw dump stored in reversed channel order with south-first rows
        state = make_state(small_grid, seed=3, source_label="raw")
        (tmp_path / "raw.bin").write_bytes(
            np.ascontiguousarray(state.data[::-1, ::-1, :], dtype="<f4").tobytes())
        build_inputs(tmp_path, small_grid, n_sources=0)
        grid = {"nlat": small_grid.nlat, "nlon": small_grid.nlon,
                "dlat": small_grid.dlat, "dlon": small_grid.dlon}
        doc = {"init_time": "2023-06-06T00:00:00Z", "grid": grid,
               "ic_sources": [{"label": "raw", "path": "raw.bin", "grid": grid,
                               "layout": {"scan": "south-first", "channel_order": [
                                   channel_name(v, lvl) for v, lvl in CHANNELS[::-1]]}}],
               "truth": "truth_{lead}.nws", "climatology": "clim.nws",
               "lead_hours": [24], "output_dir": "out"}
        cfg_path = tmp_path / "exp.yaml"
        cfg_path.write_text(yaml.safe_dump(doc))
        src = load_config(str(cfg_path)).ic_sources[0]
        out = ingest_raw(src.path, src.grid, src.layout,
                         valid_time=state.valid_time, source_label="raw")
        assert np.array_equal(out.data, state.data)
        # and run: validate accepts the dump, which is ingested into the run
        ingested = []
        monkeypatch.setattr(experiment, "ingest_raw", lambda *a, **k:
                            ingested.append(ingest_raw(*a, **k)) or ingested[-1])
        report = run_experiment(load_config(str(cfg_path)))
        assert report.failures == {}
        assert [(s.source_label, s.valid_time) for s in ingested] == [("raw", default_time())]
        assert np.array_equal(ingested[0].data, state.data)
        assert len(read_metric_csv(str(report.csv_path))) == 9 * 2 * 2

    def test_missing_key(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("name: x\n")
        with pytest.raises(ConfigError, match="missing required key"):
            load_config(str(p))

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("{::::")
        with pytest.raises(ConfigError):
            load_config(str(p))


class TestParseChannel:
    @pytest.mark.parametrize("name,var,level", [
        ("MSLP", Var.MSLP, 0), ("T2", Var.T2, 0),
        ("Z500", Var.Z, 500), ("Q850", Var.Q, 850), ("U10", Var.U10, 0),
        ("V100", Var.V, 100), ("T50", Var.T, 50),
    ])
    def test_valid(self, name, var, level):
        assert parse_channel(name) == (var, level)

    def test_invalid(self):
        for name in ("X9", "Z", "Z501", "Z0500", "MSLP0", "z500", " Z500"):
            with pytest.raises(ConfigError, match="unknown channel"):
                parse_channel(name)

    def test_every_channel_name_round_trips(self):
        assert [parse_channel(channel_name(*c)) for c in CHANNELS] == list(CHANNELS)
