import dataclasses
import hashlib
import os
import signal
import struct
import sys
import textwrap
import threading
import time
import tracemalloc
import weakref
from collections import Counter
from contextlib import closing
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from nwpeval import experiment, rollout
from nwpeval.archive import (RawDumpLayout, archive_bytes, ingest_raw, read_archive,
                            read_header, write_archive)
from nwpeval.experiment import (ConfigError, ExperimentConfig, ICSource, SpliceScenario,
                                load_config, open_input, parse_channel,
                                run_experiment, write_metric_csv)
from nwpeval.grids import (CHANNELS, DEFAULT_REGIONS, EAST_ASIA, GLOBAL, GridSpec,
                           RegionBox, StateSet, Var, channel_name)
from nwpeval.plots import PlotInputError, read_metric_csv
from nwpeval.regrid import regrid_state
from nwpeval.rollout import BackendSpec, builtin_step
from nwpeval.splice import SpliceSpec, splice_states
from nwpeval.synthetic import default_time, make_climatology, make_state, perturb
from nwpeval.verify import DEFAULT_REPORT_CHANNELS, evaluate_run, region_block
from tests.conftest import name_of, random_state, spy_payload_reads, spy_plane_reader

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

    def test_logged_config_hash_is_the_snapshots(self, tmp_path, small_grid):
        labels = build_inputs(tmp_path, small_grid, n_sources=1)
        report = run_experiment(make_config(tmp_path, small_grid, labels, leads=LEADS[:1]))
        snapshot = (tmp_path / "out" / "config_snapshot").read_bytes()
        assert report.config_hash == hashlib.sha256(snapshot).hexdigest()
        assert f"config sha256: {report.config_hash}" in \
            report.log_path.read_text().splitlines()

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

    def test_outputs_do_not_depend_on_workers(self, tmp_path, small_grid):
        # runs of one lead share its truth and var_o across threads; with more
        # workers than cores and threads switched often, a lost update or a
        # row scored at another lead would show as a difference
        labels = build_inputs(tmp_path, small_grid, n_sources=4)
        (tmp_path / "truth_72.nws").unlink()
        scenario = SpliceScenario(label="pad", base_source=labels[0],
                                  donor_source=labels[1], spec=SpliceSpec(region=EAST_ASIA))
        outputs = []
        for workers in (1, 5):
            cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels, [scenario],
                                                  leads=LEADS[:5]),
                                      output_dir=str(tmp_path / f"out{workers}"),
                                      workers=workers)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                report = run_experiment(cfg)
            finally:
                sys.setswitchinterval(interval)
            log = [line for line in report.log_path.read_text().splitlines()
                   if not line.startswith("config sha256")]
            outputs.append((report.csv_path.read_bytes(), log))
        assert outputs[0] == outputs[1]
        assert "src3: lead 72: no truth state" in outputs[0][1]

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

    @pytest.mark.parametrize("kind", ["builtin", "external-command"])
    def test_truths_and_climatology_read_as_report_planes(self, tmp_path, small_grid,
                                                          monkeypatch, kind):
        labels = build_inputs(tmp_path, small_grid)
        channels = ((Var.Z, 500), (Var.T2, 0))
        cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels, leads=(24, 48)),
                                  report_channels=channels)
        if kind != "builtin":
            cfg = dataclasses.replace(cfg, backend=copy_backend(tmp_path, monkeypatch,
                                                                small_grid))
        reads = []
        spy_plane_reader(monkeypatch, lambda path, channels, plane:
                         reads.append((name_of(path), channels, len(channels))))
        report = run_experiment(cfg)
        assert report.failures == {}
        assert len(read_metric_csv(str(report.csv_path))) == 2 * 2 * 2 * 2 * 2
        # the climatology first, as a config input: validate() checks its
        # header and payload size, then it is opened again for its report
        # planes, read in file order; validate() opens the on-grid ICs for
        # their headers only: the rollout takes their paths; then each
        # truth's header is checked, a lead ahead and in lead order, and
        # each report plane read once, by the first run to score it
        clim = [("clim.nws", (ch,), 1) for ch in sorted(channels, key=CHANNELS.index)]
        assert [r for r in reads if not r[0].startswith(("src", "truth_", "step"))] == [
            ("clim.nws", (), 0), ("clim.nws", (), 0), *clim]
        assert reads.index(clim[-1]) < min(k for k, r in enumerate(reads)
                                           if r[0].startswith("truth_"))
        for lead in (24, 48):
            assert [r for r in reads if r[0] == f"truth_{lead}.nws"] == [
                (f"truth_{lead}.nws", (), 0),
                *((f"truth_{lead}.nws", (ch,), 1) for ch in channels)]
        assert [r[0] for r in reads if r[0].startswith("truth_") and not r[2]] == [
            "truth_24.nws", "truth_48.nws"]
        # each IC: its header, in validate() and in the rollout, then, in the
        # run's worker, every plane once as the builtin rollout checks it; an
        # external backend's step 1 reads the file itself, so nwpeval reads
        # none of its planes
        for label in labels:
            planes = [(f"{label}.nws", (ch,), 1) for ch in CHANNELS] * (kind == "builtin")
            assert [r for r in reads if r[0] == f"{label}.nws"] == [
                (f"{label}.nws", (), 0)] * 2 + planes
        assert [r[0] for r in reads if r[0].startswith("src")][:2] == ["src0.nws", "src1.nws"]

    def test_missing_truth_is_per_lead_not_fatal(self, tmp_path, small_grid):
        labels = build_inputs(tmp_path, small_grid)
        (tmp_path / "truth_48.nws").unlink()
        report = run_experiment(make_config(tmp_path, small_grid, labels))
        rows = read_metric_csv(str(report.csv_path))
        assert {int(r["lead_hours"]) for r in rows} == set(LEADS) - {48}
        assert "lead 48" in report.log_path.read_text()

    def test_truth_off_the_grid_is_logged_per_lead(self, tmp_path, small_grid,
                                                   coarse_grid, monkeypatch):
        labels = build_inputs(tmp_path, small_grid)
        write_archive(make_state(coarse_grid, seed=1, source_label="era5"),
                      str(tmp_path / "truth_48.nws"))
        reads = []   # its header is read, and refused, before any plane is
        spy_plane_reader(monkeypatch, lambda path, channels, plane:
                         channels and reads.append(name_of(path)))
        report = run_experiment(make_config(tmp_path, small_grid, labels, leads=(24, 48)))
        assert "truth_24.nws" in reads and "truth_48.nws" not in reads
        assert report.failures == {}
        rows = read_metric_csv(str(report.csv_path))
        assert {int(r["lead_hours"]) for r in rows} == {24}
        log = report.log_path.read_text()
        truth = tmp_path / "truth_48.nws"
        assert (f"truth: lead 48: truth {truth} is off the grid: on {coarse_grid}, "
                f"not {small_grid}") in log
        assert f"{labels[0]}: lead 48: no truth state" in log

    def test_broken_source_does_not_abort_others(self, tmp_path, small_grid):
        # validate() reads no plane, so a NaN passes it; it fails that run
        # and the splice it donates to, no other
        labels = build_inputs(tmp_path, small_grid)
        path = tmp_path / f"{labels[1]}.nws"
        src = read_archive(str(path))
        data = src.data.copy()
        data[CHANNELS.index((Var.T, 850)), 5, 7] = np.nan
        write_archive(src.replace(data=data), str(path))
        scenario = SpliceScenario(label="pad", base_source=labels[0],
                                  donor_source=labels[1], spec=SpliceSpec(region=EAST_ASIA))
        report = run_experiment(make_config(tmp_path, small_grid, labels, [scenario]))
        assert labels[1] in report.failures
        assert report.failures["pad"] == "base or donor source failed to load"
        rows = read_metric_csv(str(report.csv_path))
        assert {r["source"] for r in rows} == {labels[0]}

    def test_a_failed_plot_leaves_the_log_and_snapshot(self, tmp_path, small_grid,
                                                       monkeypatch):
        # run.log and config_snapshot are written before the plots, so a run
        # whose plots cannot be drawn still explains itself
        labels = build_inputs(tmp_path, small_grid)
        cfg = make_config(tmp_path, small_grid, labels, [SpliceScenario(
            label="pad", base_source=labels[0], donor_source=labels[1],
            spec=SpliceSpec(region=EAST_ASIA))])
        expected = run_experiment(cfg)
        log_bytes = expected.log_path.read_bytes()
        snapshot = (tmp_path / "out" / "config_snapshot").read_bytes()
        for name in ("run.log", "config_snapshot"):
            (tmp_path / "out" / name).unlink()

        def no_plots(csv_path, output_dir):
            raise OSError("disk full")

        monkeypatch.setattr(experiment, "emit_plots", no_plots)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(cfg)
        log = (tmp_path / "out" / "run.log").read_bytes()
        assert log == log_bytes
        assert f"runs: {', '.join(labels + ['pad'])}\n".encode() in log
        assert (tmp_path / "out" / "config_snapshot").read_bytes() == snapshot

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

    @pytest.mark.parametrize("truncated", [False, True])
    def test_on_grid_ic_goes_to_the_backend_by_path(self, tmp_path, small_grid,
                                                    monkeypatch, truncated):
        # the backend's step 1 reads src0.nws itself, which is left as it was,
        # and rows carry the run's label, not the header's; a short payload
        # is a config error, before any payload is read or backend started
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: small_grid))
        labels = build_inputs(tmp_path, small_grid, n_sources=1)
        ic = tmp_path / "src0.nws"
        write_archive(read_archive(str(ic)).replace(source_label="analysis"), str(ic))
        if truncated:
            ic.write_bytes(ic.read_bytes()[:-5])
        before = ic.read_bytes()
        starts = []
        start = rollout._start_backend
        monkeypatch.setattr(rollout, "_start_backend",
                            lambda src, *a: starts.append(str(src)) or start(src, *a))
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
        cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels,
                                              leads=(24, 48)), backend=backend)
        if truncated:
            payload_reads = spy_payload_reads(monkeypatch)
            with pytest.raises(ConfigError,
                               match="source 'src0': payload truncated in channel V50"):
                run_experiment(cfg)
            assert ic.read_bytes() == before
            assert starts == [] and payload_reads == []
            return
        report = run_experiment(cfg)
        assert ic.read_bytes() == before
        assert report.failures == {}
        assert starts[0] == str(ic) and len(starts) == 2
        rows = read_metric_csv(str(report.csv_path))
        assert {r["source"] for r in rows} == {"src0"} and len(rows) == 9 * 2 * 2 * 2


    @pytest.mark.parametrize("how", ["regridded", "spliced"])
    def test_nan_in_a_plane_not_reported_fails_at_load(self, tmp_path, small_grid,
                                                       coarse_grid, how):
        # the NaN would reach no score, yet the source is refused as it is
        # read, not blamed on the backend once stepped
        labels = build_inputs(tmp_path, small_grid)
        src = make_state(coarse_grid if how == "regridded" else small_grid, seed=4,
                         source_label="bad")
        data = src.data.copy()
        data[CHANNELS.index((Var.T, 850)), 5, 7] = np.nan
        write_archive(src.replace(data=data), str(tmp_path / "bad.nws"))
        scenarios = []
        if how == "spliced":
            scenarios = [SpliceScenario(label="pad", base_source="bad",
                                        donor_source=labels[0],
                                        spec=SpliceSpec(region=EAST_ASIA))]
        cfg = make_config(tmp_path, small_grid, labels + ["bad"], scenarios,
                          leads=(24, 48))
        report = run_experiment(cfg)
        assert report.failures.pop("bad") == "ingest failed: plane T850 contains NaN/Inf"
        assert report.failures == ({"pad": "base or donor source failed to load"}
                                   if how == "spliced" else {})
        assert "FAILED bad: ingest failed: plane T850 contains NaN/Inf" \
            in report.log_path.read_text()
        rows = read_metric_csv(str(report.csv_path))
        assert {r["source"] for r in rows} == set(labels)


def write_raw(state, path, layout):
    """A headerless dump of `state` as `layout` stores it."""
    planes = np.stack([state.channel(*ch) for ch in layout.channel_order])
    if layout.scan == "south-first":
        planes = planes[:, ::-1]
    path.write_bytes(np.ascontiguousarray(planes, dtype="<f4").tobytes())


class TestReportPlaneRun:
    """A builtin run carries only the report planes, yet scores as if every
    state were whole: the oracle reads all 69 planes of each source, then
    regrids, splices, steps and scores them one call at a time."""

    OFF_GRIDS = [GridSpec(nlat=7, nlon=12, lat_start=90.0, dlat=30.0,
                          lon_start=0.0, dlon=30.0),
                 GridSpec(nlat=13, nlon=20, lat_start=90.0, dlat=15.0,
                          lon_start=0.0, dlon=18.0)]
    BOXES = [EAST_ASIA, RegionBox(-50.0, 20.0, 200.0, 330.0),
             RegionBox(30.0, 90.0, 0.0, 90.0)]

    @settings(max_examples=12, deadline=None)
    @given(builtin=st.sampled_from(["persistence", "advection"]),
           cells=st.integers(1, 5), seed=st.integers(0, 10_000), data=st.data())
    def test_scores_equal_a_whole_state_run(self, tmp_path_factory, builtin, cells,
                                            seed, data):
        tmp_path = tmp_path_factory.mktemp("run")
        model = GridSpec(nlat=9, nlon=16, lat_start=90.0, dlat=22.5,
                         lon_start=0.0, dlon=22.5)
        init, leads = default_time(), (0, 24, 48)
        n_report = data.draw(st.integers(1, 5))
        report = tuple(data.draw(st.permutations(CHANNELS))[:n_report])
        for lead in leads:
            truth = random_state(model, seed + lead)
            write_archive(truth.replace(valid_time=init + timedelta(hours=lead)),
                          str(tmp_path / f"truth_{lead}.nws"))
        write_archive(make_climatology(model), str(tmp_path / "clim.nws"))
        # every kind of source: archive or raw dump, on or off the model grid
        sources = []
        for k, (kind, on_grid) in enumerate([("nws", True), ("nws", False),
                                             ("raw", True), ("raw", False)]):
            grid = model if on_grid else data.draw(st.sampled_from(self.OFF_GRIDS))
            state = random_state(grid, seed + 100 + k, label=f"s{k}")
            if kind == "nws":
                path = tmp_path / f"s{k}.nws"
                write_archive(state, str(path))
                sources.append(ICSource(label=f"s{k}", path=str(path)))
                continue
            layout = RawDumpLayout(channel_order=data.draw(st.permutations(CHANNELS)),
                                   scan=data.draw(st.sampled_from(["north-first",
                                                                   "south-first"])))
            path = tmp_path / f"s{k}.bin"
            write_raw(state, path, layout)
            sources.append(ICSource(label=f"s{k}", path=str(path), grid=grid,
                                    layout=layout))
        # both scopes, each hard and feathered; s0 is in no splice, so its
        # on-grid archive goes to the rollout by path
        scenarios = []
        for scope in ("upper-only", "all-channels"):
            for blend in (0.0, data.draw(st.floats(1.0, 60.0))):
                base, donor = data.draw(st.permutations(["s1", "s2", "s3"]))[:2]
                spec = SpliceSpec(region=data.draw(st.sampled_from(self.BOXES)),
                                  variable_scope=scope, blend_width=blend)
                scenarios.append(SpliceScenario(label=f"{scope}-{blend:g}",
                                                base_source=base, donor_source=donor,
                                                spec=spec))
        backend = BackendSpec(builtin=builtin, advection_cells=cells, horizons={24})
        cfg = ExperimentConfig(
            name="subset", init_time=init, ic_sources=tuple(sources),
            truth_pattern=str(tmp_path / "truth_{lead}.nws"),
            climatology_path=str(tmp_path / "clim.nws"), backend=backend,
            output_dir=str(tmp_path / "out"), lead_hours=leads,
            splice_scenarios=tuple(scenarios), report_channels=report,
            model_grid=model, workers=2)

        scored = []
        evaluate_run = experiment.evaluate_run
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "evaluate_run", lambda lead, fc, *a:
                       scored.append(fc.channels) or evaluate_run(lead, fc, *a))
            run = run_experiment(cfg)
        assert run.failures == {}
        assert set(scored) == {report}   # the run carried the report planes alone

        whole = {}
        for src in sources:
            if src.layout is None:
                state = read_archive(src.path).replace(source_label=src.label)
            else:
                state = ingest_raw(src.path, src.grid, src.layout, valid_time=init,
                                   source_label=src.label)
            assert state.channels == CHANNELS
            whole[src.label] = regrid_state(state, model)
        for sc in scenarios:
            spliced = splice_states(whole[sc.base_source], whole[sc.donor_source], sc.spec)
            whole[sc.label] = spliced.replace(source_label=sc.label)
        clim = read_archive(str(tmp_path / "clim.nws"))
        want = []
        for label, state in whole.items():
            for lead in leads:
                if lead:
                    state = builtin_step(state, backend, 24)
                truth = read_archive(str(tmp_path / f"truth_{lead}.nws"))
                recs, errs = evaluate_run(lead, state, truth, clim, cfg.regions, report)
                assert errs == []
                want.extend(recs)
        write_metric_csv(want, tmp_path / "want.csv")
        assert run.csv_path.read_bytes() == (tmp_path / "want.csv").read_bytes()
        got = read_metric_csv(str(run.csv_path))
        assert len(got) == len(whole) * len(leads) * len(report) * 2 * 2


COPY_BACKEND = textwrap.dedent("""\
    import argparse, shutil
    p = argparse.ArgumentParser()
    p.add_argument("--in", dest="infile"); p.add_argument("--out")
    p.add_argument("--step-hours")
    a = p.parse_args()
    shutil.copyfile(a.infile, a.out)
    """)


def copy_backend(tmp_path, monkeypatch, grid) -> BackendSpec:
    """An external backend whose step copies its input, on `grid` taken as
    the canonical grid."""
    monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: grid))
    script = tmp_path / "backend.py"
    script.write_text(COPY_BACKEND)
    return BackendSpec(kind="external-command", command=f"{sys.executable} {script}",
                       horizons={24})


def truth_lead(path) -> int:
    return int(name_of(path)[len("truth_"):-len(".nws")])


def run_in_thread(cfg, timeout=120):
    """run_experiment(cfg) on a thread joined with `timeout`: (report, error)."""
    done = {}

    def target():
        try:
            done["report"] = run_experiment(cfg)
        except BaseException as exc:
            done["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "run_experiment deadlocked"
    return done.get("report"), done.get("error")


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

    def test_peak_does_not_grow_with_leads(self, tmp_path):
        # the matrix goes lead by lead, so 8 more leads add no truth to the
        # peak; one 91x180 truth's report planes are 0.59 MB (at 37x72 the
        # records of 8 more leads outweigh a truth)
        grid = GridSpec(nlat=91, nlon=180, lat_start=90.0, dlat=2.0,
                        lon_start=0.0, dlon=2.0)
        labels = build_inputs(tmp_path, grid)
        truth_bytes = len(DEFAULT_REPORT_CHANNELS) * grid.nlat * grid.nlon * 4
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
        assert peaks[10] - peaks[2] < truth_bytes

    def test_external_run_holds_under_two_states(self, tmp_path, monkeypatch):
        # IC handed over and dropped once on disk, archive written from the
        # array, finiteness checked plane by plane: one 91x180 state is 4.3 MiB
        grid = GridSpec(nlat=91, nlon=180, lat_start=90.0, dlat=2.0,
                        lon_start=0.0, dlon=2.0)
        labels = build_inputs(tmp_path, grid, n_sources=1)
        cfg = dataclasses.replace(make_config(tmp_path, grid, labels, leads=(24, 48, 72)),
                                  backend=copy_backend(tmp_path, monkeypatch, grid),
                                  workers=1)
        state_bytes = len(CHANNELS) * grid.nlat * grid.nlon * 4
        scored = []
        evaluate_run = experiment.evaluate_run
        monkeypatch.setattr(experiment, "evaluate_run", lambda lead, fc, *a:
                            scored.append(set(fc.unread)) or evaluate_run(lead, fc, *a))
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.failures == {}
        assert len(read_metric_csv(str(report.csv_path))) == 9 * 2 * 3 * 2
        assert peak < 2 * state_bytes
        # each step's output is scored unread: its report planes are read as
        # they are scored, every other plane is checked after
        assert scored == [set(CHANNELS)] * 3


    def test_scoring_a_canonical_lead_holds_two_truth_planes(self, tmp_path):
        # one run's lead on the 721x1440 grid, scored as run_experiment scores
        # a run alone at a lead: against a PlaneReader of the truth, which
        # holds a plane or two of 4.0 MiB where the truth's 9 report planes
        # were read whole; the work area is 2.1 MiB
        grid, channels = GridSpec.canonical(), DEFAULT_REPORT_CHANNELS
        valid = default_time() + timedelta(hours=24)
        rng = np.random.default_rng(3)
        truth, forecast, clim = (
            StateSet(valid_time=valid, source_label=label, grid=grid, channels=channels,
                     data=rng.standard_normal((len(channels),) + grid.shape,
                                              dtype=np.float32))
            for label in ("era5", "fc", "clim"))
        path = tmp_path / "truth_24.nws"
        write_sparse(truth, path)
        for box in DEFAULT_REGIONS.values():   # built once per run, before any lead
            region_block(grid, box)
        tracemalloc.start()
        try:
            with closing(open_input("truth", str(path), grid)) as reader:
                got = evaluate_run(24, forecast, reader, clim, DEFAULT_REGIONS, channels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == evaluate_run(24, forecast, truth, clim, DEFAULT_REGIONS, channels)
        assert len(got[0]) == 9 * 2 * 2 and got[1] == []
        assert peak < 3 * grid.nlat * grid.nlon * 4


    def test_scoring_a_canonical_external_lead_holds_two_planes_of_each(self, tmp_path):
        # an external run's lead on the 721x1440 grid, scored as run_experiment
        # scores a run alone at a lead: the step's output, opened as the
        # rollout yields it, against a reader of the truth. Each holds
        # a plane or two of 4.0 MiB, where the step's 9 report planes were
        # read whole; the work area is 2.1 MiB
        grid, channels = GridSpec.canonical(), DEFAULT_REPORT_CHANNELS
        valid = default_time() + timedelta(hours=24)
        rng = np.random.default_rng(5)
        truth, forecast, clim = (
            StateSet(valid_time=valid, source_label=label, grid=grid, channels=channels,
                     data=rng.standard_normal((len(channels),) + grid.shape,
                                              dtype=np.float32))
            for label in ("era5", "fc", "clim"))
        write_sparse(truth, tmp_path / "truth_24.nws")
        write_sparse(forecast, tmp_path / "step001.nws")
        for box in DEFAULT_REGIONS.values():   # built once per run, before any lead
            region_block(grid, box)
        tracemalloc.start()
        try:
            with closing(rollout._open_step(tmp_path / "step001.nws", 1, 24, None, valid,
                                            "fc")) as fc, \
                    closing(open_input("truth", str(tmp_path / "truth_24.nws"),
                                       grid)) as reader:
                got = evaluate_run(24, fc, reader, clim, DEFAULT_REGIONS, channels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == evaluate_run(24, forecast, truth, clim, DEFAULT_REGIONS, channels)
        assert len(got[0]) == 9 * 2 * 2 and got[1] == []
        assert peak < 5 * grid.nlat * grid.nlon * 4


def write_sparse(state, path):
    """An archive of a state of report planes on a large grid, its other
    planes left as holes that read as zeros and take no disk space: the
    header of a one-point state on the same grid geometry, with nlat and
    nlon (bytes 12-19) made the grid's, then each plane at its offset."""
    g = state.grid
    point = GridSpec(nlat=1, nlon=1, lat_start=g.lat_start, dlat=g.dlat,
                     lon_start=g.lon_start, dlon=g.dlon)
    head = bytearray(archive_bytes(make_state(point, seed=0, source_label=state.source_label)
                                   .replace(valid_time=state.valid_time))[:-len(CHANNELS) * 4])
    struct.pack_into("<II", head, 12, g.nlat, g.nlon)
    plane = g.nlat * g.nlon * 4
    with open(path, "wb") as fh:
        fh.write(head)
        for ch in state.channels:
            fh.seek(len(head) + CHANNELS.index(ch) * plane)
            fh.write(np.ascontiguousarray(state.channel(*ch), dtype="<f4"))
        fh.truncate(len(head) + len(CHANNELS) * plane)
    assert read_header(str(path))["grid"] == g


class TestProcessBudget:
    @pytest.mark.parametrize("runs, workers", [(3, 1), (3, 2), (2, 2)])
    def test_no_more_backend_processes_than_workers(self, tmp_path, small_grid,
                                                    monkeypatch, runs, workers):
        # each backend process holds a pid file while it runs and notes how
        # many it sees; a step started ahead of a paused run would be one more
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: small_grid))
        labels = build_inputs(tmp_path, small_grid, n_sources=runs)
        alive, seen = tmp_path / "alive", tmp_path / "seen"
        alive.mkdir()
        script = tmp_path / "backend.py"
        script.write_text(textwrap.dedent(f"""\
            import argparse, os, shutil, time
            p = argparse.ArgumentParser()
            p.add_argument("--in", dest="infile"); p.add_argument("--out")
            p.add_argument("--step-hours")
            a = p.parse_args()
            me = os.path.join({str(alive)!r}, str(os.getpid()))
            open(me, "w").close()
            with open({str(seen)!r}, "a") as fh:
                fh.write(f"{{len(os.listdir({str(alive)!r}))}}\\n")
            time.sleep(0.3)   # time enough for another run's step to start
            shutil.copyfile(a.infile, a.out)
            os.remove(me)
            """))
        backend = BackendSpec(kind="external-command",
                              command=f"{sys.executable} {script}", horizons={24})
        cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels,
                                              leads=(24, 48, 72)),
                                  backend=backend, workers=workers)
        report, error = run_in_thread(cfg)
        assert error is None and report.failures == {}
        assert len(read_metric_csv(str(report.csv_path))) == runs * 9 * 2 * 3 * 2
        counts = [int(n) for n in seen.read_text().split()]
        assert len(counts) == runs * 3
        assert max(counts) <= workers


def spy_truth_planes(monkeypatch, record):
    """Call record(lead, channels, plane) for each truth plane read."""
    def spy(path, channels, plane):
        if channels and name_of(path).startswith("truth_"):
            record(truth_lead(path), channels, plane)

    spy_plane_reader(monkeypatch, spy)


class TestTruthRule:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", ["builtin", "external-command"])
    def test_one_run_reads_a_truth_once_the_last_is_scored(self, tmp_path, small_grid,
                                                           monkeypatch, kind, workers):
        # a run alone reads each plane of a lead's truth as it scores it, and
        # the next lead's planes only once this lead is scored; the sleep
        # gives a read ahead time to happen while the lead is scored
        labels = build_inputs(tmp_path, small_grid, n_sources=1)
        cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels,
                                              leads=(24, 48, 72)), workers=workers)
        if kind != "builtin":
            cfg = dataclasses.replace(cfg, backend=copy_backend(tmp_path, monkeypatch,
                                                                small_grid))
        events, lock = [], threading.Lock()
        open_input, evaluate_run = experiment.open_input, experiment.evaluate_run

        def note(*event):
            with lock:
                events.append(event)

        def opening(what, path, *args, **kwargs):
            if what == "truth":   # the climatology is opened by the same name
                note("checked", truth_lead(path))
            return open_input(what, path, *args, **kwargs)

        def scoring(lead, *args):
            result = evaluate_run(lead, *args)
            time.sleep(0.05)
            note("scored", lead)
            return result

        monkeypatch.setattr(experiment, "open_input", opening)
        monkeypatch.setattr(experiment, "evaluate_run", scoring)
        spy_truth_planes(monkeypatch, lambda lead, channels, state: note("read", lead))
        report, error = run_in_thread(cfg)
        assert error is None and report.failures == {}
        for lead in (24, 48, 72):
            assert [event for event in events if event[1] == lead] == (
                [("checked", lead)] + [("read", lead)] * 9 + [("scored", lead)])
        for lead, next_lead in ((24, 48), (48, 72)):
            assert events.index(("scored", lead)) < events.index(("read", next_lead))

    def test_external_step_1_starts_before_any_truth_is_read(self, tmp_path, small_grid,
                                                             monkeypatch):
        # the truth's header is checked as the lead is queued; each of its
        # planes is read after step 1 has started and its output is opened,
        # as the run scores it
        labels = build_inputs(tmp_path, small_grid, n_sources=1)
        cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels, leads=(24,)),
                                  backend=copy_backend(tmp_path, monkeypatch, small_grid),
                                  workers=1)
        events = []
        start, open_step = rollout._start_backend, rollout._open_step
        monkeypatch.setattr(rollout, "_start_backend",
                            lambda *a: events.append("started") or start(*a))
        monkeypatch.setattr(rollout, "_open_step",   # its header checked
                            lambda *a: events.append("output") or open_step(*a))
        spy_truth_planes(monkeypatch, lambda *a: events.append("read"))
        report, error = run_in_thread(cfg)
        assert error is None and report.failures == {}
        assert events.index("started") < events.index("output") < events.index("read")
        assert events[events.index("output"):].count("read") == 9 == events.count("read")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("runs", [1, 3])
    def test_each_truth_plane_is_read_once(self, tmp_path, small_grid, monkeypatch,
                                           runs, workers):
        # threads switched often: a plane read twice, or dropped before
        # every run took it and read again, would show as a repeat
        labels = build_inputs(tmp_path, small_grid, n_sources=runs)
        cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels,
                                              leads=(24, 48, 72)), workers=workers)
        reads, lock = [], threading.Lock()

        def record(lead, channels, plane):
            with lock:
                reads.append((lead, channels))

        spy_truth_planes(monkeypatch, record)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report, error = run_in_thread(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert error is None and report.failures == {}
        assert len(read_metric_csv(str(report.csv_path))) == runs * 9 * 2 * 3 * 2
        assert Counter(reads) == Counter((lead, (ch,)) for lead in (24, 48, 72)
                                         for ch in DEFAULT_REPORT_CHANNELS)

    @pytest.mark.parametrize("kind", ["builtin", "external-command"])
    def test_a_lone_run_holds_at_most_two_truth_planes(self, tmp_path, small_grid,
                                                       monkeypatch, kind):
        # each plane read is probed by a weak reference: when a plane is read,
        # the planes still alive are the one being scored and itself
        labels = build_inputs(tmp_path, small_grid, n_sources=1)
        cfg = make_config(tmp_path, small_grid, labels, leads=(24, 48, 72))
        if kind != "builtin":
            cfg = dataclasses.replace(cfg, backend=copy_backend(tmp_path, monkeypatch,
                                                                small_grid))
        probes, held = [], []

        def record(lead, channels, plane):
            probes.append(weakref.ref(plane))
            held.append(sum(p() is not None for p in probes))

        spy_truth_planes(monkeypatch, record)
        report, error = run_in_thread(cfg)
        assert error is None and report.failures == {}
        assert len(held) == 3 * 9 and max(held) <= 2

    @pytest.mark.parametrize("runs", [1, 3])
    def test_a_failed_plane_read_costs_its_lead_alone(self, tmp_path, small_grid,
                                                      monkeypatch, runs):
        # truth_48 is cut short after its header is checked, before a plane
        # is read: every run loses that lead, none its run, and none hangs
        labels = build_inputs(tmp_path, small_grid, n_sources=runs)
        cfg = make_config(tmp_path, small_grid, labels, leads=(24, 48, 72))
        truth = tmp_path / "truth_48.nws"
        open_input = experiment.open_input

        def opening(what, path, *args, **kwargs):
            reader = open_input(what, path, *args, **kwargs)
            if path == str(truth):
                truth.write_bytes(truth.read_bytes()[:-7])
            return reader

        monkeypatch.setattr(experiment, "open_input", opening)
        report, error = run_in_thread(cfg, timeout=60)
        assert error is None and report.failures == {}
        rows = read_metric_csv(str(report.csv_path))
        assert len(rows) == runs * 9 * 2 * 2 * 2
        assert {int(r["lead_hours"]) for r in rows} == {24, 72}
        log = report.log_path.read_text()
        assert f"truth: lead 48: truth {truth}: payload truncated in channel V50" in log
        for label in labels:
            assert f"{label}: lead 48: no truth state" in log

    @pytest.mark.parametrize("at_lead", [24, 48])
    def test_a_failed_read_raises_without_a_hang(self, tmp_path, small_grid,
                                                        monkeypatch, at_lead):
        # raised as that lead is queued, before its tasks exist: the pool
        # ends the tasks already queued, none of which waits on a truth
        labels = build_inputs(tmp_path, small_grid, n_sources=3)
        cfg = make_config(tmp_path, small_grid, labels, leads=(24, 48, 72))
        open_input = experiment.open_input

        def opening(what, path, *args, **kwargs):
            if what == "truth" and truth_lead(path) == at_lead:
                raise RuntimeError("disk on fire")
            return open_input(what, path, *args, **kwargs)

        monkeypatch.setattr(experiment, "open_input", opening)
        report, error = run_in_thread(cfg, timeout=60)
        assert report is None
        assert isinstance(error, RuntimeError) and str(error) == "disk on fire"

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("runs", [1, 3])
    def test_at_most_two_truths_are_open(self, tmp_path, small_grid, monkeypatch,
                                         runs, workers):
        # each truth opened counts one up, and its reader's close one down;
        # the sleep gives a truth opened ahead time to be opened early
        labels = build_inputs(tmp_path, small_grid, n_sources=runs)
        cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels),
                                  workers=workers)
        opened, open_now, lock = [], [], threading.Lock()
        open_input, evaluate_run = experiment.open_input, experiment.evaluate_run

        def opening(what, path, *args, **kwargs):
            reader = open_input(what, path, *args, **kwargs)
            if what == "truth":   # the climatology is opened by the same name
                close = reader.close

                def closing():
                    with lock:
                        if reader in open_now:
                            open_now.remove(reader)
                    close()

                reader.close = closing
                with lock:
                    open_now.append(reader)
                    opened.append(len(open_now))
            return reader

        def scoring(*args):
            time.sleep(0.01)
            return evaluate_run(*args)

        monkeypatch.setattr(experiment, "open_input", opening)
        monkeypatch.setattr(experiment, "evaluate_run", scoring)
        report, error = run_in_thread(cfg)
        assert error is None and report.failures == {}
        assert len(read_metric_csv(str(report.csv_path))) == runs * 9 * 2 * 10 * 2
        assert len(opened) == len(LEADS) and max(opened) == 2 and open_now == []

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("kind", ["builtin", "external-command"])
    def test_a_missing_truth_costs_its_lead_alone(self, tmp_path, small_grid, monkeypatch,
                                                  kind, runs):
        labels = build_inputs(tmp_path, small_grid, n_sources=runs)
        (tmp_path / "truth_48.nws").unlink()
        cfg = make_config(tmp_path, small_grid, labels, leads=(24, 48, 72))
        if kind != "builtin":
            cfg = dataclasses.replace(cfg, backend=copy_backend(tmp_path, monkeypatch,
                                                                small_grid))
        report, error = run_in_thread(cfg)
        assert error is None and report.failures == {}
        rows = read_metric_csv(str(report.csv_path))
        assert len(rows) == runs * 9 * 2 * 2 * 2
        assert {int(r["lead_hours"]) for r in rows} == {24, 72}
        log = report.log_path.read_text()
        assert f"truth: lead 48: missing truth file {tmp_path / 'truth_48.nws'}" in log
        for label in labels:
            assert f"{label}: lead 48: no truth state" in log


def nan_backend(tmp_path, monkeypatch, grid, label, channel, sleep=0.0):
    """A copy backend on `grid`, taken as the canonical grid, that writes a
    NaN into `channel`'s plane of `label`'s step-1 output and, for `label`,
    sleeps `sleep` seconds in each later step."""
    monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: grid))
    plane = grid.nlat * grid.nlon * 4
    script = tmp_path / "backend.py"
    script.write_text(COPY_BACKEND + textwrap.dedent(f"""\
        import os, struct, time
        from nwpeval.archive import read_header
        if read_header(a.infile)["source_label"] == {label!r}:
            if a.infile.endswith({label + ".nws"!r}):
                with open(a.out, "r+b") as out:
                    start = os.path.getsize(a.out) - {len(CHANNELS) * plane}
                    out.seek(start + {CHANNELS.index(channel) * plane + 4 * 5})
                    out.write(struct.pack("<f", float("nan")))
            else:
                time.sleep({sleep})
        """))
    return BackendSpec(kind="external-command", command=f"{sys.executable} {script}",
                       horizons={24})


class TestNaNInAStepOutput:
    """An external step's output is checked plane by plane: its report
    planes as they are scored, every other plane once the run has scored it."""

    @pytest.mark.parametrize("where", ["report", "other", "report-unscored"])
    def test_fails_that_run_alone(self, tmp_path, small_grid, monkeypatch, where):
        # src1's step 1 writes a NaN, into Z500 (scored) or T850 (not); with
        # "report-unscored" lead 24 has no truth, so Z500 is never scored.
        # src1's step 2, started ahead, would take a minute unless killed
        channel = (Var.T, 850) if where == "other" else (Var.Z, 500)
        labels = build_inputs(tmp_path, small_grid, n_sources=2)
        if where == "report-unscored":
            (tmp_path / "truth_24.nws").unlink()
        cfg = dataclasses.replace(
            make_config(tmp_path, small_grid, labels, leads=(24, 48, 72)),
            backend=nan_backend(tmp_path, monkeypatch, small_grid, "src1", channel,
                                sleep=60))
        scored, procs = [], []
        evaluate_run, start = experiment.evaluate_run, rollout._start_backend
        monkeypatch.setattr(experiment, "evaluate_run", lambda lead, fc, *a, **k:
                            scored.append((fc.source_label, lead))
                            or evaluate_run(lead, fc, *a, **k))
        monkeypatch.setattr(rollout, "_start_backend",
                            lambda *a: procs.append(start(*a)) or procs[-1])
        t0 = time.monotonic()
        report, error = run_in_thread(cfg)
        assert error is None and time.monotonic() - t0 < 30
        assert report.failures == {"src1": "run failed: backend produced NaN/Inf at step 1 "
                                           f"(+24h): plane {channel_name(*channel)} "
                                           "contains NaN/Inf"}
        rows = read_metric_csv(str(report.csv_path))
        scored_leads = (48, 72) if where == "report-unscored" else (24, 48, 72)
        assert {r["source"] for r in rows} == {"src0"}
        assert len(rows) == 9 * 2 * len(scored_leads) * 2
        # a report plane fails as it is scored; any other plane, or a report
        # plane left unscored, once src1 has scored its lead, if it has a truth
        assert [lead for label, lead in scored if label == "src1"] == \
            ([] if where == "report-unscored" else [24])
        def arg(proc, flag):
            return proc.args[proc.args.index(flag) + 1]

        (step1,) = [p for p in procs if arg(p, "--in") == str(tmp_path / "src1.nws")]
        (step2,) = [p for p in procs if arg(p, "--in") == arg(step1, "--out")]
        assert step2.returncode == -signal.SIGKILL   # killed and reaped
        assert all(p.returncode is not None for p in procs)
        assert not os.path.exists(os.path.dirname(arg(step1, "--out")))   # temp dir removed

    @pytest.mark.parametrize("channel", [(Var.Z, 500), (Var.T, 850)],
                             ids=["Z500", "T850"])
    def test_a_nan_copied_from_an_ic_path_is_the_ics_fault(self, tmp_path, small_grid,
                                                            monkeypatch, channel):
        # the IC goes to the backend by path, lead 0 unasked: a NaN the step
        # copies from it, in a plane scored or not, is laid on the IC
        labels = build_inputs(tmp_path, small_grid, n_sources=2)
        ic = tmp_path / "src1.nws"
        state = read_archive(str(ic))
        data = state.data.copy()
        data[CHANNELS.index(channel), 4, 7] = np.nan
        write_archive(state.replace(data=data), str(ic))
        cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels,
                                              leads=(24, 48)),
                                  backend=copy_backend(tmp_path, monkeypatch, small_grid))
        report = run_experiment(cfg)
        assert report.failures == {"src1": "run failed: the IC at lead 0 holds NaN/Inf: "
                                           f"plane {channel_name(*channel)} contains NaN/Inf"}
        rows = read_metric_csv(str(report.csv_path))
        assert {r["source"] for r in rows} == {"src0"} and len(rows) == 9 * 2 * 2 * 2


class TestConfigValidation:
    def test_empty_sources_rejected(self, tmp_path, small_grid):
        cfg = make_config(tmp_path, small_grid, [])
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("key,empty", [("report_channels", ()), ("regions", {})],
                             ids=["report_channels", "regions"])
    def test_empty_report_channels_or_regions_rejected(self, tmp_path, small_grid,
                                                       key, empty):
        # either would give a metrics.csv of the header row alone
        labels = build_inputs(tmp_path, small_grid)
        cfg = dataclasses.replace(make_config(tmp_path, small_grid, labels),
                                  **{key: empty})
        with pytest.raises(ConfigError, match=f"^{key} must not be empty$"):
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
        # and run: validate accepts the dump, which a builtin run ingests as
        # its report planes, in order, each bitwise that plane of the dump
        ingested = []
        monkeypatch.setattr(experiment, "ingest_raw", lambda *a, **k:
                            ingested.append(ingest_raw(*a, **k)) or ingested[-1])
        cfg = load_config(str(cfg_path))
        report = run_experiment(cfg)
        assert report.failures == {}
        assert [(s.source_label, s.valid_time) for s in ingested] == [("raw", default_time())]
        assert ingested[0].channels == cfg.report_channels
        assert np.array_equal(ingested[0].data, out.subset(cfg.report_channels).data)
        assert len(read_metric_csv(str(report.csv_path))) == 9 * 2 * 2

    def test_the_readme_example_loads(self, tmp_path):
        # the example config of README's "Experiment config" section, as it is
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("## Experiment config", 1)[1].split("```yaml\n", 1)[1]
        p = tmp_path / "exp.yaml"
        p.write_text(example.split("```", 1)[0])
        cfg = load_config(str(p))
        assert cfg.name == "june-6-case" and cfg.model_grid == GridSpec.canonical()
        assert [(s.label, s.grid, s.layout) for s in cfg.ic_sources] == [
            ("gfs", None, None),
            ("ifs", GridSpec(nlat=721, nlon=1440), RawDumpLayout())]
        assert cfg.lead_hours == LEADS and cfg.backend == BackendSpec()
        assert set(cfg.regions) == {"global", "east_asia"}
        assert [(sc.label, sc.spec.blend_width) for sc in cfg.splice_scenarios] == [
            ("ifspadgfs", 0.0)]
        assert cfg.report_channels == DEFAULT_REPORT_CHANNELS and cfg.workers == 4

    def test_missing_key(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("name: x\n")
        with pytest.raises(ConfigError, match="missing required key"):
            load_config(str(p))

    @pytest.mark.parametrize("key,override", [
        ("lead_hours", {"lead_hours": "24"}),
        ("horizons", {"backend": {"horizons": "12"}}),
    ])
    def test_a_string_for_a_list_names_the_key(self, tmp_path, key, override):
        # iterated, "24" would be leads 2 and 4, "12" horizons of 1 h and 2 h
        doc = {"init_time": "2023-06-06T00:00:00Z", "ic_sources": [],
               "truth": "truth_{lead}.nws", "climatology": "clim.nws",
               "output_dir": "out", **override}
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match=f"{key} must be a list, got '"):
            load_config(str(p))

    @pytest.mark.parametrize("key,override", [
        ("lead_hours", {"lead_hours": [24.5, 48]}),
        ("horizons", {"backend": {"horizons": [24.9]}}),
        ("advection_cells", {"backend": {"advection_cells": 1.5}}),
        ("workers", {"workers": 2.5}),
        ("workers", {"workers": "two"}),
        ("nlat", {"grid": {"nlat": 9.5, "nlon": 16}}),
        ("nlon", {"ic_sources": [
            {"label": "a", "path": "a.bin", "grid": {"nlat": 9, "nlon": 16.5}}]}),
        ("workers", {"workers": True}),   # `workers: yes` would be 1
        ("lead_hours", {"lead_hours": [True]}),   # would be lead 1
        ("horizons", {"backend": {"horizons": [True]}}),
    ])
    def test_a_fraction_names_the_key(self, tmp_path, key, override):
        # int() would cut each of these to a whole number without a word
        doc = {"init_time": "2023-06-06T00:00:00Z", "ic_sources": [],
               "truth": "truth_{lead}.nws", "climatology": "clim.nws",
               "output_dir": "out", **override}
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match=f"{key} must be a whole number, got "):
            load_config(str(p))

    def test_whole_numbers_in_any_spelling_load(self, tmp_path):
        doc = {"init_time": "2023-06-06T00:00:00Z", "ic_sources": [],
               "truth": "truth_{lead}.nws", "climatology": "clim.nws",
               "output_dir": "out", "lead_hours": [24.0, "48"], "workers": 2.0,
               "backend": {"horizons": [24.0]}}
        p = tmp_path / "ok.yaml"
        p.write_text(yaml.safe_dump(doc))
        cfg = load_config(str(p))
        assert cfg.lead_hours == (24, 48) and cfg.workers == 2
        assert cfg.backend.horizons == {24}

    @pytest.mark.parametrize("spelling", ["2023-06-06T00:00:00Z", "2023-06-06T00:00:00",
                                          "2023-06-06T03:00:00+03:00", "2023-06-06"])
    @pytest.mark.parametrize("quoted", [True, False], ids=["string", "yaml-timestamp"])
    def test_init_time_spellings_load_as_utc(self, tmp_path, spelling, quoted):
        # unquoted, YAML reads each as a date or a datetime of its own; a
        # time with no offset is UTC
        doc = {"ic_sources": [], "truth": "truth_{lead}.nws", "climatology": "clim.nws",
               "output_dir": "out"}
        p = tmp_path / "ok.yaml"
        p.write_text(f"init_time: {repr(spelling) if quoted else spelling}\n"
                     + yaml.safe_dump(doc))
        init_time = load_config(str(p)).init_time
        assert init_time == datetime(2023, 6, 6, tzinfo=timezone.utc)
        assert init_time.tzinfo == timezone.utc

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
