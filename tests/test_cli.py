import logging
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from nwpeval.archive import read_archive, read_header, write_archive
from nwpeval.cli import main
from nwpeval.grids import CHANNELS, GridSpec, Var, channel_name
from nwpeval.plots import read_metric_csv
from nwpeval.synthetic import make_climatology, make_state
from tests.conftest import random_state


@pytest.fixture
def archive_path(tmp_path, small_grid):
    s = random_state(small_grid, seed=50, label="gfs")
    p = tmp_path / "state.nws"
    write_archive(s, str(p))
    return p


class TestInspect:
    def test_prints_header(self, archive_path, capsys):
        assert main(["inspect", str(archive_path)]) == 0
        out = capsys.readouterr().out
        assert "source_label: gfs" in out
        assert "n_channels: 69" in out

    def test_missing_file(self, tmp_path):
        assert main(["inspect", str(tmp_path / "nope.nws")]) == 2

    def test_unsupported_version(self, archive_path):
        raw = bytearray(archive_path.read_bytes())
        raw[8:12] = struct.pack("<I", 2)
        archive_path.write_bytes(bytes(raw))
        assert main(["inspect", str(archive_path)]) == 1


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_suggestion(self, archive_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["inspect", str(archive_path), "--verbos"])
        assert exc.value.code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_run_missing_config(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2

    @pytest.mark.parametrize("argv", [
        ["splice", "--base", "{a}", "--donor", "{a}", "--box", "-10,60,60,150",
         "--out", "{out}", "--blend-width", "-1"],
        ["rollout", "--in", "{a}", "--out-dir", "{out}", "--lead", "48",
         "--horizons", "24,x"],
        ["rollout", "--in", "{a}", "--out-dir", "{out}", "--lead", "48",
         "--horizons", "0"],
        ["rollout", "--in", "{a}", "--out-dir", "{out}", "--lead", "48",
         "--emit-every", "0"],
        ["rollout", "--in", "{a}", "--out-dir", "{out}", "--lead", "0"],
        ["rollout", "--in", "{a}", "--out-dir", "{out}", "--lead", "24",
         "--backend", "cmd:   "],
        ["rollout", "--in", "{a}", "--out-dir", "{out}", "--lead", "24",
         "--backend", "cmd:no-such-nwpeval-backend --flag"],
        ["ingest", "--in", "{a}", "--out", "{out}", "--grid", "9,16,90,22.5,0,22.5",
         "--valid-time", "notatime", "--label", "x"],
        ["evaluate", "--forecast-pattern", "{a}", "--truth-pattern", "{a}",
         "--climatology", "{a}", "--leads", "24,x", "--out", "{out}"],
        ["evaluate", "--forecast-pattern", "{a}", "--truth-pattern", "{a}",
         "--climatology", "{a}", "--leads", "24,48,24", "--out", "{out}"],
        ["evaluate", "--forecast-pattern", "{a}", "--truth-pattern", "{a}",
         "--climatology", "{a}", "--leads", "24", "--channels", "Z500,MSLP,Z500",
         "--out", "{out}"],
        ["evaluate", "--forecast-pattern", "{a}", "--truth-pattern", "era5_{{leadh}}.nws",
         "--climatology", "{a}", "--leads", "24", "--out", "{out}"],
        # the test grid is 9x16; an external backend needs 721x1440
        ["rollout", "--in", "{a}", "--out-dir", "{out}", "--lead", "24",
         "--backend", f"cmd:{sys.executable} -c pass"],
        # no point of the 22.5-degree test grid lies in the box
        ["evaluate", "--forecast-pattern", "{a}", "--truth-pattern", "{a}",
         "--climatology", "{a}", "--leads", "24", "--region", "tiny=1,2,1,2",
         "--out", "{out}"],
        ["evaluate", "--forecast-pattern", "{a}", "--truth-pattern", "{a}",
         "--climatology", "{a}", "--leads", "24", "--region", "a=-90,90,0,360",
         "--region", "a=-10,60,60,150", "--out", "{out}"],
    ], ids=["blend-width", "horizons-x", "horizons-0", "emit-every-0", "lead-0",
            "blank-command", "missing-command",
            "valid-time", "leads-x", "leads-repeated", "channels-repeated",
            "pattern-placeholder", "external-off-canonical", "region-empty",
            "region-repeated"])
    def test_bad_flag_value_exits_2_without_output(self, archive_path, tmp_path,
                                                   monkeypatch, argv):
        from nwpeval import cli
        payload_reads = []
        for name in ("read_archive", "ingest_raw"):
            monkeypatch.setattr(cli, name,
                                lambda *a, _name=name, **k: payload_reads.append(_name))
        out = tmp_path / "out"
        assert main([a.format(a=archive_path, out=out) for a in argv]) == 2
        assert not out.exists()
        assert payload_reads == []


class TestIngestRegrid:
    def test_ingest_then_inspect(self, tmp_path, small_grid, capsys):
        s = random_state(small_grid, seed=51)
        raw = tmp_path / "dump.bin"
        raw.write_bytes(np.ascontiguousarray(s.data, dtype="<f4").tobytes())
        out = tmp_path / "out.nws"
        g = small_grid
        rc = main(["ingest", "--in", str(raw), "--out", str(out),
                   "--grid", f"{g.nlat},{g.nlon},{g.lat_start},{g.dlat},{g.lon_start},{g.dlon}",
                   "--valid-time", "2023-06-06T00:00:00Z", "--label", "gfs",
                   "--skip-validation"])
        assert rc == 0
        assert np.array_equal(read_archive(str(out)).data, s.data)

    @pytest.mark.parametrize("skip", [[], ["--skip-validation"]])
    def test_ingest_nan_warn_logs_each_plane_once(self, tmp_path, small_grid, caplog,
                                                  skip):
        data = random_state(small_grid, seed=54).data.copy()
        data[CHANNELS.index((Var.Z, 925)), 2, 3] = np.nan
        raw = tmp_path / "dump.bin"
        raw.write_bytes(np.ascontiguousarray(data, dtype="<f4").tobytes())
        g = small_grid
        with caplog.at_level(logging.WARNING):
            assert main(["ingest", "--in", str(raw), "--out", str(tmp_path / "out.nws"),
                         "--grid", f"{g.nlat},{g.nlon},{g.lat_start},{g.dlat},"
                                   f"{g.lon_start},{g.dlon}",
                         "--valid-time", "2023-06-06T00:00:00Z", "--label", "gfs",
                         "--nan", "warn", *skip]) == 0
        assert caplog.text.count("non-finite") == 1
        assert f"{raw}: non-finite: Z925 contains NaN/Inf" in caplog.text

    def test_regrid_to_named_grid(self, archive_path, tmp_path):
        out = tmp_path / "regridded.nws"
        rc = main(["regrid", "--in", str(archive_path), "--out", str(out),
                   "--grid", "19,36,90,10,0,10"])
        assert rc == 0
        h = read_header(str(out))
        assert (h["nlat"], h["nlon"]) == (19, 36)


class TestSplice:
    def test_splice_label_and_values(self, tmp_path, small_grid, capsys):
        base = random_state(small_grid, seed=52, label="a")
        donor = random_state(small_grid, seed=53, label="b")
        bp, dp, op = (tmp_path / n for n in ("base.nws", "donor.nws", "out.nws"))
        write_archive(base, str(bp))
        write_archive(donor, str(dp))
        rc = main(["splice", "--base", str(bp), "--donor", str(dp),
                   "--box", "-10,60,60,150", "--out", str(op)])
        assert rc == 0
        assert main(["inspect", str(op)]) == 0
        assert "source_label: bpada" in capsys.readouterr().out


class TestRolloutEvaluatePlot:
    def test_end_to_end(self, tmp_path, small_grid, capsys):
        ic = make_state(small_grid, seed=54, source_label="gfs")
        icp = tmp_path / "ic.nws"
        write_archive(ic, str(icp))
        fdir = tmp_path / "fc"
        rc = main(["rollout", "--in", str(icp), "--out-dir", str(fdir),
                   "--lead", "72", "--emit-every", "24",
                   "--backend", "persistence"])
        assert rc == 0
        assert sorted(p.name for p in fdir.iterdir()) == [
            "forecast_024h.nws", "forecast_048h.nws", "forecast_072h.nws"]

        # truth = the IC itself (persistence is then a perfect forecast)
        from datetime import timedelta
        for lead in (24, 48, 72):
            t = ic.replace(valid_time=ic.valid_time + timedelta(hours=lead),
                           source_label="era5")
            write_archive(t, str(tmp_path / f"truth_{lead}.nws"))
        from nwpeval.synthetic import make_climatology
        write_archive(make_climatology(small_grid), str(tmp_path / "clim.nws"))
        csv = tmp_path / "metrics.csv"
        rc = main(["evaluate",
                   "--forecast-pattern", str(fdir / "forecast_{lead:03d}h.nws"),
                   "--truth-pattern", str(tmp_path / "truth_{lead}.nws"),
                   "--climatology", str(tmp_path / "clim.nws"),
                   "--leads", "24,48,72", "--out", str(csv)])
        assert rc == 0
        from nwpeval.plots import read_metric_csv
        rows = read_metric_csv(str(csv))
        assert len(rows) == 9 * 2 * 3 * 2
        assert all(float(r["value"]) == 0.0 for r in rows if r["metric"] == "RMSE")

        pdir = tmp_path / "plots"
        assert main(["plot", "--csv", str(csv), "--out-dir", str(pdir)]) == 0
        assert len(list(pdir.glob("*.svg"))) == 9 * 2 * 2

    def test_evaluate_grid_mismatches(self, tmp_path, small_grid, coarse_grid, caplog):
        for lead in (24, 48):
            write_archive(make_state(small_grid, seed=55, source_label="gfs"),
                          str(tmp_path / f"fc_{lead}.nws"))
        write_archive(make_state(small_grid, seed=56, source_label="era5"),
                      str(tmp_path / "truth_24.nws"))
        write_archive(make_state(coarse_grid, seed=56, source_label="era5"),
                      str(tmp_path / "truth_48.nws"))
        write_archive(make_climatology(small_grid), str(tmp_path / "clim.nws"))
        csv = tmp_path / "metrics.csv"
        argv = ["evaluate", "--forecast-pattern", str(tmp_path / "fc_{lead}.nws"),
                "--truth-pattern", str(tmp_path / "truth_{lead}.nws"),
                "--climatology", str(tmp_path / "clim.nws"), "--leads", "24,48",
                "--out", str(csv)]
        with caplog.at_level(logging.WARNING):
            assert main(argv) == 1
        assert {r["lead_hours"] for r in read_metric_csv(str(csv))} == {"24"}
        assert "lead 48: truth era5 grid does not match the forecast grid" in caplog.text
        # a climatology off the forecast grid stops the command before any output
        csv.unlink()
        write_archive(make_climatology(coarse_grid), str(tmp_path / "clim.nws"))
        assert main(argv) == 1 and not csv.exists()

    def test_evaluate_reads_only_the_report_planes(self, tmp_path, small_grid,
                                                   monkeypatch):
        from nwpeval import cli, experiment
        for lead in (24, 48):
            write_archive(make_state(small_grid, seed=59, source_label="gfs"),
                          str(tmp_path / f"fc_{lead}.nws"))
            write_archive(make_state(small_grid, seed=60, source_label="era5"),
                          str(tmp_path / f"truth_{lead}.nws"))
        write_archive(make_climatology(small_grid), str(tmp_path / "clim.nws"))
        reads = []
        for module in (cli, experiment):
            monkeypatch.setattr(module, "read_archive",
                                lambda path, channels=None, _f=module.read_archive:
                                reads.append((Path(path).name, tuple(channels or ())))
                                or _f(path, channels))
        csv = tmp_path / "metrics.csv"
        assert main(["evaluate", "--forecast-pattern", str(tmp_path / "fc_{lead}.nws"),
                     "--truth-pattern", str(tmp_path / "truth_{lead}.nws"),
                     "--climatology", str(tmp_path / "clim.nws"), "--leads", "24,48",
                     "--channels", "Z500,MSLP", "--out", str(csv)]) == 0
        assert len(read_metric_csv(str(csv))) == 2 * 2 * 2 * 2
        report = ((Var.Z, 500), (Var.MSLP, 0))
        assert sorted(reads) == sorted((name, report) for name in (
            "clim.nws", "fc_24.nws", "fc_48.nws", "truth_24.nws", "truth_48.nws"))

    def test_evaluate_missing_truth_is_per_lead(self, tmp_path, small_grid, caplog):
        # as in `nwpeval run`: a warning for that lead, the others scored, exit 1
        for lead in (24, 48):
            write_archive(make_state(small_grid, seed=57, source_label="gfs"),
                          str(tmp_path / f"fc_{lead}.nws"))
        write_archive(make_state(small_grid, seed=58, source_label="era5"),
                      str(tmp_path / "truth_24.nws"))
        write_archive(make_climatology(small_grid), str(tmp_path / "clim.nws"))
        csv = tmp_path / "metrics.csv"
        with caplog.at_level(logging.WARNING):
            assert main(["evaluate", "--forecast-pattern", str(tmp_path / "fc_{lead}.nws"),
                         "--truth-pattern", str(tmp_path / "truth_{lead}.nws"),
                         "--climatology", str(tmp_path / "clim.nws"),
                         "--leads", "24,48", "--out", str(csv)]) == 1
        assert f"lead 48: missing truth file {tmp_path / 'truth_48.nws'}" in caplog.text
        rows = read_metric_csv(str(csv))
        assert len(rows) == 9 * 2 * 2 and {r["lead_hours"] for r in rows} == {"24"}

    @pytest.mark.parametrize("lead,files", [
        ("12", ["forecast_012h.nws"]),
        ("30", ["forecast_024h.nws", "forecast_030h.nws"]),
    ])
    def test_rollout_emits_the_final_lead(self, archive_path, tmp_path, lead, files):
        fdir = tmp_path / "fc"
        assert main(["rollout", "--in", str(archive_path), "--out-dir", str(fdir),
                     "--lead", lead, "--emit-every", "24", "--horizons", "24,6"]) == 0
        assert sorted(p.name for p in fdir.iterdir()) == files


def run_doc(grid, labels, overrides=()):
    doc = {
        "name": "cli-run",
        "init_time": "2023-06-06T00:00:00Z",
        "grid": {"nlat": grid.nlat, "nlon": grid.nlon,
                 "lat_start": grid.lat_start, "dlat": grid.dlat,
                 "lon_start": grid.lon_start, "dlon": grid.dlon},
        "ic_sources": [{"label": lb, "path": f"{lb}.nws"} for lb in labels],
        "truth": "truth_{lead}.nws",
        "climatology": "clim.nws",
        "lead_hours": [24, 48],
        "output_dir": "out",
        "workers": 1,
    }
    doc.update(overrides)
    return doc


def scenario(**overrides):
    return [dict({"label": "pad", "base_source": "src0", "donor_source": "src1",
                  "box": [-10, 60, 60, 150]}, **overrides)]


# Each breaks one schema rule; every one must be a config error (exit 2)
# raised by load_config or validate, before any run writes run.log.
BAD_CONFIGS = {
    "backend-kind": {"backend": {"kind": "magic"}},
    "box-3-elements": {"splice_scenarios": scenario(box=[-10, 60, 60])},
    "region-box-bounds": {"regions": {"bad": [10, -10, 0, 90]}},
    "splice-scope": {"splice_scenarios": scenario(scope="everything")},
    "scan-order": {"ic_sources": [{"label": "raw", "path": "raw.bin",
                                   "grid": {"nlat": 9, "nlon": 16, "dlat": 22.5,
                                            "dlon": 22.5},
                                   "layout": {"scan": "sideways"}}]},
    "blank-command": {"backend": {"kind": "external-command", "command": "   "}},
    "missing-command": {"backend": {"kind": "external-command",
                                    "command": "no-such-nwpeval-backend --flag"}},
    "zero-row-grid": {"grid": {"nlat": 0, "nlon": 16}},
    "sources-not-a-list": {"ic_sources": "a.nws"},
    "unknown-level": {"report_channels": ["Z501"]},
    "unreachable-lead": {"backend": {"horizons": [24, 6]}, "lead_hours": [25]},
    "negative-lead": {"lead_hours": [-24]},
    "negative-horizon": {"backend": {"horizons": [24, -6]}, "lead_hours": [30]},
    "regions-not-a-mapping": {"regions": [[-90, 90, 0, 360]]},
    "zero-workers": {"workers": 0},
    "empty-region": {"regions": {"tiny": [12, 14, 22, 24]}},
    "repeated-lead": {"lead_hours": [24, 48, 24]},
    "repeated-channel": {"report_channels": ["MSLP", "Z500", "MSLP"]},
    "truth-placeholder": {"truth": "truth_{lead}_{member}.nws"},
    "truth-fixed-path": {"truth": "truth_24.nws", "lead_hours": [24, 48]},
    "ic-time": {"init_time": "2023-06-07T00:00:00Z"},   # the ICs are at 06-06
    # the test grid is 9x16; an external backend needs 721x1440
    "external-off-canonical": {"backend": {"kind": "external-command",
                                           "command": f"{sys.executable} -c pass"}},
}


class TestRunSubcommand:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_schema_errors_exit_2_before_running(self, tmp_path, small_grid,
                                                 monkeypatch, capsys, case):
        from nwpeval import experiment
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        payload_reads = []
        for name in ("read_archive", "ingest_raw"):
            monkeypatch.setattr(experiment, name,
                                lambda *a, _name=name, **k: payload_reads.append(_name))
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, BAD_CONFIGS[case])))
        assert main(["run", "--config", str(cfg)]) == 2
        assert payload_reads == []
        assert not (tmp_path / "out" / "run.log").exists()
        assert "nwpeval:" in capsys.readouterr().err

    def test_layout_repeating_a_channel_exits_2(self, tmp_path, small_grid,
                                                monkeypatch, capsys):
        # all 69 channels plus MSLP again: 70 planes named, the dump holds 69
        from nwpeval import experiment
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        random_state(small_grid, seed=5).data.tofile(tmp_path / "raw.bin")
        payload_reads = []
        for name in ("read_archive", "ingest_raw"):
            monkeypatch.setattr(experiment, name,
                                lambda *a, _name=name, **k: payload_reads.append(_name))
        order = [channel_name(*c) for c in CHANNELS] + ["MSLP"]
        doc = run_doc(small_grid, labels, {"ic_sources": [
            {"label": "raw", "path": "raw.bin",
             "grid": {"nlat": 9, "nlon": 16, "dlat": 22.5, "dlon": 22.5},
             "layout": {"channel_order": order}}]})
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", "--config", str(cfg)]) == 2
        assert payload_reads == []
        assert not (tmp_path / "out" / "run.log").exists()
        assert "all 69 channels once" in capsys.readouterr().err

    def test_climatology_off_the_model_grid_exits_2(self, tmp_path, small_grid,
                                                     coarse_grid, monkeypatch, capsys):
        from nwpeval import experiment
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        write_archive(make_climatology(coarse_grid), str(tmp_path / "clim.nws"))
        payload_reads = []
        for name in ("read_archive", "ingest_raw"):
            monkeypatch.setattr(experiment, name,
                                lambda *a, _name=name, **k: payload_reads.append(_name))
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels)))
        assert main(["run", "--config", str(cfg)]) == 2
        assert payload_reads == []
        assert not (tmp_path / "out" / "run.log").exists()
        assert "off the model grid" in capsys.readouterr().err

    def test_config_validated_once_per_run(self, tmp_path, small_grid, monkeypatch):
        # one header read per input (the climatology and each .nws IC); each
        # region mask built once, for validate and scoring both
        from nwpeval import experiment, verify
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        calls = []
        for module, name in ((experiment, "read_header"), (verify, "region_mask")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _name=name, _f=original:
                                calls.append(_name) or _f(*a))
        verify.region_block.cache_clear()
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels)))
        assert main(["run", "--config", str(cfg)]) == 0
        assert sorted(calls) == ["read_header"] * 3 + ["region_mask"] * 2

    def test_truth_pattern_with_a_format_spec_runs(self, tmp_path, small_grid):
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        for lead in (24, 48):
            (tmp_path / f"truth_{lead}.nws").rename(tmp_path / f"truth_{lead:03d}.nws")
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels,
                                              {"truth": "truth_{lead:03d}.nws"})))
        assert main(["run", "--config", str(cfg)]) == 0
        assert "truth:" not in (tmp_path / "out" / "run.log").read_text()
        assert len(read_metric_csv(str(tmp_path / "out" / "metrics.csv"))) == 2 * 9 * 2 * 2 * 2

    def test_lead_needing_smaller_steps_runs(self, tmp_path, small_grid):
        # {24, 18}: 36 h is 18 + 18; a largest-first split dead-ends at 12 h
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        doc = run_doc(small_grid, labels, {"backend": {"horizons": [24, 18]},
                                           "lead_hours": [36, 72]})
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", "--config", str(cfg)]) == 0
        log = (tmp_path / "out" / "run.log").read_text()
        assert "lead 36: missing truth file" in log
        assert ",72,RMSE," in (tmp_path / "out" / "metrics.csv").read_text()

    def test_nan_truth_is_an_error_not_a_row(self, tmp_path, small_grid):
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        truth = read_archive(str(tmp_path / "truth_48.nws"))
        data = truth.data.copy()
        data[0, 0, 0] = np.nan   # MSLP at the north pole, outside east_asia
        write_archive(truth.replace(data=data), str(tmp_path / "truth_48.nws"))
        # a climatology equal to the truth in T2: no T2 anomaly, so no ACC
        clim = read_archive(str(tmp_path / "clim.nws"))
        data = clim.data.copy()
        data[CHANNELS.index((Var.T2, 0))] = truth.channel(Var.T2)
        write_archive(clim.replace(data=data), str(tmp_path / "clim.nws"))
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels)))
        assert main(["run", "--config", str(cfg)]) == 0
        assert "nan" not in (tmp_path / "out" / "metrics.csv").read_text().lower()
        log = (tmp_path / "out" / "run.log").read_text()
        assert "lead 48 MSLP global: RMSE is not finite" in log
        csv = (tmp_path / "out" / "metrics.csv").read_text()
        assert ",24,RMSE," in csv
        assert "MSLP,0,east_asia,48,RMSE," in csv and "MSLP,0,global,48," not in csv
        assert "lead 24 T2 east_asia: anomaly variance too small" in log
        assert ",T2,0,east_asia,24,RMSE," in csv and ",T2,0,east_asia,24,ACC," not in csv
        assert main(["evaluate", "--forecast-pattern", str(tmp_path / "src0.nws"),
                     "--truth-pattern", str(tmp_path / "truth_{lead}.nws"),
                     "--climatology", str(tmp_path / "clim.nws"), "--leads", "24,48",
                     "--out", str(tmp_path / "eval.csv")]) == 1
        assert "nan" not in (tmp_path / "eval.csv").read_text().lower()

    def test_full_run(self, tmp_path, small_grid, capsys):
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels)))
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        out = capsys.readouterr().out
        assert "config sha256" in out
        # a source whose payload is short fails its run: exit 1, named on stderr
        path = tmp_path / f"{labels[1]}.nws"
        path.write_bytes(path.read_bytes()[:-5])
        assert main(["run", "--config", str(cfg)]) == 1
        assert (f"FAILED {labels[1]}: ingest failed: payload truncated in channel V50"
                in capsys.readouterr().err)
