import logging
import struct
import sys
from collections import Counter
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
import yaml

from nwpeval.archive import read_archive, read_header, write_archive
from nwpeval.cli import main
from nwpeval.grids import CHANNELS, GridSpec, Var, channel_name
from nwpeval.plots import read_metric_csv
from nwpeval.synthetic import make_climatology, make_state
from nwpeval.verify import DEFAULT_REPORT_CHANNELS
from tests.conftest import name_of, random_state, spy_payload_reads, spy_plane_reader

SVG = "{http://www.w3.org/2000/svg}"


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

    def test_a_fractional_grid_count_exits_2(self, archive_path, tmp_path, capsys):
        # int() would cut 9.5 rows to 9 and write a 9-row archive
        out = tmp_path / "out.nws"
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--in", str(archive_path), "--out", str(out),
                  "--grid", "9.5,16,90,22.5,0,22.5",
                  "--valid-time", "2023-06-06T00:00:00Z", "--label", "x"])
        assert exc.value.code == 2
        assert "nlat must be a whole number, got 9.5" in capsys.readouterr().err
        assert not out.exists()

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
        # two leads, one truth: lead 48 would be scored against lead 24's
        ["evaluate", "--forecast-pattern", "fc_{{lead}}.nws", "--truth-pattern", "{a}",
         "--climatology", "{a}", "--leads", "24,48", "--out", "{out}"],
        # a plot is named after its region, so a '/' would make a directory
        ["evaluate", "--forecast-pattern", "{a}", "--truth-pattern", "{a}",
         "--climatology", "{a}", "--leads", "24", "--region", "a/b=-90,90,0,360",
         "--out", "{out}"],
    ], ids=["blend-width", "horizons-x", "horizons-0", "emit-every-0", "lead-0",
            "blank-command", "missing-command",
            "valid-time", "leads-x", "leads-repeated", "channels-repeated",
            "pattern-placeholder", "external-off-canonical", "region-empty",
            "region-repeated", "truth-fixed-path", "region-a-slash"])
    def test_bad_flag_value_exits_2_without_output(self, archive_path, tmp_path,
                                                   monkeypatch, argv):
        payload_reads = spy_payload_reads(monkeypatch)
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
        assert (f"lead 48: truth {tmp_path / 'truth_48.nws'} is off the grid: "
                f"on {coarse_grid}, not {small_grid}") in caplog.text
        # a climatology off the forecasts' grid costs every lead, each
        # warning naming its forecast file; the CSV is still written
        csv.unlink()
        caplog.clear()
        write_archive(make_climatology(coarse_grid), str(tmp_path / "clim.nws"))
        with caplog.at_level(logging.WARNING):
            assert main(argv) == 1
        assert read_metric_csv(str(csv)) == []
        for lead in (24, 48):
            assert caplog.text.count(f"lead {lead}: ") == 1
            assert (f"lead {lead}: forecast {tmp_path / f'fc_{lead}.nws'} is off the "
                    f"grid: on {small_grid}, not {coarse_grid}") in caplog.text

    def test_evaluate_reads_only_the_report_planes(self, tmp_path, small_grid,
                                                   monkeypatch):
        for lead in (24, 48):
            write_archive(make_state(small_grid, seed=59, source_label="gfs"),
                          str(tmp_path / f"fc_{lead}.nws"))
            write_archive(make_state(small_grid, seed=60, source_label="era5"),
                          str(tmp_path / f"truth_{lead}.nws"))
        write_archive(make_climatology(small_grid), str(tmp_path / "clim.nws"))
        reads = []
        spy_plane_reader(monkeypatch, lambda path, channels, plane:
                         reads.append((name_of(path), channels)))
        csv = tmp_path / "metrics.csv"
        assert main(["evaluate", "--forecast-pattern", str(tmp_path / "fc_{lead}.nws"),
                     "--truth-pattern", str(tmp_path / "truth_{lead}.nws"),
                     "--climatology", str(tmp_path / "clim.nws"), "--leads", "24,48",
                     "--channels", "Z500,MSLP", "--out", str(csv)]) == 0
        assert len(read_metric_csv(str(csv))) == 2 * 2 * 2 * 2
        report = ((Var.Z, 500), (Var.MSLP, 0))
        # the climatology's header, with no plane, to check the regions on,
        # then its report planes, in file order, in the same open; at each
        # lead the forecast's and the truth's header, then each report plane
        # of the two alone, as it is scored
        names = [(f"fc_{lead}.nws", f"truth_{lead}.nws") for lead in (24, 48)]
        assert reads == [("clim.nws", ())] + [("clim.nws", (ch,)) for ch in report[::-1]] + [
            read for pair in names for read in [(name, ()) for name in pair]
            + [(name, (ch,)) for ch in report for name in pair]]

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

    def test_evaluate_truncated_truth_is_per_lead(self, tmp_path, small_grid, caplog):
        # a truth that cannot be read costs its lead, as a missing one does
        for lead in (24, 48):
            write_archive(make_state(small_grid, seed=57, source_label="gfs"),
                          str(tmp_path / f"fc_{lead}.nws"))
            write_archive(make_state(small_grid, seed=58, source_label="era5"),
                          str(tmp_path / f"truth_{lead}.nws"))
        truth = tmp_path / "truth_48.nws"
        truth.write_bytes(truth.read_bytes()[:-7])
        write_archive(make_climatology(small_grid), str(tmp_path / "clim.nws"))
        csv = tmp_path / "metrics.csv"
        with caplog.at_level(logging.WARNING):
            assert main(["evaluate", "--forecast-pattern", str(tmp_path / "fc_{lead}.nws"),
                         "--truth-pattern", str(tmp_path / "truth_{lead}.nws"),
                         "--climatology", str(tmp_path / "clim.nws"),
                         "--leads", "24,48", "--out", str(csv)]) == 1
        assert f"lead 48: truth {truth}: payload truncated in channel V50" in caplog.text
        rows = read_metric_csv(str(csv))
        assert len(rows) == 9 * 2 * 2 and {r["lead_hours"] for r in rows} == {"24"}

    @pytest.mark.parametrize("what", ["forecast", "truth"])
    def test_evaluate_failed_plane_read_is_per_lead(self, tmp_path, small_grid, caplog,
                                                    monkeypatch, what):
        # a file cut short after its header is checked, before a plane is
        # read, costs its lead as a truncated one does
        from nwpeval import cli
        for lead in (24, 48):
            write_archive(make_state(small_grid, seed=57, source_label="gfs"),
                          str(tmp_path / f"forecast_{lead}.nws"))
            write_archive(make_state(small_grid, seed=58, source_label="era5"),
                          str(tmp_path / f"truth_{lead}.nws"))
        write_archive(make_climatology(small_grid), str(tmp_path / "clim.nws"))
        damaged = tmp_path / f"{what}_48.nws"
        open_input = cli.open_input

        def opening(kind, path, *args):
            reader = open_input(kind, path, *args)
            if path == str(damaged):
                damaged.write_bytes(damaged.read_bytes()[:-7])
            return reader

        monkeypatch.setattr(cli, "open_input", opening)
        csv = tmp_path / "metrics.csv"
        with caplog.at_level(logging.WARNING):
            assert main(["evaluate",
                         "--forecast-pattern", str(tmp_path / "forecast_{lead}.nws"),
                         "--truth-pattern", str(tmp_path / "truth_{lead}.nws"),
                         "--climatology", str(tmp_path / "clim.nws"),
                         "--leads", "24,48", "--out", str(csv)]) == 1
        assert f"lead 48: {what} {damaged}: payload truncated in channel V50" in caplog.text
        rows = read_metric_csv(str(csv))
        assert len(rows) == 9 * 2 * 2 and {r["lead_hours"] for r in rows} == {"24"}

    @pytest.mark.parametrize("damage", ["missing", "truncated"])
    def test_evaluate_bad_forecast_is_per_lead(self, tmp_path, small_grid, caplog,
                                               damage):
        # a forecast that is missing or cannot be read costs its lead, as a truth does
        for lead in (24, 48):
            write_archive(make_state(small_grid, seed=57, source_label="gfs"),
                          str(tmp_path / f"fc_{lead}.nws"))
            write_archive(make_state(small_grid, seed=58, source_label="era5"),
                          str(tmp_path / f"truth_{lead}.nws"))
        fc = tmp_path / "fc_48.nws"
        if damage == "missing":
            fc.unlink()
            want = f"lead 48: missing forecast file {fc}"
        else:
            fc.write_bytes(fc.read_bytes()[:-7])
            want = f"lead 48: forecast {fc}: payload truncated in channel V50"
        write_archive(make_climatology(small_grid), str(tmp_path / "clim.nws"))
        csv = tmp_path / "metrics.csv"
        with caplog.at_level(logging.WARNING):
            assert main(["evaluate", "--forecast-pattern", str(tmp_path / "fc_{lead}.nws"),
                         "--truth-pattern", str(tmp_path / "truth_{lead}.nws"),
                         "--climatology", str(tmp_path / "clim.nws"),
                         "--leads", "24,48", "--out", str(csv)]) == 1
        assert want in caplog.text
        rows = read_metric_csv(str(csv))
        assert len(rows) == 9 * 2 * 2 and {r["lead_hours"] for r in rows} == {"24"}

    @pytest.mark.parametrize("damage,message", [
        (lambda b: b[:-7], "payload truncated in channel V50"),
        (lambda b: b + b"\0", "bytes follow the payload"),
    ], ids=["short", "long"])
    def test_evaluate_short_or_long_climatology_is_a_config_error(
            self, tmp_path, small_grid, capsys, damage, message):
        for lead in (24, 48):
            write_archive(make_state(small_grid, seed=57, source_label="gfs"),
                          str(tmp_path / f"fc_{lead}.nws"))
            write_archive(make_state(small_grid, seed=58, source_label="era5"),
                          str(tmp_path / f"truth_{lead}.nws"))
        clim = tmp_path / "clim.nws"
        write_archive(make_climatology(small_grid), str(clim))
        clim.write_bytes(damage(clim.read_bytes()))
        csv = tmp_path / "metrics.csv"
        assert main(["evaluate", "--forecast-pattern", str(tmp_path / "fc_{lead}.nws"),
                     "--truth-pattern", str(tmp_path / "truth_{lead}.nws"),
                     "--climatology", str(clim), "--leads", "24,48",
                     "--out", str(csv)]) == 2
        assert f"climatology {clim}: {message}" in capsys.readouterr().err
        assert not csv.exists()

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
    "region-a-slash": {"regions": {"a/b": [-90, 90, 0, 360]}},   # no plot file name
    "repeated-lead": {"lead_hours": [24, 48, 24]},
    # would be leads 2 and 4, which 2 h steps reach
    "leads-a-string": {"lead_hours": "24", "backend": {"horizons": [2]}},
    "horizons-a-string": {"backend": {"horizons": "12"}},   # would be 1 h and 2 h
    "lead-a-fraction": {"lead_hours": [24.5, 48]},   # would be scored as lead 24
    "horizon-a-fraction": {"backend": {"horizons": [24.9]}},   # would step 24 h
    "repeated-channel": {"report_channels": ["MSLP", "Z500", "MSLP"]},
    "empty-report-channels": {"report_channels": []},
    "empty-regions": {"regions": {}},
    "truth-placeholder": {"truth": "truth_{lead}_{member}.nws"},
    "truth-fixed-path": {"truth": "truth_24.nws", "lead_hours": [24, 48]},
    "ic-time": {"init_time": "2023-06-07T00:00:00Z"},   # the ICs are at 06-06
    # the test grid is 9x16; an external backend needs 721x1440
    "external-off-canonical": {"backend": {"kind": "external-command",
                                           "command": f"{sys.executable} -c pass"}},
    "workers-a-bool": {"workers": True},   # would be 1 worker
    "lead-a-bool": {"lead_hours": [True], "backend": {"horizons": [1]}},   # lead 1
    # a key no part of the schema reads would be ignored: each of these
    # would run with its default
    "unknown-key": {"lead_hour": [6]},   # the 10 default leads
    "unknown-grid-key": {"grid": {"nlat": 9, "nlon": 16, "lat_strat": 80,
                                  "dlat": 22.5, "dlon": 22.5}},   # lat_start 90
    "unknown-source-key": {"ic_sources": [{"label": "src0", "path": "src0.nws",
                                           "format": "raw"}]},
    "unknown-layout-key": {"ic_sources": [{"label": "raw", "path": "raw.bin",
                                           "grid": {"nlat": 9, "nlon": 16, "dlat": 22.5,
                                                    "dlon": 22.5},
                                           "layout": {"sacn": "south-first"}}]},
    "unknown-splice-key": {"splice_scenarios": scenario(blend=5)},   # a hard splice
    "unknown-backend-key": {"backend": {"kind": "builtin", "builtin": "advection",
                                        "advection_cell": 3}},   # 1 cell a step
    # an archive's header gives its grid and layout: one given too is unused
    "nws-source-grid": {"ic_sources": [{"label": "src0", "path": "src0.nws",
                                        "grid": {"nlat": 9, "nlon": 16}}]},
    "nws-source-layout": {"ic_sources": [{"label": "src0", "path": "src0.nws",
                                          "layout": {"scan": "south-first"}}]},
}


class TestRunSubcommand:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_schema_errors_exit_2_before_running(self, tmp_path, small_grid,
                                                 monkeypatch, capsys, case):
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        payload_reads = spy_payload_reads(monkeypatch)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, BAD_CONFIGS[case])))
        assert main(["run", "--config", str(cfg)]) == 2
        assert payload_reads == []
        assert not (tmp_path / "out" / "run.log").exists()
        assert "nwpeval:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("ic_sources", "a.nws", "ic_sources must be a list, got 'a.nws'"),
        ("report_channels", "Z500", "report_channels must be a list, got 'Z500'"),
        ("regions", "global", "regions must be a mapping, got 'global'")])
    def test_a_string_for_a_list_or_mapping_exits_2_naming_its_key(
            self, tmp_path, small_grid, capsys, key, value, message):
        # not read as its characters: 'Z500' is no channel 'Z'
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, {key: value})))
        assert main(["run", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()
        assert f"nwpeval: {cfg}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("ic_sources", ["a.nws"], "ic_sources[0] must be a mapping, got 'a.nws'"),
        ("splice_scenarios", ["pad"], "splice_scenarios[0] must be a mapping, got 'pad'"),
        ("backend", "builtin", "backend must be a mapping, got 'builtin'")])
    def test_an_entry_that_is_no_mapping_exits_2_naming_its_key(
            self, tmp_path, small_grid, monkeypatch, capsys, key, value, message):
        # not looked up as a string: 'string indices must be integers'
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        payload_reads = spy_payload_reads(monkeypatch)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, {key: value})))
        assert main(["run", "--config", str(cfg)]) == 2
        assert payload_reads == []
        assert not (tmp_path / "out").exists()
        assert f"nwpeval: {cfg}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("unknown-key", "unknown key 'lead_hour' in the config"),
        ("unknown-grid-key", "unknown key 'lat_strat' in grid"),
        ("unknown-source-key", "unknown key 'format' in ic_sources[0]"),
        ("unknown-layout-key", "unknown key 'sacn' in ic_sources[0].layout"),
        ("unknown-splice-key", "unknown key 'blend' in splice_scenarios[0]"),
        ("unknown-backend-key", "unknown key 'advection_cell' in backend")])
    def test_an_unknown_key_exits_2_naming_it_and_where_it_is(
            self, tmp_path, small_grid, capsys, case, message):
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, BAD_CONFIGS[case])))
        assert main(["run", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()
        assert f"nwpeval: {cfg}: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["nws-source-grid", "nws-source-layout"])
    def test_a_grid_or_layout_on_an_archive_exits_2(self, tmp_path, small_grid, capsys,
                                                    case):
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, BAD_CONFIGS[case])))
        assert main(["run", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()
        assert ("nwpeval: source 'src0': a .nws archive takes no grid or layout: "
                "its header gives both") in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        (None, "grid must be a mapping, got 'canonical'"),
        ({"grid": "canonical", "layout": {}},
         "ic_sources[0].grid must be a mapping, got 'canonical'"),
        ({"grid": {"nlat": 9, "nlon": 16}, "layout": "north-first"},
         "ic_sources[0].layout must be a mapping, got 'north-first'")],
        ids=["grid", "ic_sources[0].grid", "ic_sources[0].layout"])
    def test_a_grid_or_layout_that_is_no_mapping_exits_2_naming_its_key(
            self, tmp_path, small_grid, monkeypatch, capsys, entry, message):
        # not looked up as a string: 'string indices must be integers' or
        # "'str' object has no attribute 'get'"
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        payload_reads = spy_payload_reads(monkeypatch)
        overrides = {"grid": "canonical"} if entry is None else {"ic_sources": [
            dict({"label": "raw", "path": "raw.bin"}, **entry)]}
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, overrides)))
        assert main(["run", "--config", str(cfg)]) == 2
        assert payload_reads == []
        assert not (tmp_path / "out").exists()
        assert f"nwpeval: {cfg}: {message}" in capsys.readouterr().err

    def test_layout_repeating_a_channel_exits_2(self, tmp_path, small_grid,
                                                monkeypatch, capsys):
        # all 69 channels plus MSLP again: 70 planes named, the dump holds 69
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        random_state(small_grid, seed=5).data.tofile(tmp_path / "raw.bin")
        payload_reads = spy_payload_reads(monkeypatch)
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
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        write_archive(make_climatology(coarse_grid), str(tmp_path / "clim.nws"))
        payload_reads = spy_payload_reads(monkeypatch)   # a header read adds none
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels)))
        assert main(["run", "--config", str(cfg)]) == 2
        assert payload_reads == []
        assert not (tmp_path / "out" / "run.log").exists()
        assert (f"nwpeval: climatology {tmp_path / 'clim.nws'} is off the grid: "
                f"on {coarse_grid}, not {small_grid}") in capsys.readouterr().err

    def test_truncated_climatology_exits_2(self, tmp_path, small_grid, monkeypatch,
                                           capsys):
        # its header passes validate(); its short payload is found before any
        # payload is read and before the output directory is made
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        clim = tmp_path / "clim.nws"
        clim.write_bytes(clim.read_bytes()[:-7])
        reads = []   # each file a reader opens, and each plane it reads
        spy_plane_reader(monkeypatch, lambda path, channels, plane:
                         reads.append((name_of(path), channels)))
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels)))
        assert main(["run", "--config", str(cfg)]) == 2
        assert reads == [("clim.nws", ())]
        assert not (tmp_path / "out").exists()
        assert (f"nwpeval: climatology {clim}: payload truncated in channel V50"
                in capsys.readouterr().err)

    def test_truncated_truth_costs_one_lead(self, tmp_path, small_grid):
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        truth = tmp_path / "truth_48.nws"
        truth.write_bytes(truth.read_bytes()[:-7])
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels)))
        assert main(["run", "--config", str(cfg)]) == 0
        log = (tmp_path / "out" / "run.log").read_text()
        assert f"truth: lead 48: truth {truth}: payload truncated in channel V50" in log
        assert f"{labels[0]}: lead 48: no truth state" in log
        rows = read_metric_csv(str(tmp_path / "out" / "metrics.csv"))
        assert len(rows) == 2 * 9 * 2 * 2 and {r["lead_hours"] for r in rows} == {"24"}

    def test_nan_in_an_ic_handed_over_by_path_is_the_ics_fault(self, tmp_path, small_grid,
                                                               monkeypatch, capsys):
        # an on-grid, unspliced IC goes to an external backend by path; the
        # NaN that the backend copies into step 1's output is laid on the IC
        from nwpeval.grids import GridSpec
        from tests.test_experiment import build_inputs
        from tests.test_rollout import write_copy_backend
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: small_grid))
        labels = build_inputs(tmp_path, small_grid, n_sources=1)
        ic = tmp_path / f"{labels[0]}.nws"
        state = read_archive(ic)
        data = state.data.copy()
        data[CHANNELS.index((Var.T, 850)), 4, 7] = np.nan
        write_archive(state.replace(data=data), ic)
        be = write_copy_backend(tmp_path / "backend.py")
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, {"backend": {
            "kind": "external-command", "command": be.command}})))
        assert main(["run", "--config", str(cfg)]) == 1
        assert (f"FAILED {labels[0]}: run failed: the IC at lead 0 holds NaN/Inf: "
                "plane T850 contains NaN/Inf") in capsys.readouterr().err

    def test_config_validated_once_per_run(self, tmp_path, small_grid, monkeypatch):
        # validate parses one header per .nws IC, with read_header, and the
        # climatology's, opening it to check its grid and payload size; the
        # climatology is opened once more to read its planes. _load_source
        # opens each on-grid IC for its header, and the rollout opens it
        # again to read and check its 69 planes, each once. Each truth is
        # opened once, by the PlaneReader that checks its header, and each
        # of its planes read alone, once, with no header parsed again. Each
        # region mask is built once, for validate and scoring both
        from nwpeval import archive, experiment, verify
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        headers, planes, masks, parsed = [], [], [], Counter()
        read_header = experiment.read_header
        monkeypatch.setattr(experiment, "read_header",
                            lambda path: headers.append(name_of(path)) or read_header(path))

        def reader_reads(path, channels, plane):
            if channels:
                planes.append((name_of(path), channels))
            else:
                headers.append(name_of(path))

        spy_plane_reader(monkeypatch, reader_reads)
        monkeypatch.setattr(archive, "_read_head",
                            lambda src, _f=archive._read_head:
                            parsed.update([name_of(src)]) or _f(src))
        monkeypatch.setattr(verify, "region_mask",
                            lambda *a, _f=verify.region_mask: masks.append(a) or _f(*a))
        verify.region_block.cache_clear()
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels)))
        assert main(["run", "--config", str(cfg)]) == 0
        assert sorted(headers) == sorted(["clim.nws"] * 2
                                         + ["truth_24.nws", "truth_48.nws"]
                                         + [f"{lb}.nws" for lb in labels] * 3)
        assert [p for p in planes if p[0].startswith("truth_")] == [
            (f"truth_{lead}.nws", (ch,)) for lead in (24, 48)
            for ch in DEFAULT_REPORT_CHANNELS]
        read = {}   # each file's planes, in the order read
        for name, channels in planes:
            read.setdefault(name, []).extend(channels)
        assert read == {"clim.nws": sorted(DEFAULT_REPORT_CHANNELS, key=CHANNELS.index),
                        "truth_24.nws": list(DEFAULT_REPORT_CHANNELS),
                        "truth_48.nws": list(DEFAULT_REPORT_CHANNELS),
                        **{f"{lb}.nws": list(CHANNELS) for lb in labels}}
        assert parsed["truth_24.nws"] == parsed["truth_48.nws"] == 1
        assert parsed["clim.nws"] == 2
        for lb in labels:
            assert parsed[f"{lb}.nws"] == 3
        assert len(masks) == 2

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

    def test_labels_and_regions_with_commas_and_quotes_round_trip(self, tmp_path,
                                                                   small_grid):
        # the CSV quotes them and the SVGs escape them, so both read back
        from tests.test_experiment import build_inputs
        build_inputs(tmp_path, small_grid)
        labels = ["gfs,ifs", 'ifs "hres" <a&b>']
        regions = {"asia,east": [-10, 60, 60, 150], "global": [-90, 90, 0, 360]}
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, [], {
            "ic_sources": [{"label": lb, "path": f"src{n}.nws"}
                           for n, lb in enumerate(labels)],
            "regions": regions})))
        assert main(["run", "--config", str(cfg)]) == 0
        rows = read_metric_csv(str(tmp_path / "out" / "metrics.csv"))
        assert len(rows) == 2 * 9 * 2 * 2 * 2
        assert {r["source"] for r in rows} == set(labels)
        assert {r["region"] for r in rows} == set(regions)
        plots = sorted((tmp_path / "out" / "plots").iterdir())
        assert len(plots) == 9 * 2 * 2
        for path in plots:
            svg = ElementTree.parse(path).getroot()
            title = svg.find(f"{SVG}text").text
            assert title.endswith(("(asia,east)", "(global)"))
            assert [line.get("data-label") for line in svg.iter(f"{SVG}polyline")] == \
                sorted(labels)

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
