import logging
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from datetime import timedelta
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
import yaml

from nwpeval.archive import archive_bytes, read_archive, read_header, write_archive
from nwpeval.cli import main
from nwpeval.grids import CHANNELS, N_CHANNELS, GridSpec, RegionBox, Var, channel_name
from nwpeval.plots import read_metric_csv, write_metric_csv
from nwpeval.regrid import regrid_state
from nwpeval.splice import SpliceSpec, splice_states
from nwpeval.synthetic import default_time, make_climatology, make_state
from nwpeval.verify import DEFAULT_REPORT_CHANNELS
from tests.conftest import name_of, random_state, spy_payload_reads, spy_plane_reader

SVG = "{http://www.w3.org/2000/svg}"


@pytest.fixture
def archive_path(tmp_path, small_grid):
    s = random_state(small_grid, seed=50, label="gfs")
    p = tmp_path / "state.nws"
    write_archive(s, str(p))
    return p


class TestImportFootprint:
    """Importing the CLI or the experiment module loads no _hashlib, which
    maps OpenSSL's libcrypto: hashlib is imported where a hash is taken."""

    @pytest.mark.parametrize("module", ["nwpeval.cli", "nwpeval.experiment"])
    def test_import_leaves_hashlib_out(self, module):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; print('_hashlib' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
            timeout=60)
        assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


class TestInspect:
    def test_prints_header(self, archive_path, capsys):
        assert main(["inspect", str(archive_path)]) == 0
        assert capsys.readouterr().out == (
            "version: 1\nnlat: 9\nnlon: 16\nlat_start: 90.0\ndlat: 22.5\n"
            "lon_start: 0.0\ndlon: 22.5\nvalid_time: 2023-06-06 00:00:00+00:00\n"
            "source_label: gfs\nn_channels: 69\n")

    def test_missing_file(self, tmp_path):
        assert main(["inspect", str(tmp_path / "nope.nws")]) == 2

    def test_unsupported_version(self, archive_path, capsys):
        raw = bytearray(archive_path.read_bytes())
        raw[8:12] = struct.pack("<I", 2)
        archive_path.write_bytes(bytes(raw))
        assert main(["inspect", str(archive_path)]) == 1
        assert "unsupported version 2" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", [
        ("channels", "channel list is not the canonical 69-channel order"),
        ("short", "payload truncated in channel V50"),
        ("long", "bytes follow the payload")])
    def test_a_file_every_command_refuses_exits_1(self, archive_path, small_grid, capsys,
                                                   damage, message):
        # its channel list and payload size are judged as a read of a plane judges them
        raw = bytearray(archive_path.read_bytes())
        if damage == "channels":   # the first two descriptors swapped
            off = len(raw) - N_CHANNELS * (small_grid.nlat * small_grid.nlon + 1) * 4
            raw[off:off + 4], raw[off + 4:off + 8] = raw[off + 4:off + 8], raw[off:off + 4]
        archive_path.write_bytes({"channels": raw, "short": raw[:-7],
                                  "long": raw + b"\0\0"}[damage])
        assert main(["inspect", str(archive_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


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

    def test_a_grid_of_five_numbers_exits_2(self, archive_path, tmp_path, monkeypatch,
                                            capsys):
        payload_reads = spy_payload_reads(monkeypatch)
        out = tmp_path / "out.nws"
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--in", str(archive_path), "--out", str(out),
                  "--grid", "1,2,3,4,5", "--valid-time", "2023-06-06T00:00:00Z",
                  "--label", "x"])
        assert exc.value.code == 2
        assert "grid must be nlat,nlon,lat_start,dlat,lon_start,dlon" in capsys.readouterr().err
        assert not out.exists()
        assert payload_reads == []

    def test_plot_of_an_empty_csv_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "metrics.csv"
        csv.write_text("")
        out = tmp_path / "plots"
        assert main(["plot", "--csv", str(csv), "--out-dir", str(out)]) == 2
        assert f"nwpeval: {csv}: empty file\n" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_refuses_a_negative_lead_before_reading_a_file(self, tmp_path,
                                                                    capsys):
        # as `nwpeval run` refuses lead_hours: [-24]; no input exists, so the
        # lead is refused before the climatology is opened
        out = tmp_path / "metrics.csv"
        assert main(["evaluate", "--forecast-pattern", str(tmp_path / "fc_{lead}.nws"),
                     "--truth-pattern", str(tmp_path / "truth_{lead}.nws"),
                     "--climatology", str(tmp_path / "clim.nws"),
                     "--leads=24,-24", "--out", str(out)]) == 2
        assert "nwpeval: --leads: lead -24 must be >= 0\n" in capsys.readouterr().err
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
        # the label is written in each row that scores the archive
        ["ingest", "--in", "{a}", "--out", "{out}", "--grid", "9,16,90,22.5,0,22.5",
         "--valid-time", "2023-06-06T00:00:00Z", "--label", "a\rb"],
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
        ["evaluate", "--forecast-pattern", "{a}", "--truth-pattern", "{a}",
         "--climatology", "{a}", "--leads", "24", "--region", "a\rb=-90,90,0,360",
         "--out", "{out}"],
        ["evaluate", "--forecast-pattern", "{a}", "--truth-pattern", "{a}",
         "--climatology", "{a}", "--leads", "24", "--region", "r" * 250 + "=-90,90,0,360",
         "--out", "{out}"],
    ], ids=["blend-width", "horizons-x", "horizons-0", "emit-every-0", "lead-0",
            "blank-command", "missing-command",
            "valid-time", "label-a-cr", "leads-x", "leads-repeated", "channels-repeated",
            "pattern-placeholder", "external-off-canonical", "region-empty",
            "region-repeated", "truth-fixed-path", "region-a-slash", "region-a-cr",
            "region-too-long"])
    def test_bad_flag_value_exits_2_without_output(self, archive_path, tmp_path,
                                                   monkeypatch, argv):
        payload_reads = spy_payload_reads(monkeypatch)
        out = tmp_path / "out"
        assert main([a.format(a=archive_path, out=out) for a in argv]) == 2
        assert not out.exists()
        assert payload_reads == []

    @pytest.mark.parametrize("path", ["directory", "through-a-file"])
    @pytest.mark.parametrize("argv", [
        ["inspect", "{p}"],
        ["run", "--config", "{p}"],
        ["plot", "--csv", "{p}", "--out-dir", "{out}"],
        ["regrid", "--in", "{p}", "--out", "{out}"],
        ["splice", "--base", "{p}", "--donor", "{a}", "--box", "-10,60,60,150",
         "--out", "{out}"],
        ["ingest", "--in", "{p}", "--out", "{out}", "--grid", "9,16,90,22.5,0,22.5",
         "--valid-time", "2023-06-06T00:00:00Z", "--label", "x"],
        ["rollout", "--in", "{p}", "--out-dir", "{out}", "--lead", "24"],
        ["evaluate", "--forecast-pattern", "{a}", "--truth-pattern", "{a}",
         "--climatology", "{p}", "--leads", "24", "--out", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_a_path_no_file_can_be_at_exits_2_naming_it(self, archive_path, tmp_path,
                                                        capsys, argv, path):
        # as a missing file does: [Errno 21] Is a directory, [Errno 20] Not a directory
        bad = tmp_path if path == "directory" else archive_path / "x"
        out = tmp_path / "out"
        assert main([a.format(p=bad, a=archive_path, out=out) for a in argv]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("through", [False, True], ids=["taken", "through-a-file"])
    @pytest.mark.parametrize("argv", [
        ["ingest", "--in", "{a}", "--out", "{out}", "--grid", "9,16,90,22.5,0,22.5",
         "--valid-time", "2023-06-06T00:00:00Z", "--label", "x"],
        ["regrid", "--in", "{a}", "--out", "{out}"],
        ["splice", "--base", "{a}", "--donor", "{a}", "--box", "-10,60,60,150",
         "--out", "{out}"],
        ["evaluate", "--forecast-pattern", "{a}", "--truth-pattern", "{a}",
         "--climatology", "{a}", "--leads", "24", "--out", "{out}"],
        ["rollout", "--in", "{a}", "--out-dir", "{out}", "--lead", "48"],
        ["plot", "--csv", "{csv}", "--out-dir", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_an_output_path_taken_or_through_a_file_exits_2_before_any_read(
            self, archive_path, tmp_path, monkeypatch, capsys, argv, through):
        # a --out that is a directory, an --out-dir that is a file, or either
        # one through a file: refused naming it, with no plane read and no
        # file written (rollout exited 1 after its first lead, plot exited 1,
        # and regrid, splice and evaluate read their inputs first)
        csv = tmp_path / "metrics.csv"
        write_metric_csv([], csv)
        taken = tmp_path / "taken"   # a directory for a --out, a file for an --out-dir
        if "--out" in argv:
            taken.mkdir()
        else:
            taken.write_bytes(b"")
        bad = archive_path / "x" if through else taken

        def tree():
            return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

        before = tree()
        payload_reads = spy_payload_reads(monkeypatch)
        assert main([a.format(a=archive_path, csv=csv, out=bad) for a in argv]) == 2
        assert str(bad) in capsys.readouterr().err
        assert payload_reads == []
        assert tree() == before


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
        assert caplog.text.count("contains NaN/Inf") == 1
        assert f"{raw}: plane Z925 contains NaN/Inf" in caplog.text
        # random values break the MSLP, T and Q ranges: warned of unless skipped
        assert (f"{raw}: range: MSLP in " in caplog.text) == (not skip)

    def test_ingest_reads_the_dump_twice_a_plane_at_a_time(self, tmp_path, monkeypatch):
        # each plane is read once for the warnings and once as it is
        # written, in file order: the command holds the plane read and its
        # NaN/Inf mask, where the dump read whole would add 69 planes; a
        # plane's room is for small objects
        grid = GridSpec(nlat=181, nlon=360, lat_start=90.0, dlat=1.0, lon_start=0.0,
                        dlon=1.0)
        state = random_state(grid, seed=66, label="ifs")
        raw, op = tmp_path / "dump.bin", tmp_path / "out.nws"
        raw.write_bytes(np.ascontiguousarray(state.data, dtype="<f4").tobytes())
        payload_reads = spy_payload_reads(monkeypatch)
        tracemalloc.start()
        try:
            assert main(["ingest", "--in", str(raw), "--out", str(op),
                         "--grid", "181,360,90,1,0,1", "--valid-time",
                         "2023-06-06T00:00:00Z", "--label", "ifs"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload_reads == [("dump.bin", ch) for ch in CHANNELS] * 2
        assert op.read_bytes() == archive_bytes(state)
        assert peak < 2.5 * grid.nlat * grid.nlon * 4

    def test_ingest_nan_error_fails_after_the_warnings_of_earlier_planes(
            self, tmp_path, small_grid, caplog, capsys):
        # the warnings pass reads in file order: MSLP, stored first, is
        # warned of before Z925's NaN fails the command, and nothing is written
        data = random_state(small_grid, seed=54).data.copy()
        data[CHANNELS.index((Var.Z, 925)), 2, 3] = np.nan
        raw, out = tmp_path / "dump.bin", tmp_path / "out.nws"
        raw.write_bytes(np.ascontiguousarray(data, dtype="<f4").tobytes())
        g = small_grid
        with caplog.at_level(logging.WARNING):
            assert main(["ingest", "--in", str(raw), "--out", str(out),
                         "--grid", f"{g.nlat},{g.nlon},{g.lat_start},{g.dlat},"
                                   f"{g.lon_start},{g.dlon}",
                         "--valid-time", "2023-06-06T00:00:00Z", "--label", "gfs"]) == 1
        assert f"{raw}: range: MSLP in " in caplog.text
        assert "nwpeval: plane Z925 contains NaN/Inf" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dump.bin"]

    def test_regrid_to_named_grid(self, archive_path, tmp_path):
        out = tmp_path / "regridded.nws"
        rc = main(["regrid", "--in", str(archive_path), "--out", str(out),
                   "--grid", "19,36,90,10,0,10"])
        assert rc == 0
        h = read_header(str(out))
        assert (h["nlat"], h["nlon"]) == (19, 36)


    @pytest.mark.parametrize("source, warned", [
        (GridSpec(nlat=5, nlon=36, lat_start=90.0, dlat=10.0, lon_start=0.0, dlon=10.0),
         True),   # 90..50 N
        (GridSpec(nlat=9, nlon=16, lat_start=90.0, dlat=22.5, lon_start=0.0, dlon=22.5),
         False)], ids=["cap", "global"])
    def test_regrid_warns_of_a_source_short_of_the_grid(self, tmp_path, caplog, source,
                                                        warned):
        # a partial source is a splice donor: written all the same
        src, out = tmp_path / "src.nws", tmp_path / "out.nws"
        write_archive(random_state(source, seed=55), str(src))
        with caplog.at_level(logging.WARNING):
            assert main(["regrid", "--in", str(src), "--out", str(out),
                         "--grid", "19,36,90,10,0,10"]) == 0
        assert [r.getMessage() for r in caplog.records] == (
            [f"{src} does not cover the grid: rows and columns past its span repeat "
             "its edge"] if warned else [])
        assert read_header(str(out))["grid"] == GridSpec(nlat=19, nlon=36, lat_start=90.0,
                                                         dlat=10.0, lon_start=0.0,
                                                         dlon=10.0)

    def test_regrid_reads_the_input_a_plane_at_a_time(self, tmp_path, monkeypatch):
        # each input plane is read once, as it is regridded, and written
        # as it is made: the command holds the regrid work area, the view's
        # output plane and the input plane being regridded, where the output
        # state would add 69 output planes; a second input plane's room is
        # for small objects
        src = GridSpec(nlat=181, nlon=360, lat_start=90.0, dlat=1.0, lon_start=0.0, dlon=1.0)
        dst = GridSpec(nlat=91, nlon=180, lat_start=90.0, dlat=2.0, lon_start=0.0, dlon=2.0)
        state = random_state(src, seed=60, label="gfs")
        ip, op = tmp_path / "in.nws", tmp_path / "out.nws"
        write_archive(state, ip)
        payload_reads = spy_payload_reads(monkeypatch)
        tracemalloc.start()
        try:
            assert main(["regrid", "--in", str(ip), "--out", str(op),
                         "--grid", "91,180,90,2,0,2"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Counter(payload_reads) == Counter(("in.nws", ch) for ch in CHANNELS)
        assert op.read_bytes() == archive_bytes(regrid_state(state, dst))
        work = 8 * (src.nlat * src.nlon + 2 * src.nlat * dst.nlon + 2 * dst.nlat * dst.nlon)
        assert peak < (dst.nlat * dst.nlon + 2 * src.nlat * src.nlon) * 4 + work

    def test_regrid_on_the_grid_writes_each_plane_as_it_is_read(self, tmp_path,
                                                                 monkeypatch):
        # a source already on the grid is written back a plane at a time:
        # each plane read once, and no state held; a plane of room goes to
        # the file buffer and small objects
        grid = GridSpec(nlat=181, nlon=360, lat_start=90.0, dlat=1.0, lon_start=0.0,
                        dlon=1.0)
        ip, op = tmp_path / "in.nws", tmp_path / "out.nws"
        write_archive(random_state(grid, seed=64, label="ifs"), ip)
        payload_reads = spy_payload_reads(monkeypatch)
        tracemalloc.start()
        try:
            assert main(["regrid", "--in", str(ip), "--out", str(op),
                         "--grid", "181,360,90,1,0,1"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload_reads == [("in.nws", ch) for ch in CHANNELS]
        assert op.read_bytes() == ip.read_bytes()
        assert peak < 3 * grid.nlat * grid.nlon * 4


class TestSplice:
    @pytest.mark.parametrize("allow", [False, True], ids=["strict", "allow-time"])
    @pytest.mark.parametrize("differ", ["grid", "valid_time"])
    def test_inputs_checked_before_either_payload_is_read(self, tmp_path, small_grid,
                                                          coarse_grid, monkeypatch, capsys,
                                                          differ, allow):
        base = random_state(small_grid, seed=56, label="a")
        donor = (random_state(coarse_grid, seed=57, label="b") if differ == "grid" else
                 base.replace(valid_time=base.valid_time + timedelta(hours=6)))
        bp, dp, op = (tmp_path / n for n in ("base.nws", "donor.nws", "out.nws"))
        write_archive(base, str(bp))
        write_archive(donor, str(dp))
        payload_reads = spy_payload_reads(monkeypatch)
        rc = main(["splice", "--base", str(bp), "--donor", str(dp), "--box",
                   "-10,60,60,150", "--out", str(op)] + ["--allow-time-mismatch"] * allow)
        if allow and differ == "valid_time":
            assert rc == 0 and op.exists()
            return
        assert rc == 2 and not op.exists()
        assert payload_reads == []
        assert (f"nwpeval: --base {bp} and --donor {dp} differ in {differ}: "
                f"{getattr(base, differ)} against {getattr(donor, differ)}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("scope", ["upper-only", "all-channels"])
    def test_each_donor_plane_is_read_once(self, tmp_path, monkeypatch, scope):
        # base and donor are read a plane at a time, each base plane once
        # and each donor plane in scope once, and each output plane is
        # written as it is made; upper-only reads no surface plane of the
        # donor
        grid = GridSpec(nlat=91, nlon=180, lat_start=90.0, dlat=2.0, lon_start=0.0,
                        dlon=2.0)
        base = random_state(grid, seed=58, label="a")
        donor = random_state(grid, seed=59, label="b")
        bp, dp, op = (tmp_path / n for n in ("base.nws", "donor.nws", "out.nws"))
        write_archive(base, str(bp))
        write_archive(donor, str(dp))
        payload_reads = spy_payload_reads(monkeypatch)
        tracemalloc.start()
        try:
            assert main(["splice", "--base", str(bp), "--donor", str(dp), "--box",
                         "-10,60,60,150", "--out", str(op), "--scope", scope]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        in_scope = [ch for ch in CHANNELS if scope == "all-channels" or not ch[0].is_surface]
        assert Counter(ch for name, ch in payload_reads if name == "donor.nws") == \
            Counter(in_scope)
        assert Counter(ch for name, ch in payload_reads if name == "base.nws") == \
            Counter(CHANNELS)
        spec = SpliceSpec(region=RegionBox(-10.0, 60.0, 60.0, 150.0), variable_scope=scope)
        assert op.read_bytes() == archive_bytes(splice_states(base, donor, spec))
        # the view's plane, a plane of each input and, while the mask is
        # built, the float64 distance to the box (two planes); two planes'
        # room for small objects, where the output state would add 69
        assert peak < 7 * grid.nlat * grid.nlon * 4

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


class TestOutNamingAnInput:
    """`write_archive` replaces --out only with a whole archive, renamed onto
    it after the last plane is read, so an --out that names an input gets
    the right bytes."""

    @pytest.mark.parametrize("grid", ["19,36,90,10,0,10", "9,16,90,22.5,0,22.5"],
                             ids=["regridded", "on-its-grid"])
    def test_regrid(self, tmp_path, small_grid, grid):
        state = random_state(small_grid, seed=61, label="gfs")
        path = tmp_path / "x.nws"
        write_archive(state, path)
        nlat, nlon, lat_start, dlat, lon_start, dlon = map(float, grid.split(","))
        want = archive_bytes(regrid_state(state, GridSpec(nlat=nlat, nlon=nlon,
                                                          lat_start=lat_start, dlat=dlat,
                                                          lon_start=lon_start, dlon=dlon)))
        assert main(["regrid", "--in", str(path), "--out", str(path), "--grid", grid]) == 0
        assert path.read_bytes() == want

    @pytest.mark.parametrize("named", ["base", "donor"])
    def test_splice(self, tmp_path, coarse_grid, named):
        base = random_state(coarse_grid, seed=62, label="a")
        donor = random_state(coarse_grid, seed=63, label="b")
        paths = {"base": tmp_path / "base.nws", "donor": tmp_path / "donor.nws"}
        write_archive(base, paths["base"])
        write_archive(donor, paths["donor"])
        spec = SpliceSpec(region=RegionBox(-10.0, 60.0, 60.0, 150.0), blend_width=5.0)
        want = archive_bytes(splice_states(base, donor, spec))
        assert main(["splice", "--base", str(paths["base"]), "--donor", str(paths["donor"]),
                     "--box", "-10,60,60,150", "--blend-width", "5",
                     "--out", str(paths[named])]) == 0
        assert paths[named].read_bytes() == want

    def test_ingest(self, tmp_path, small_grid):
        state = random_state(small_grid, seed=65, label="ifs")
        path = tmp_path / "x.bin"
        path.write_bytes(np.ascontiguousarray(state.data, dtype="<f4").tobytes())
        g = small_grid
        assert main(["ingest", "--in", str(path), "--out", str(path),
                     "--grid", f"{g.nlat},{g.nlon},{g.lat_start},{g.dlat},{g.lon_start},{g.dlon}",
                     "--valid-time", "2023-06-06T00:00:00Z", "--label", "ifs",
                     "--skip-validation"]) == 0
        assert path.read_bytes() == archive_bytes(state)   # valid at default_time()


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

    @pytest.mark.parametrize("damage", ["missing", "truncated", "label-a-cr"])
    def test_evaluate_bad_forecast_is_per_lead(self, tmp_path, small_grid, caplog,
                                               damage):
        # a forecast that is missing, cannot be read, or whose label cannot be
        # written in a row of the CSV costs its lead, as a truth does
        for lead in (24, 48):
            write_archive(make_state(small_grid, seed=57, source_label="gfs"),
                          str(tmp_path / f"fc_{lead}.nws"))
            write_archive(make_state(small_grid, seed=58, source_label="era5"),
                          str(tmp_path / f"truth_{lead}.nws"))
        fc = tmp_path / "fc_48.nws"
        if damage == "missing":
            fc.unlink()
            want = f"lead 48: missing forecast file {fc}"
        elif damage == "truncated":
            fc.write_bytes(fc.read_bytes()[:-7])
            want = f"lead 48: forecast {fc}: payload truncated in channel V50"
        else:
            write_archive(make_state(small_grid, seed=57, source_label="a\rb"), str(fc))
            want = f"lead 48: forecast {fc}: label 'a\\rb' holds a carriage return"
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
        assert main(["plot", "--csv", str(csv), "--out-dir", str(tmp_path / "plots")]) == 0

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

    @pytest.mark.parametrize("backend", ["persistence", "external"])
    def test_rollout_of_a_short_in_exits_1_before_any_step(self, archive_path, tmp_path,
                                                           small_grid, monkeypatch, capsys,
                                                           backend):
        # refused as every other command refuses it: before --out-dir is made
        # or a backend starts; an external one would find --in on its grid
        from nwpeval import cli
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: small_grid))
        started, rollout = [], cli.run_rollout
        monkeypatch.setattr(cli, "run_rollout",
                            lambda *a, **k: started.append(a) or rollout(*a, **k))
        marker = tmp_path / "started"
        if backend == "external":
            script = tmp_path / "backend.py"
            script.write_text(f"open({str(marker)!r}, 'w').close()\n")
            backend = f"cmd:{sys.executable} {script}"
        archive_path.write_bytes(archive_path.read_bytes()[:-7])
        fdir = tmp_path / "fc"
        assert main(["rollout", "--in", str(archive_path), "--out-dir", str(fdir),
                     "--lead", "24", "--backend", backend]) == 1
        assert "payload truncated in channel V50" in capsys.readouterr().err
        assert not fdir.exists()
        assert started == [] and not marker.exists()


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
    # a NUL or a name over 255 bytes cannot name a plot's file; the CSV
    # writer leaves a carriage return unquoted, so its row reads as two;
    # UTF-8 cannot encode a lone surrogate
    "region-a-nul": {"regions": {"glo\0bal": [-90, 90, 0, 360]}},
    "region-a-cr": {"regions": {"a\rb": [-90, 90, 0, 360]}},
    "region-too-long": {"regions": {"r" * 250: [-90, 90, 0, 360]}},
    "label-a-cr": {"splice_scenarios": scenario(label="a\rb")},
    "label-a-surrogate": {"splice_scenarios": scenario(label="a\ud800b")},
    "repeated-lead": {"lead_hours": [24, 48, 24]},
    "output-dir-a-file": {"output_dir": "clim.nws"},
    "output-dir-through-a-file": {"output_dir": "clim.nws/out"},
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
    # float() would read a bool as 1 degree, and fail on a word naming no key
    "blend-width-a-bool": {"splice_scenarios": scenario(blend_width=True)},   # 1 degree
    "dlat-a-bool": {"grid": {"nlat": 9, "nlon": 16, "dlat": True, "dlon": 22.5}},
    "region-bound-a-bool": {"regions": {"bad": [-90, 90, 0, True]}},   # lon_max 1
    "dlat-a-word": {"grid": {"nlat": 9, "nlon": 16, "dlat": "north", "dlon": 22.5}},
    # an archive's header gives its grid and layout: one given too is unused
    "nws-source-grid": {"ic_sources": [{"label": "src0", "path": "src0.nws",
                                        "grid": {"nlat": 9, "nlon": 16}}]},
    "nws-source-layout": {"ic_sources": [{"label": "src0", "path": "src0.nws",
                                          "layout": {"scan": "south-first"}}]},
    "config-version": {"config_version": 2},
    "grid-without-nlat": {"grid": {"nlon": 16, "dlat": 22.5, "dlon": 22.5}},
    "zero-dlat": {"grid": {"nlat": 9, "nlon": 16, "dlat": 0, "dlon": 22.5}},
    "lon-start-360": {"grid": {"nlat": 9, "nlon": 16, "lon_start": 360,
                               "dlat": 22.5, "dlon": 22.5}},
    "builtin-pangu": {"backend": {"builtin": "pangu"}},
    # a file that exists and is no archive: the config itself
    "raw-source-without-grid": {"ic_sources": [{"label": "r", "path": "exp.yaml"}]},
    # a directory the test makes: its header cannot be read
    "nws-source-a-directory": {"ic_sources": [{"label": "a", "path": "dir.nws"}]},
}


class TestRunSubcommand:
    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_schema_errors_exit_2_before_running(self, tmp_path, small_grid,
                                                 monkeypatch, capsys, case):
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        (tmp_path / "dir.nws").mkdir()
        payload_reads = spy_payload_reads(monkeypatch)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, BAD_CONFIGS[case])))
        assert main(["run", "--config", str(cfg)]) == 2
        assert payload_reads == []
        assert not (tmp_path / "out" / "run.log").exists()
        assert "nwpeval:" in capsys.readouterr().err

    def test_run_plots_are_those_plot_draws_from_its_csv(self, tmp_path, small_grid):
        # a run draws its plots from the metrics.csv it writes, so `nwpeval
        # plot` on that file gives the same SVGs, byte for byte
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, {
            "splice_scenarios": scenario(label='pad "east"'),
            "regions": {"global": [-90, 90, 0, 360], "east, asia": [-10, 60, 60, 150]}})))
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert main(["plot", "--csv", str(out / "metrics.csv"),
                     "--out-dir", str(tmp_path / "replot")]) == 0
        run_svgs = sorted(out.joinpath("plots").iterdir())
        assert len(run_svgs) == 9 * 2 * 2
        assert [p.name for p in run_svgs] == sorted(
            p.name for p in (tmp_path / "replot").iterdir())
        for p in run_svgs:
            assert p.read_bytes() == (tmp_path / "replot" / p.name).read_bytes()

    @pytest.mark.parametrize("case, message", [
        ("config-version", "unsupported config_version 2"),
        ("grid-without-nlat", "missing required key 'nlat' in grid"),
        ("zero-dlat", "grid: dlat and dlon must be positive"),
        ("lon-start-360", "grid: lon_start must lie in [0, 360)"),
        ("builtin-pangu", "backend: unknown builtin backend 'pangu'"),
        ("raw-source-without-grid", "source 'r': raw dumps require grid and layout"),
        ("nws-source-a-directory", "source 'a': [Errno 21] Is a directory"),
        ("region-a-nul", "region 'glo\\x00bal' holds a NUL byte"),
        ("region-a-cr", "region 'a\\rb' holds a carriage return"),
        ("region-too-long", "gives a plot a file name of 264 bytes, over 255"),
        ("label-a-cr", "run label 'a\\rb' holds a carriage return"),
        ("label-a-surrogate", "run label 'a\\ud800b' cannot be encoded as UTF-8"),
        ("output-dir-a-file", "clim.nws is not a directory"),
        ("output-dir-through-a-file", "clim.nws/out: ")])
    def test_a_config_error_exits_2_naming_its_cause(self, tmp_path, small_grid,
                                                     monkeypatch, capsys, case, message):
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        (tmp_path / "dir.nws").mkdir()
        payload_reads = spy_payload_reads(monkeypatch)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, BAD_CONFIGS[case])))
        assert main(["run", "--config", str(cfg)]) == 2
        assert payload_reads == []
        assert not (tmp_path / "out").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("extra, rc", [(0, 0), (1, 2)])
    def test_a_region_may_name_plots_of_255_bytes(self, tmp_path, small_grid, capsys,
                                                  extra, rc):
        # 'Z500_' + the region + '_RMSE.svg' is the longest name of its plots;
        # the limit is on bytes, and 'é' is two
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        region = "é" * 120 + "r" * (1 + extra)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, {
            "regions": {region: [-90, 90, 0, 360]}})))
        assert main(["run", "--config", str(cfg)]) == rc
        svg = tmp_path / "out" / "plots" / f"Z500_{region}_RMSE.svg"
        if rc == 0:
            assert len(svg.name.encode()) == 255 and svg.exists()
        else:
            assert "gives a plot a file name of 256 bytes" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_a_config_that_is_a_list_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump([{"name": "cli-run"}]))
        assert main(["run", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()
        assert f"nwpeval: {cfg}: config must be a mapping\n" in capsys.readouterr().err

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

    @pytest.mark.parametrize("case, message", [
        ("blend-width-a-bool",
         "splice_scenarios[0]: blend_width must be a number of degrees, got True"),
        ("dlat-a-bool", "grid: dlat must be a number of degrees, got True"),
        ("region-bound-a-bool",
         "bad box [-90, 90, 0, True]: lon_max must be a number of degrees, got True"),
        ("dlat-a-word", "grid: dlat must be a number of degrees, got 'north'")])
    def test_a_degree_value_that_is_no_number_exits_2_naming_its_key(
            self, tmp_path, small_grid, capsys, case, message):
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels, BAD_CONFIGS[case])))
        assert main(["run", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()
        assert f"nwpeval: {cfg}: {message}\n" in capsys.readouterr().err

    # a donor on 5 rows 67.5..-22.5 N and 7 columns 45..180 E, or across 0/360
    # degrees on 5 columns 337.5..67.5 E; the model grid is 9x16, global
    REGIONAL = {"nlat": 5, "nlon": 7, "lat_start": 67.5, "dlat": 22.5,
                "lon_start": 45.0, "dlon": 22.5}
    ACROSS_THE_SEAM = {"nlat": 9, "nlon": 5, "lat_start": 90.0, "dlat": 22.5,
                       "lon_start": 337.5, "dlon": 22.5}

    @pytest.mark.parametrize("donor, box, blend_width, covered", [
        (REGIONAL, [-10, 60, 60, 150], 0.0, True),
        (REGIONAL, [-10, 60, 60, 150], 7.5, True),   # reaches 67.5 N and 45 E
        (REGIONAL, [-10, 60, 60, 150], 10.0, False),   # 70 N is past its north row
        (REGIONAL, [-10, 80, 60, 150], 0.0, False),
        (REGIONAL, [-10, 60, 30, 150], 0.0, False),   # 30 E is west of it
        (ACROSS_THE_SEAM, [-10, 60, 0, 30], 10.0, True),   # 350..40 E
        (ACROSS_THE_SEAM, [-10, 60, 0, 60], 10.0, False)],   # 350..70 E
        ids=["box", "box-and-ring", "ring-short", "box-short", "box-west",
             "across-0/360", "across-0/360-short"])
    def test_a_donor_must_cover_its_box_and_ring(self, tmp_path, small_grid,
                                                 monkeypatch, capsys, donor, box,
                                                 blend_width, covered):
        # past its grid a donor is regridded with its edge values
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        write_archive(make_state(GridSpec(**donor), seed=9, source_label="lam"),
                      str(tmp_path / "lam.nws"))
        doc = run_doc(small_grid, labels, {"splice_scenarios": [
            {"label": "lampadsrc0", "base_source": "src0", "donor_source": "lam",
             "box": box, "blend_width": blend_width}]})
        doc["ic_sources"].append({"label": "lam", "path": "lam.nws"})
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        payload_reads = spy_payload_reads(monkeypatch)
        if covered:
            assert main(["run", "--config", str(cfg)]) == 0
            log = (tmp_path / "out" / "run.log").read_text()
            assert "lampadsrc0" in log and "FAILED" not in log
            return
        assert main(["run", "--config", str(cfg)]) == 2
        assert payload_reads == []
        assert not (tmp_path / "out").exists()
        assert (f"nwpeval: scenario 'lampadsrc0': donor 'lam' does not cover the box "
                f"plus blend_width ({blend_width:g} degrees) on its own grid"
                in capsys.readouterr().err)

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
        # validate opens the climatology and each IC to check its header and
        # payload size; the climatology is opened once more to read its
        # planes, and the rollout opens each on-grid IC again to read and
        # check its 69 planes, each once. Each truth is opened once, by the
        # PlaneReader that checks its header, and each of its planes read
        # alone, once, with no header parsed again. Each region mask is
        # built once, for validate and scoring both
        from nwpeval import archive, verify
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        headers, planes, masks, parsed = [], [], [], Counter()

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
                                         + [f"{lb}.nws" for lb in labels] * 2)
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
            assert parsed[f"{lb}.nws"] == 2
        assert len(masks) == 2

    def test_each_run_drives_one_rollout(self, tmp_path, small_grid, monkeypatch):
        # as perfbench's tracer wraps it: by its name in experiment
        from nwpeval import experiment
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        calls = []
        monkeypatch.setattr(experiment, "run_rollout",
                            lambda *a, _f=experiment.run_rollout, **k:
                            calls.append(True) or _f(*a, **k))
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels,
                                              {"splice_scenarios": scenario()})))
        assert main(["run", "--config", str(cfg)]) == 0
        assert len(calls) == len(labels) + 1

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

    def test_full_run(self, tmp_path, small_grid, monkeypatch, capsys):
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, labels)))
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        out = capsys.readouterr().out
        assert "config sha256" in out
        # a source whose payload is short is a config error: exit 2, named
        # on stderr, before any payload is read or run.log written
        path = tmp_path / f"{labels[1]}.nws"
        path.write_bytes(path.read_bytes()[:-5])
        (tmp_path / "out" / "run.log").unlink()
        payload_reads = spy_payload_reads(monkeypatch)
        assert main(["run", "--config", str(cfg)]) == 2
        assert (f"nwpeval: source {labels[1]!r}: payload truncated in channel V50"
                in capsys.readouterr().err)
        assert payload_reads == []
        assert not (tmp_path / "out" / "run.log").exists()


class TestSourceCover:
    """A source that covers only part of the model grid is read as a splice
    donor alone; as a run, or a splice base, it is a config error."""

    MODEL = GridSpec(nlat=19, nlon=36, lat_start=90.0, dlat=10.0, lon_start=0.0,
                     dlon=10.0)
    CAP = GridSpec(nlat=5, nlon=36, lat_start=90.0, dlat=10.0, lon_start=0.0,
                   dlon=10.0)   # 90..50 N
    POLES_OFF = GridSpec(nlat=18, nlon=36, lat_start=85.0, dlat=10.0, lon_start=0.0,
                         dlon=10.0)   # 85..-85 N: half a step short of each pole

    def write_config(self, tmp_path, sources, splices):
        t0 = default_time()
        for seed, (label, grid) in enumerate(sources.items(), start=71):
            write_archive(make_state(grid, seed=seed, source_label=label),
                          str(tmp_path / f"{label}.nws"))
        write_archive(make_state(self.MODEL, seed=70, source_label="truth",
                                 valid_time=t0 + timedelta(hours=24)),
                      str(tmp_path / "truth_24.nws"))
        write_archive(make_climatology(self.MODEL), str(tmp_path / "clim.nws"))
        doc = run_doc(self.MODEL, list(sources), {"lead_hours": [24], "splice_scenarios": [
            {"label": f"{donor}pad{base}", "base_source": base, "donor_source": donor,
             "box": [60, 80, 0, 360]} for base, donor in splices]})
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        return cfg

    def test_a_donor_short_of_the_model_grid_is_no_run(self, tmp_path):
        cfg = self.write_config(tmp_path, {"gfs": self.MODEL, "cap": self.CAP},
                                [("gfs", "cap")])
        assert main(["run", "--config", str(cfg)]) == 0
        rows = read_metric_csv(str(tmp_path / "out" / "metrics.csv"))
        assert {r["source"] for r in rows} == {"gfs", "cappadgfs"}
        log = (tmp_path / "out" / "run.log").read_text().splitlines()
        assert "runs: gfs, cappadgfs" in log
        assert ("cap: a splice donor only: it does not cover the model grid, so it is "
                "not rolled out or scored") in log

    @pytest.mark.parametrize("splices, message", [
        ([], "source 'cap' does not cover the model grid and no splice takes it as a "
             "donor: it would be scored as a run"),
        ([("cap", "gfs")], "source 'cap' does not cover the model grid, so it cannot "
                           "be the base of scenario 'gfspadcap'")],
        ids=["unused", "base"])
    def test_a_source_short_of_the_model_grid_exits_2(self, tmp_path, monkeypatch, capsys,
                                                      splices, message):
        cfg = self.write_config(tmp_path, {"gfs": self.MODEL, "cap": self.CAP}, splices)
        payload_reads = spy_payload_reads(monkeypatch)
        assert main(["run", "--config", str(cfg)]) == 2
        assert payload_reads == []
        assert not (tmp_path / "out").exists()
        assert f"nwpeval: {message}" in capsys.readouterr().err

    def test_a_global_source_without_pole_rows_is_a_run(self, tmp_path):
        cfg = self.write_config(tmp_path, {"gfs": self.MODEL, "mid": self.POLES_OFF}, [])
        assert main(["run", "--config", str(cfg)]) == 0
        rows = read_metric_csv(str(tmp_path / "out" / "metrics.csv"))
        assert Counter(r["source"] for r in rows) == {"gfs": 36, "mid": 36}


class TestSourceSize:
    """validate opens every IC source, raw dumps included, for its header and
    payload size: a short or long one exits 2 before any payload is read."""

    @pytest.mark.parametrize("damage, message", [
        (lambda b: b[:-7], "payload truncated in channel V50"),
        (lambda b: b + b"\0", "bytes follow the payload")], ids=["short", "long"])
    @pytest.mark.parametrize("kind", ["archive", "raw"])
    def test_a_source_of_the_wrong_size_exits_2(self, tmp_path, small_grid, monkeypatch,
                                                capsys, kind, damage, message):
        from tests.test_experiment import build_inputs
        labels = build_inputs(tmp_path, small_grid)
        raw = make_state(small_grid, seed=5, source_label="raw")
        (tmp_path / "raw.bin").write_bytes(np.ascontiguousarray(raw.data, "<f4").tobytes())
        path, label = ((tmp_path / "raw.bin", "raw") if kind == "raw"
                       else (tmp_path / f"{labels[1]}.nws", labels[1]))
        path.write_bytes(damage(path.read_bytes()))
        doc = run_doc(small_grid, labels)
        doc["ic_sources"].append({"label": "raw", "path": "raw.bin",
                                  "grid": doc["grid"], "layout": {}})
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        payload_reads = spy_payload_reads(monkeypatch)
        assert main(["run", "--config", str(cfg)]) == 2
        assert payload_reads == []
        assert not (tmp_path / "out").exists()
        assert f"nwpeval: source {label!r}: {message}" in capsys.readouterr().err


class TestRunIsTheStageCommands:
    """`nwpeval run` prepares, rolls out and scores its ICs by its own code
    path; the stage commands, chained, must reach the same ICs and rows."""

    MODEL = GridSpec(nlat=19, nlon=36, lat_start=90.0, dlat=10.0, lon_start=0.0,
                     dlon=10.0)
    COARSE = GridSpec(nlat=10, nlon=18, lat_start=90.0, dlat=20.0, lon_start=0.0,
                      dlon=20.0)
    BOX = "-10,60,60,150"
    # (label, base, donor, extra splice flags); a label is <donor>pad<base>,
    # as splice_states names its output and `evaluate` labels its rows
    SPLICES = [("ifspadgfs", "gfs", "ifs", []),
               ("gfspadifs", "ifs", "gfs", ["--blend-width", "20", "--scope",
                                            "all-channels"])]

    def write_inputs(self, tmp_path):
        """gfs, a .nws on a coarser grid; ifs, a south-first raw dump in the
        canonical channel order; era, a .nws on the model grid; and the
        truths at leads 24 and 48 and the climatology."""
        t0 = default_time()
        write_archive(make_state(self.COARSE, seed=61, source_label="gfs"),
                      str(tmp_path / "gfs.nws"))
        ifs = make_state(self.MODEL, seed=62, source_label="ifs")
        (tmp_path / "ifs.bin").write_bytes(
            np.ascontiguousarray(ifs.data[:, ::-1], dtype="<f4").tobytes())
        write_archive(make_state(self.MODEL, seed=63, source_label="era"),
                      str(tmp_path / "era.nws"))
        for lead in (24, 48):
            write_archive(make_state(self.MODEL, seed=64 + lead, source_label="truth",
                                     valid_time=t0 + timedelta(hours=lead)),
                          str(tmp_path / f"truth_{lead}.nws"))
        write_archive(make_climatology(self.MODEL), str(tmp_path / "clim.nws"))

    def run_doc(self, backend):
        g = self.MODEL
        grid = {"nlat": g.nlat, "nlon": g.nlon, "lat_start": g.lat_start,
                "dlat": g.dlat, "lon_start": g.lon_start, "dlon": g.dlon}
        return {
            "name": "stages", "init_time": "2023-06-06T00:00:00Z", "grid": grid,
            "ic_sources": [{"label": "gfs", "path": "gfs.nws"},
                           {"label": "ifs", "path": "ifs.bin", "grid": grid,
                            "layout": {"scan": "south-first"}},
                           {"label": "era", "path": "era.nws"}],
            "splice_scenarios": [
                {"label": label, "base_source": base, "donor_source": donor,
                 "box": [float(x) for x in self.BOX.split(",")],
                 **({"blend_width": 20, "scope": "all-channels"} if flags else {})}
                for label, base, donor, flags in self.SPLICES],
            "truth": "truth_{lead}.nws", "climatology": "clim.nws",
            "lead_hours": [24, 48], "output_dir": "out", "workers": 2,
            "backend": backend}

    @pytest.mark.parametrize("kind", ["advection", "copy"])
    def test_ics_and_rows_equal_the_stage_commands(self, tmp_path, monkeypatch, kind):
        from nwpeval import experiment
        from tests.test_rollout import write_copy_backend
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: self.MODEL))
        self.write_inputs(tmp_path)
        if kind == "copy":
            command = write_copy_backend(tmp_path / "backend.py").command
            backend, flags = ({"kind": "external-command", "command": command},
                              ["--backend", f"cmd:{command}"])
        else:
            backend, flags = {"builtin": "advection"}, ["--backend", "advection"]

        # `nwpeval run`, keeping each IC as it is handed to its rollout
        ics = []
        start = experiment.run_rollout

        def keep(ic, *args, **kwargs):
            ics.append(ic if isinstance(ic, str) else ic.replace(data=ic.data.copy()))
            return start(ic, *args, **kwargs)

        monkeypatch.setattr(experiment, "run_rollout", keep)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(self.run_doc(backend)))
        assert main(["run", "--config", str(cfg)]) == 0

        # the stage commands, run by run
        d = tmp_path
        model = ",".join(f"{v:g}" for v in (self.MODEL.nlat, self.MODEL.nlon,
                                            self.MODEL.lat_start, self.MODEL.dlat,
                                            self.MODEL.lon_start, self.MODEL.dlon))
        assert main(["regrid", "--in", str(d / "gfs.nws"), "--out", str(d / "gfs_m.nws"),
                     "--grid", model]) == 0
        assert main(["ingest", "--in", str(d / "ifs.bin"), "--out", str(d / "ifs_m.nws"),
                     "--grid", model, "--scan", "south-first", "--label", "ifs",
                     "--valid-time", "2023-06-06T00:00:00Z"]) == 0
        stage_ics = {"gfs": d / "gfs_m.nws", "ifs": d / "ifs_m.nws", "era": d / "era.nws"}
        for label, base, donor, extra in self.SPLICES:
            stage_ics[label] = d / f"{label}.nws"
            assert main(["splice", "--base", str(stage_ics[base]), "--donor",
                         str(stage_ics[donor]), "--box", self.BOX,
                         "--out", str(stage_ics[label]), *extra]) == 0
        rows = []
        for label, path in stage_ics.items():
            assert main(["rollout", "--in", str(path), "--out-dir", str(d / f"fc_{label}"),
                         "--lead", "48", *flags]) == 0
            assert main(["evaluate", "--forecast-pattern",
                         str(d / f"fc_{label}" / "forecast_{lead:03d}h.nws"),
                         "--truth-pattern", str(d / "truth_{lead}.nws"),
                         "--climatology", str(d / "clim.nws"), "--leads", "24,48",
                         "--out", str(d / f"{label}.csv")]) == 0
            rows += (d / f"{label}.csv").read_text().splitlines()[1:]

        # each IC bitwise; under a builtin, run holds the report planes alone
        assert len(ics) == len(stage_ics)
        for ic, (label, path) in zip(ics, stage_ics.items()):
            if isinstance(ic, str):   # an on-grid source no splice takes
                assert ic == str(path)
                continue
            stage = read_archive(str(path))
            assert ic.channels == (CHANNELS if kind == "copy" else DEFAULT_REPORT_CHANNELS)
            assert (ic.source_label, ic.grid, ic.valid_time) == \
                (label, stage.grid, stage.valid_time)
            assert ic.data.tobytes() == stage.subset(ic.channels).data.tobytes(), label
        run_rows = (d / "out" / "metrics.csv").read_text().splitlines()
        assert sorted(run_rows[1:]) == sorted(rows)
        assert len(rows) == len(stage_ics) * 9 * 2 * 2 * 2


class TestStepOutputReads:
    """Each plane of each step output is read once: by its scorer, or by the
    rollout's check of the planes its caller left unread. Opening a step's
    output reads none."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Per step output (step001.nws on), the number of times it was
        opened, and of reads of each of its planes."""
        opened, planes, lock = Counter(), Counter(), threading.Lock()

        def record(path, channels, plane):
            if re.fullmatch(r"step0*[1-9]\d*\.nws", name_of(path)):
                with lock:
                    (planes if channels else opened)[(str(path), *channels)] += 1

        spy_plane_reader(monkeypatch, record)
        return opened, planes

    def assert_once(self, reads, outputs):
        opened, planes = reads
        assert len(opened) == outputs and set(opened.values()) == {1}
        assert planes == Counter({(path, ch): 1 for (path,) in opened for ch in CHANNELS})

    def test_opening_a_step_output_reads_no_plane(self, tmp_path, small_grid, monkeypatch,
                                                  reads):
        from nwpeval import rollout
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: small_grid))
        path = tmp_path / "step001.nws"
        write_archive(random_state(small_grid, seed=61), str(path))
        rollout._open_step(path, 1, 24, None, default_time(), "fc").close()
        assert reads == (Counter({(str(path),): 1}), Counter())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run(self, tmp_path, small_grid, monkeypatch, reads, workers):
        # lead 48 is no lead asked for: its step's planes are all checked unscored
        from tests.test_rollout import write_copy_backend
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: small_grid))
        truth = make_state(small_grid, seed=62, source_label="era5")
        for lead in (24, 72):
            write_archive(truth.replace(valid_time=truth.valid_time + timedelta(hours=lead)),
                          str(tmp_path / f"truth_{lead}.nws"))
        write_archive(make_climatology(small_grid), str(tmp_path / "clim.nws"))
        for n in range(2):
            write_archive(make_state(small_grid, seed=63 + n, source_label=f"src{n}"),
                          str(tmp_path / f"src{n}.nws"))
        command = write_copy_backend(tmp_path / "backend.py").command
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(run_doc(small_grid, ["src0", "src1"], {
            "lead_hours": [24, 72], "workers": workers, "splice_scenarios": scenario(),
            "backend": {"kind": "external-command", "command": command}})))
        assert main(["run", "--config", str(cfg)]) == 0
        assert len(read_metric_csv(str(tmp_path / "out" / "metrics.csv"))) == 3 * 9 * 2 * 2 * 2
        self.assert_once(reads, 3 * 3)

    @pytest.mark.parametrize("verify", [False, True])
    def test_rollout(self, tmp_path, small_grid, monkeypatch, reads, verify):
        # step 1, at lead 24, is no lead emitted; with --verify-determinism
        # it is hashed, and its repeat's output is opened and never read
        from tests.test_rollout import recorded_starts, write_copy_backend
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: small_grid))
        write_archive(random_state(small_grid, seed=64), str(tmp_path / "ic.nws"))
        command = write_copy_backend(tmp_path / "backend.py").command
        procs = recorded_starts(monkeypatch)
        assert main(["rollout", "--in", str(tmp_path / "ic.nws"), "--out-dir",
                     str(tmp_path / "fc"), "--lead", "72", "--emit-every", "48",
                     "--backend", f"cmd:{command}"] + ["--verify-determinism"] * verify) == 0
        assert sorted(p.name for p in (tmp_path / "fc").iterdir()) == [
            "forecast_048h.nws", "forecast_072h.nws"]
        opened, planes = reads
        if verify:
            repeat = procs[-1].args[procs[-1].args.index("--out") + 1]
            assert opened.pop((repeat,)) == 1
        self.assert_once(reads, 3)
