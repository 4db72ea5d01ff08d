import itertools
import os
import random
import re
import subprocess
import sys
from html import escape
from pathlib import Path

import pytest

import nwpeval
from nwpeval.grids import Var, channel_name
from nwpeval.plots import (PlotInputError, emit_plots, read_metric_csv,
                           write_metric_csv)
from nwpeval.synthetic import default_time
from nwpeval.verify import MetricRecord

HEADER = "init_time,source,variable,level,region,lead_hours,metric,value\n"


def write_csv(path, rows):
    lines = [HEADER.strip()]
    for r in rows:
        lines.append(",".join(str(x) for x in r))
    path.write_text("\n".join(lines) + "\n")


def row(source, var, level, region, lead, metric, value):
    return ("2023-06-06T00:00:00Z", source, var, level, region, lead, metric, value)


class TestWriteMetricCsv:
    def test_records_sorted_canonically(self, tmp_path):
        # levels and leads whose text order differs from their numeric order
        records = [MetricRecord(init_time=default_time(), source_label=src,
                                variable=var, level=level, region=region,
                                lead_hours=lead, metric=metric, value=1.0)
                   for src, (var, level), region, lead, metric in itertools.product(
                       ("ifs", "gfs"), ((Var.Z, 100), (Var.T2, 0), (Var.Z, 50)),
                       ("global", "east_asia"), (120, 24, 48), ("RMSE", "ACC"))]
        random.Random(3).shuffle(records)
        p = tmp_path / "m.csv"
        write_metric_csv(records, p)
        got = [(r["source"], r["variable"], int(r["level"]), r["region"],
                int(r["lead_hours"]), r["metric"]) for r in read_metric_csv(str(p))]
        assert got == sorted(r.sort_key() for r in records)


class TestReadMetricCsv:
    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(PlotInputError, match=":1:"):
            read_metric_csv(str(p))

    def test_bad_row_reports_line_number(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, [row("s", "T2", 0, "global", 24, "RMSE", 1.5),
                      ("only", "three", "cols")])
        with pytest.raises(PlotInputError, match=":3:"):
            read_metric_csv(str(p))

    def test_non_numeric_value(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, [row("s", "T2", 0, "global", 24, "RMSE", "oops")])
        with pytest.raises(PlotInputError, match="non-numeric"):
            read_metric_csv(str(p))

    def test_unknown_metric(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, [row("s", "T2", 0, "global", 24, "CRPS", 1.0)])
        with pytest.raises(PlotInputError, match="unknown metric"):
            read_metric_csv(str(p))


    @pytest.mark.parametrize("variable,level", [("FOO", 7), ("Z", 501), ("T2", 2),
                                                ("Z", "0500"), ("MSLP", "")])
    def test_unknown_channel(self, tmp_path, variable, level):
        # only a (variable, level) that write_metric_csv writes for a channel
        from nwpeval.cli import main
        p = tmp_path / "m.csv"
        write_csv(p, [row("s", "T2", 0, "global", 24, "RMSE", 1.0),
                      row("s", variable, level, "global", 24, "RMSE", 1.0)])
        with pytest.raises(PlotInputError, match=":3: unknown channel"):
            read_metric_csv(str(p))
        assert main(["plot", "--csv", str(p), "--out-dir", str(tmp_path / "plots")]) == 2
        assert not (tmp_path / "plots").exists()


class TestEmitPlots:
    def test_one_file_per_channel_region_metric(self, tmp_path):
        rows = []
        for var, level in [("MSLP", 0), ("Z", 500)]:
            for region in ("global", "east_asia"):
                for metric in ("RMSE", "ACC"):
                    for lead in (24, 48):
                        rows.append(row("gfs", var, level, region, lead, metric, 1.25))
        p = tmp_path / "m.csv"
        write_csv(p, rows)
        files = emit_plots(str(p), str(tmp_path / "plots"))
        names = sorted(f.name for f in files)
        assert names == sorted([
            f"{ch}_{rg}_{mt}.svg"
            for ch in ("MSLP", "Z500") for rg in ("global", "east_asia")
            for mt in ("RMSE", "ACC")])

    def test_vertices_carry_exact_csv_values(self, tmp_path):
        values = {24: "1.23456789", 48: "2.5", 72: "0.333333333"}
        rows = [row("gfs", "T2", 0, "global", lead, "RMSE", v)
                for lead, v in values.items()]
        p = tmp_path / "m.csv"
        write_csv(p, rows)
        (svg,) = emit_plots(str(p), str(tmp_path / "plots"))
        text = svg.read_text()
        m = re.search(r'data-points="([^"]*)"', text)
        points = dict(kv.split(":") for kv in m.group(1).split())
        assert points == {str(k): v for k, v in values.items()}

    def test_single_lead_has_marker_no_line_segment(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, [row("gfs", "T2", 0, "global", 24, "RMSE", 1.0)])
        (svg,) = emit_plots(str(p), str(tmp_path / "plots"))
        text = svg.read_text()
        assert "<circle" in text
        m = re.search(r'<polyline points="([^"]*)"', text)
        assert len(m.group(1).split()) == 1  # a single vertex draws nothing

    def test_identical_series_get_distinct_legend_entries(self, tmp_path):
        rows = []
        for source in ("a", "b"):
            for lead in (24, 48):
                rows.append(row(source, "T2", 0, "global", lead, "RMSE", 3.0))
        p = tmp_path / "m.csv"
        write_csv(p, rows)
        (svg,) = emit_plots(str(p), str(tmp_path / "plots"))
        text = svg.read_text()
        assert text.count("<polyline") == 2
        assert 'data-label="a"' in text and 'data-label="b"' in text
        assert ">a</text>" in text and ">b</text>" in text

    def test_deterministic_output(self, tmp_path):
        p = tmp_path / "m.csv"
        write_csv(p, [row("gfs", "T2", 0, "global", 24, "RMSE", 1.0),
                      row("gfs", "T2", 0, "global", 48, "RMSE", 2.0)])
        (a,) = emit_plots(str(p), str(tmp_path / "p1"))
        (b,) = emit_plots(str(p), str(tmp_path / "p2"))
        assert a.read_bytes() == b.read_bytes()

    def test_records_plot_as_the_csv_written_from_them(self, tmp_path):
        # `nwpeval run` plots the CSV it writes from its records: each vertex
        # carries a record's value as the CSV spells it, labels and regions
        # with commas and quotes included
        rng = random.Random(5)
        records = [MetricRecord(init_time=default_time(), source_label=src,
                                variable=var, level=level, region=region,
                                lead_hours=lead, metric=metric,
                                value=rng.choice([1 / 3, 1e-7, 123456789.123, -0.5])
                                * rng.random())
                   for src, (var, level), region, lead, metric in itertools.product(
                       ('a,"b', "gfs"), ((Var.Z, 500), (Var.T2, 0)),
                       ("global", "east, asia"), (120, 24, 48), ("RMSE", "ACC"))]
        rng.shuffle(records)
        p = tmp_path / "m.csv"
        write_metric_csv(records, p)
        files = emit_plots(str(p), str(tmp_path / "csv"))
        assert len(files) == 2 * 2 * 2
        points = {}
        for svg in files:
            for label, data in re.findall(r'data-label="([^"]*)" data-points="([^"]*)"',
                                          svg.read_text()):
                points[svg.name, label] = data
        expected = {}
        for r in sorted(records, key=lambda r: r.lead_hours):
            key = (f"{channel_name(r.variable, r.level)}_{r.region}_{r.metric}.svg",
                   escape(r.source_label))
            expected.setdefault(key, []).append(f"{r.lead_hours}:{r.value:.9g}")
        assert points == {key: " ".join(pts) for key, pts in expected.items()}

    @pytest.mark.parametrize("region, message", [
        ("east/asia", "'east/asia' holds a '/'"),
        ("glo\0bal", "'glo\\x00bal' holds a NUL byte"),
        ('"a\rb"', "'a\\rb' holds a carriage return"),   # quoted: one field
        ("é" * 122, "gives a plot a file name of 257 bytes, over 255")],
        ids=["slash", "nul", "carriage-return", "257-bytes"])
    def test_a_region_that_cannot_name_a_plot_is_refused_before_any(self, tmp_path,
                                                                   capsys, region,
                                                                   message):
        # the rows before it are good, and still no SVG is written
        from nwpeval.cli import main
        p = tmp_path / "m.csv"
        write_csv(p, [row("s", "MSLP", 0, "global", 24, "ACC", 0.5),
                      row("s", "MSLP", 0, region, 24, "ACC", 0.5)])
        with pytest.raises(PlotInputError, match=f":3: region .*{re.escape(message)}$"):
            read_metric_csv(str(p))
        assert main(["plot", "--csv", str(p), "--out-dir", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"nwpeval: {p}:3: region ") and err.endswith(f"{message}\n")
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("metric, rc", [("ACC", 0), ("RMSE", 2)])
    def test_a_plot_file_name_may_be_255_bytes(self, tmp_path, metric, rc):
        # 'MSLP_' + 242 bytes + '_ACC.svg' is 255 bytes, with '_RMSE.svg'
        # 256: a row is checked against the file name its own plot gets
        from nwpeval.cli import main
        region = "é" * 120 + "r" * 2
        p = tmp_path / "m.csv"
        write_csv(p, [row("s", "MSLP", 0, region, 24, metric, 0.5)])
        assert main(["plot", "--csv", str(p), "--out-dir", str(tmp_path / "p")]) == rc
        assert (tmp_path / "p" / f"MSLP_{region}_{metric}.svg").exists() == (rc == 0)

    @pytest.mark.parametrize("content, message", [
        (b"\xff" + HEADER.encode(), ": not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
        (HEADER.encode() + b'a,"' + b"x" * (1 << 18) + b'"\n',
         ":2: field larger than field limit")], ids=["not-utf-8", "huge-field"])
    def test_a_csv_that_cannot_be_read_exits_2_naming_it(self, tmp_path, capsys,
                                                         content, message):
        from nwpeval.cli import main
        p = tmp_path / "m.csv"
        p.write_bytes(content)
        assert main(["plot", "--csv", str(p), "--out-dir", str(tmp_path / "p")]) == 2
        assert f"nwpeval: {p}{message}" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()


def z500_rows(tmp_path, first, second):
    """A two-row CSV of Z500 global RMSE at leads 24 and 48."""
    p = tmp_path / "m.csv"
    write_csv(p, [row("gfs", "Z", 500, "global", 24, "RMSE", first),
                  row("gfs", "Z", 500, "global", 48, "RMSE", second)])
    return p


class TestValuesAnAxisCannotScale:
    @pytest.mark.parametrize("first, second, line", [
        ("nan", "1", 2), ("1", "inf", 3), ("-inf", "1", 2)])
    def test_a_value_that_is_not_finite_exits_2_naming_its_line(
            self, tmp_path, capsys, first, second, line):
        from nwpeval.cli import main
        p = z500_rows(tmp_path, first, second)
        assert main(["plot", "--csv", str(p), "--out-dir", str(tmp_path / "p")]) == 2
        bad = first if line == 2 else second
        assert capsys.readouterr().err == f"nwpeval: {p}:{line}: value {bad!r} is not finite\n"
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("first, second", [("1e308", "-1e308"), ("0", "5e-324")],
                             ids=["overflow", "underflow"])
    def test_a_span_float64_cannot_scale_exits_2_naming_the_file(
            self, tmp_path, capsys, first, second):
        from nwpeval.cli import main
        p = z500_rows(tmp_path, first, second)
        assert main(["plot", "--csv", str(p), "--out-dir", str(tmp_path / "p")]) == 2
        assert capsys.readouterr().err == (f"nwpeval: {p}: cannot draw Z500 RMSE (global): "
                                           "its values span a range float64 cannot scale\n")
        assert not (tmp_path / "p").exists()

    def test_values_one_ulp_apart_are_drawn(self, tmp_path):
        # a tick step under half the ULP of 1e16 once left the tick loop
        # standing still: run in a child with a time limit, so a hang fails
        p = z500_rows(tmp_path, "1e16", "1.0000000000000002e16")
        src = str(Path(nwpeval.__file__).parents[1])
        out = subprocess.run([sys.executable, "-m", "nwpeval.cli", "plot", "--csv", str(p),
                              "--out-dir", str(tmp_path / "p")], capture_output=True,
                             text=True, timeout=30, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        svg = (tmp_path / "p" / "Z500_global_RMSE.svg").read_text()
        assert 'data-points="24:1e16 48:1.0000000000000002e16"' in svg
        assert "nan" not in svg and "inf" not in svg
