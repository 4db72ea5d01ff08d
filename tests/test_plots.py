import itertools
import random
import re

import pytest

from nwpeval.grids import Var
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
        # `nwpeval run` plots the records it holds: the SVGs are those of the
        # CSV it writes from them, byte for byte, values spelled as it does
        rng = random.Random(5)
        records = [MetricRecord(init_time=default_time(), source_label=src,
                                variable=var, level=level, region=region,
                                lead_hours=lead, metric=metric,
                                value=rng.choice([1 / 3, 1e-7, 123456789.123, -0.5])
                                * rng.random())
                   for src, (var, level), region, lead, metric in itertools.product(
                       ('a,"b', "gfs"), ((Var.Z, 500), (Var.T2, 0)),
                       ("global", "east_asia"), (120, 24, 48), ("RMSE", "ACC"))]
        rng.shuffle(records)
        p = tmp_path / "m.csv"
        write_metric_csv(records, p)
        from_csv = emit_plots(str(p), str(tmp_path / "csv"))
        from_records = emit_plots(records, str(tmp_path / "records"))
        assert [f.name for f in from_records] == [f.name for f in from_csv]
        assert len(from_csv) == 2 * 2 * 2
        for a, b in zip(from_csv, from_records):
            assert a.read_bytes() == b.read_bytes()
