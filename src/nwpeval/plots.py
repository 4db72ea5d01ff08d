"""The metric table (CSV) and static SVG line plots of it.

One SVG per (report channel, region, metric): lead hours on the x axis,
metric value on the y axis, one polyline per source/scenario label. The
output is deterministic byte-for-byte for a given CSV; each polyline
carries a data-points attribute with the exact CSV value strings so plot
and table can be cross-checked.
"""

from __future__ import annotations

import csv
import math
from html import escape   # xml.sax.saxutils would import urllib, +45 ms
from pathlib import Path
from typing import Iterator, Optional

from .grids import CHANNELS, channel_name
from .verify import MetricRecord

CSV_COLUMNS = ["init_time", "source", "variable", "level", "region",
               "lead_hours", "metric", "value"]
METRICS = ("RMSE", "ACC")
NAME_MAX = 255   # bytes in a file name, on Linux's file systems

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


class PlotInputError(ValueError):
    """Malformed metric CSV."""


# (variable, level) as write_metric_csv spells them -> channel_name, per channel
_CSV_CHANNELS = {(var.name, str(level)): channel_name(var, level) for var, level in CHANNELS}


def svg_name(chan: str, region: str, metric: str) -> str:
    """The file name of the plot of one channel, region and metric."""
    return f"{chan}_{region}_{metric}.svg"


def name_fault(what: str, name: str, channels=None, metrics=METRICS) -> Optional[str]:
    """Why `name`, a run or source label or, given the `channels` (channel_name
    spellings) it is plotted for, a region, cannot be written; None if it
    can. A name must be text UTF-8 can encode, with no carriage return,
    which the CSV writer leaves unquoted. A region is also part of the file
    name of each of its plots (svg_name), which cannot hold a '/' or a NUL
    byte, or be over NAME_MAX bytes long."""
    try:
        name.encode()
    except UnicodeEncodeError:
        return f"{what} {name!r} cannot be encoded as UTF-8"
    if "\r" in name:
        return f"{what} {name!r} holds a carriage return"
    if channels is None:   # a label names no file
        return None
    for char, said in (("/", "a '/'"), ("\0", "a NUL byte")):
        if char in name:
            return f"{what} {name!r} holds {said}"
    longest = max((len(svg_name(c, name, m).encode()) for c in channels for m in metrics),
                  default=0)
    if longest > NAME_MAX:
        return f"{what} {name!r} gives a plot a file name of {longest} bytes, over {NAME_MAX}"
    return None


def _metric_rows(path: str) -> Iterator[dict]:
    """The metric table's rows, one dict each, validating the schema row by
    row: a malformed row, or one the CSV reader cannot parse, is a
    PlotInputError naming the file and line; a file that is not UTF-8 is
    one naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise PlotInputError(f"{path}: empty file")
            if header != CSV_COLUMNS:
                raise PlotInputError(f"{path}:1: bad header {header}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(CSV_COLUMNS):
                    raise PlotInputError(f"{path}:{lineno}: expected "
                                         f"{len(CSV_COLUMNS)} columns, got {len(row)}")
                rec = dict(zip(CSV_COLUMNS, row))
                try:
                    int(rec["lead_hours"])
                    value = float(rec["value"])
                except ValueError:
                    raise PlotInputError(f"{path}:{lineno}: non-numeric lead or value")
                if not math.isfinite(value):
                    raise PlotInputError(f"{path}:{lineno}: value {rec['value']!r} "
                                         "is not finite")
                if (rec["variable"], rec["level"]) not in _CSV_CHANNELS:
                    raise PlotInputError(f"{path}:{lineno}: unknown channel "
                                         f"{rec['variable']!r} at level {rec['level']!r}")
                if rec["metric"] not in METRICS:
                    raise PlotInputError(f"{path}:{lineno}: unknown metric {rec['metric']!r}")
                chan = _CSV_CHANNELS[(rec["variable"], rec["level"])]
                if fault := name_fault("region", rec["region"], [chan], [rec["metric"]]):
                    raise PlotInputError(f"{path}:{lineno}: {fault}")
                yield rec
        except UnicodeDecodeError as exc:
            raise PlotInputError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise PlotInputError(f"{path}:{reader.line_num}: {exc}") from None


def read_metric_csv(path: str) -> list[dict]:
    """Parse the metric table, validating the schema row by row."""
    return list(_metric_rows(path))


def write_metric_csv(records: list[MetricRecord], path: Path) -> None:
    """Fixed column order; values at 9 significant digits. A label or region
    holding a comma or quote is quoted, so read_metric_csv reads it back."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(CSV_COLUMNS)
        out.writerows([r.init_time.strftime("%Y-%m-%dT%H:%M:%SZ"), r.source_label,
                       r.variable.name, r.level, r.region, r.lead_hours, r.metric,
                       f"{r.value:.9g}"]
                      for r in sorted(records, key=MetricRecord.sort_key))


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        pad = abs(lo) * 0.1 or 1.0
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            break
    step = m * mag
    ticks, t = [], math.floor(lo / step) * step
    while t <= hi + step * 0.5:
        if t >= lo - step * 0.5:
            ticks.append(t)
        if t + step == t:   # a step under half of t's ULP: t would stand still
            break
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _render_svg(title: str, series: dict[str, list[tuple[int, str]]]) -> str:
    """series: label -> [(lead, csv value string), ...] sorted by lead."""
    leads = sorted({ld for pts in series.values() for ld, _ in pts})
    values = [float(v) for pts in series.values() for _, v in pts]
    vlo, vhi = min(values), max(values)
    yticks = _nice_ticks(vlo, vhi)
    ylo, yhi = min(vlo, *yticks), max(vhi, *yticks)
    if not math.isfinite(yhi - ylo):
        raise OverflowError("the axis spans more than float64 holds")
    xlo, xhi = leads[0], leads[-1]
    if xhi == xlo:
        xlo, xhi = xlo - 1, xhi + 1
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(lead: float) -> float:
        return MARGIN_L + (lead - xlo) / (xhi - xlo) * plot_w

    def sy(v: float) -> float:
        return MARGIN_T + (yhi - v) / (yhi - ylo) * plot_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    out.append(f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
               f'font-family="sans-serif" font-size="16">{escape(title)}</text>')
    # axes
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    out.append(f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" '
               f'stroke="black"/>')
    out.append(f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_R}" y2="{y0}" '
               f'stroke="black"/>')
    for t in yticks:
        if not (ylo <= t <= yhi):
            continue
        y = _fmt(sy(t))
        out.append(f'<line x1="{x0 - 4}" y1="{y}" x2="{x0}" y2="{y}" stroke="black"/>')
        out.append(f'<text x="{x0 - 8}" y="{y}" text-anchor="end" dy="4" '
                   f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    for ld in leads:
        x = _fmt(sx(ld))
        out.append(f'<line x1="{x}" y1="{y0}" x2="{x}" y2="{y0 + 4}" stroke="black"/>')
        out.append(f'<text x="{x}" y="{y0 + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{ld}</text>')
    out.append(f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">lead hours</text>')
    # one polyline + markers per label
    for idx, label in enumerate(sorted(series)):
        pts = sorted(series[label])
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{_fmt(sx(ld))},{_fmt(sy(float(v)))}" for ld, v in pts)
        data = " ".join(f"{ld}:{v}" for ld, v in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5" data-label="{escape(label)}" data-points="{data}"/>')
        for ld, v in pts:
            out.append(f'<circle cx="{_fmt(sx(ld))}" cy="{_fmt(sy(float(v)))}" '
                       f'r="2.5" fill="{color}"/>')
        ly = MARGIN_T + 14 + 16 * idx
        lx = WIDTH - MARGIN_R - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_plots(csv_path: str, output_dir: str) -> list[Path]:
    """Write one SVG per (channel, region, metric) of the metric CSV at
    `csv_path`, each value spelled as the CSV spells it. The rows are read
    one at a time, and every SVG is drawn before any is written."""
    groups: dict[tuple[str, str, str], dict[str, list[tuple[int, str]]]] = {}
    for rec in _metric_rows(csv_path):
        key = (_CSV_CHANNELS[(rec["variable"], rec["level"])], rec["region"], rec["metric"])
        groups.setdefault(key, {}).setdefault(rec["source"], []).append(
            (int(rec["lead_hours"]), rec["value"]))
    drawn = []
    for (chan, region, metric), series in sorted(groups.items()):
        title = f"{chan} {metric} ({region})"
        try:
            drawn.append((svg_name(chan, region, metric), _render_svg(title, series)))
        except (ArithmeticError, ValueError):   # overflow or underflow scaling the axis
            raise PlotInputError(f"{csv_path}: cannot draw {title}: its values span "
                                 "a range float64 cannot scale") from None
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, svg in drawn:
        (outdir / name).write_text(svg, encoding="utf-8")
    return [outdir / name for name, _ in drawn]
