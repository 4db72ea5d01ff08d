"""Command line interface.

Subcommands: ingest, regrid, splice, rollout, evaluate, run, plot,
inspect. Exit codes: 0 success, 1 run failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import difflib
import logging
import re
import sys
from contextlib import closing, contextmanager
from pathlib import Path

from . import __version__
from .archive import (ArchiveError, RawDumpLayout, ingest_raw, read_archive,
                      read_header, write_archive)
from .experiment import (ConfigError, InputError, _parse_box, _parse_time,
                         check_pattern, check_regions, check_truth_pattern,
                         load_config, no_repeats, open_input, parse_channel,
                         run_experiment)
from .grids import DEFAULT_REGIONS, GridSpec, channel_name, validate_state
from .plots import PlotInputError, emit_plots, write_metric_csv
from .regrid import regrid_state
from .rollout import BackendSpec, RolloutError, plan_for_leads, run_rollout
from .splice import SpliceSpec, splice_states
from .verify import DEFAULT_REPORT_CHANNELS, evaluate_run

log = logging.getLogger(__name__)

USAGE_ERROR = 2
RUN_ERROR = 1

_NEGATIVE_VALUE = re.compile(r"^-\d+(\.\d+)?([,]-?\d+(\.\d+)?)*$")


class _Parser(argparse.ArgumentParser):
    """argparse with a close-match suggestion for unknown flags and support
    for comma lists starting with a negative number (e.g. --box -10,60,60,150)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def add_subparsers(self, **kwargs):
        kwargs.setdefault("parser_class", _Parser)
        return super().add_subparsers(**kwargs)

    def error(self, message):
        if "unrecognized arguments:" in message:
            bad = message.split("unrecognized arguments:")[1].split()
            known = [s for a in self._actions for s in a.option_strings]
            for b in bad:
                close = difflib.get_close_matches(b, known, n=1)
                if close:
                    message += f" (did you mean {close[0]}?)"
                    break
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _grid_arg(s: str) -> GridSpec:
    parts = [float(x) for x in s.split(",")]
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            "grid must be nlat,nlon,lat_start,dlat,lon_start,dlon")
    try:
        return GridSpec(nlat=parts[0], nlon=parts[1], lat_start=parts[2],
                        dlat=parts[3], lon_start=parts[4], dlon=parts[5])
    except ValueError as exc:   # argparse alone prints "invalid _grid_arg value"
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="nwpeval",
                description="Forecast compatibility harness: ingest, regrid, "
                            "splice, roll out, and verify gridded states.")
    p.add_argument("--version", action="version", version=f"nwpeval {__version__}")
    p.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("inspect", parents=[], help="print an archive header")
    sp.add_argument("file")

    sp = sub.add_parser("ingest", help="convert a raw f32 dump to an archive")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--grid", type=_grid_arg, required=True,
                    help="nlat,nlon,lat_start,dlat,lon_start,dlon")
    sp.add_argument("--scan", choices=["north-first", "south-first"],
                    default="north-first")
    sp.add_argument("--valid-time", required=True, help="ISO 8601, e.g. 2023-06-06T00:00:00Z")
    sp.add_argument("--label", required=True)
    sp.add_argument("--nan", choices=["error", "warn"], default="error")
    sp.add_argument("--skip-validation", action="store_true",
                    help="skip physical-range sanity checks")

    sp = sub.add_parser("regrid", help="regrid an archive to another grid")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--grid", type=_grid_arg, default=None,
                    help="destination grid (default: canonical 0.25 degree)")

    sp = sub.add_parser("splice", help="splice a donor box into a base state")
    sp.add_argument("--base", required=True)
    sp.add_argument("--donor", required=True)
    sp.add_argument("--box", required=True, help="lat_min,lat_max,lon_min,lon_max")
    sp.add_argument("--out", required=True)
    sp.add_argument("--scope", choices=["upper-only", "all-channels"],
                    default="upper-only")
    sp.add_argument("--blend-width", type=float, default=0.0)
    sp.add_argument("--allow-time-mismatch", action="store_true")

    sp = sub.add_parser("rollout", help="drive a forecast backend autoregressively")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--lead", type=int, required=True, help="total lead hours")
    sp.add_argument("--emit-every", type=int, default=24)
    sp.add_argument("--backend", default="persistence",
                    help="persistence | advection | cmd:<command ...>")
    sp.add_argument("--advection-cells", type=int, default=1)
    sp.add_argument("--horizons", default="24", help="comma list, e.g. 24,6,3,1")
    sp.add_argument("--verify-determinism", action="store_true")

    sp = sub.add_parser("evaluate", help="score forecast archives against truth")
    sp.add_argument("--forecast-pattern", required=True,
                    help="path with {lead} placeholder")
    sp.add_argument("--truth-pattern", required=True,
                    help="path with {lead} placeholder")
    sp.add_argument("--climatology", required=True)
    sp.add_argument("--leads", required=True, help="comma list of lead hours")
    sp.add_argument("--out", required=True, help="metric CSV path")
    sp.add_argument("--region", action="append", default=[],
                    metavar="NAME=latmin,latmax,lonmin,lonmax",
                    help="named region (repeatable; default global + east_asia)")
    sp.add_argument("--channels", default=None,
                    help="comma list, e.g. MSLP,Z500 (default: the standard nine)")

    sp = sub.add_parser("run", help="run a full experiment from a config file")
    sp.add_argument("--config", required=True)

    sp = sub.add_parser("plot", help="render SVG plots from a metric CSV")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--out-dir", required=True)
    return p


@contextmanager
def _usage():
    """Turn a TypeError/ValueError raised while building specs from flag
    values into a ConfigError (exit 2), as load_config does for configs."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _parse_backend(args) -> BackendSpec:
    horizons = args.horizons.split(",")   # BackendSpec makes each a whole number
    if args.backend.startswith("cmd:"):
        backend = BackendSpec(kind="external-command", command=args.backend[4:],
                              horizons=horizons)
        backend.check_command()
        return backend
    return BackendSpec(kind="builtin", builtin=args.backend,
                       advection_cells=args.advection_cells, horizons=horizons)


def _cmd_inspect(args) -> int:
    h = read_header(args.file)
    for key in ("version", "nlat", "nlon", "lat_start", "dlat", "lon_start",
                "dlon", "valid_time", "source_label", "n_channels"):
        print(f"{key}: {h[key]}")
    return 0


def _cmd_ingest(args) -> int:
    with _usage():
        layout = RawDumpLayout(scan=args.scan)
        valid_time = _parse_time(args.valid_time)
    state = ingest_raw(args.infile, args.grid, layout, valid_time=valid_time,
                       source_label=args.label, finite=args.nan == "error")
    for msg in validate_state(state, check_ranges=not args.skip_validation):
        log.warning("%s: %s", args.infile, msg)
    write_archive(state, args.out)
    return 0


def _cmd_regrid(args) -> int:
    state = read_archive(args.infile)
    dst = args.grid or GridSpec.canonical()
    write_archive(regrid_state(state, dst), args.out)
    return 0


def _cmd_splice(args) -> int:
    with _usage():
        spec = SpliceSpec(region=_parse_box(args.box.split(",")),
                          variable_scope=args.scope, blend_width=args.blend_width)
    base = read_archive(args.base)
    donor = read_archive(args.donor)
    out = splice_states(base, donor, spec,
                        allow_time_mismatch=args.allow_time_mismatch)
    write_archive(out, args.out)
    return 0


def _cmd_rollout(args) -> int:
    with _usage():
        backend = _parse_backend(args)
        if args.lead < 1 or args.emit_every < 1:
            raise ValueError("--lead and --emit-every must be >= 1")
        # every multiple of --emit-every short of --lead, then --lead itself
        emit = [*range(args.emit_every, args.lead, args.emit_every), args.lead]
        plan_for_leads(emit, backend.horizons)   # unreachable lead: exit 2 before any read
        backend.check_grid(read_header(args.infile)["grid"])   # an off-grid IC too
    outdir = Path(args.out_dir)

    def write(lead, state):
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / f"forecast_{lead:03d}h.nws"
        write_archive(state, path)
        print(f"lead {lead:4d}h -> {path}")

    # by path: an external step 1 reads --in itself, a builtin reads it whole
    run_rollout(args.infile, backend, emit, write,
                verify_determinism=args.verify_determinism)
    return 0


def _cmd_evaluate(args) -> int:
    with _usage():
        leads = [int(h) for h in args.leads.split(",")]
        named = [spec.partition("=") for spec in args.region]
        no_repeats("--region", [name for name, _, _ in named])
        regions = ({name: _parse_box(box.split(",")) for name, _, box in named}
                   or DEFAULT_REGIONS)
        channels = DEFAULT_REPORT_CHANNELS
        if args.channels:
            channels = [parse_channel(c) for c in args.channels.split(",")]
        no_repeats("--leads", leads)
        no_repeats("--channels", [channel_name(*c) for c in channels])
        check_pattern("--forecast-pattern", args.forecast_pattern, leads)
        check_truth_pattern("--truth-pattern", args.truth_pattern, leads)
        # its header, and its payload's size: a short or long one is a usage error
        reader = open_input("climatology", args.climatology, None)
    with closing(reader):
        check_regions(reader.grid, regions)   # a ConfigError: exit 2
        clim = reader.subset(channels)
    records, errors = [], []
    for lead in leads:   # a forecast or truth unread or off the grid costs its lead
        try:
            # read a plane at a time, as `nwpeval run` reads a truth
            with closing(open_input("forecast", args.forecast_pattern.format(lead=lead),
                                    clim.grid)) as fc, \
                    closing(open_input("truth", args.truth_pattern.format(lead=lead),
                                       clim.grid)) as truth:
                r, e = evaluate_run(lead, fc, truth, clim, regions, channels)
        except InputError as exc:
            errors.append(f"lead {lead}: {exc}")
            continue
        records.extend(r)
        errors.extend(e)
    for e in errors:
        log.warning("%s", e)
    write_metric_csv(records, Path(args.out))
    print(f"{len(records)} records -> {args.out}")
    return 1 if errors else 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config)
    print(f"metrics: {report.csv_path}")
    print(f"plots:   {len(report.plot_files)} files")
    print(f"log:     {report.log_path}")
    print(f"config sha256: {report.config_hash}")
    if report.failures:
        for label, msg in sorted(report.failures.items()):
            print(f"FAILED {label}: {msg}", file=sys.stderr)
        return RUN_ERROR
    return 0


def _cmd_plot(args) -> int:
    files = emit_plots(args.csv, args.out_dir)
    for f in files:
        print(f)
    return 0


_HANDLERS = {
    "inspect": _cmd_inspect,
    "ingest": _cmd_ingest,
    "regrid": _cmd_regrid,
    "splice": _cmd_splice,
    "rollout": _cmd_rollout,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _HANDLERS[args.cmd](args)
    except (ConfigError, PlotInputError, FileNotFoundError) as exc:
        print(f"nwpeval: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ArchiveError, RolloutError, ValueError, OSError) as exc:
        print(f"nwpeval: {exc}", file=sys.stderr)
        return RUN_ERROR


if __name__ == "__main__":
    sys.exit(main())
