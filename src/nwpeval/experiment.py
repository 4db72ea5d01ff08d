"""Experiment runner: a declarative run matrix (IC sources x splice
scenarios x leads x regions) orchestrating ingest -> regrid -> splice ->
rollout -> verify, with a CSV metric table and SVG plots as outputs.

The config is a YAML file (schema version 1); see README for the full
key reference. Paths in the config are resolved relative to the config
file's directory. Reruns with the same config and a builtin backend
produce byte-identical CSV and SVG outputs.
"""

from __future__ import annotations

import hashlib
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import yaml

from .archive import (ArchiveError, RawDumpLayout, ingest_raw, read_archive,
                      read_header)
from .grids import (CHANNEL_BY_NAME, DEFAULT_REGIONS, GridSpec, RegionBox,
                    StateSet, Var, _as_utc, channel_name)
from .plots import emit_plots, write_metric_csv
from .regrid import regrid_state
from .rollout import BackendSpec, plan_for_leads, run_rollout
from .splice import SpliceSpec, splice_states
from .verify import (DEFAULT_REPORT_CHANNELS, EmptyMaskError, MetricRecord,
                     evaluate_run, region_block)

log = logging.getLogger(__name__)

CONFIG_VERSION = 1
DEFAULT_LEADS = tuple(range(24, 241, 24))


class ConfigError(ValueError):
    """The experiment config is invalid."""


class TruthError(ValueError):
    """A lead's truth file is missing or off the forecast grid."""


@dataclass(frozen=True)
class ICSource:
    label: str
    path: str
    grid: Optional[GridSpec] = None        # required for raw dumps
    layout: Optional[RawDumpLayout] = None


@dataclass(frozen=True)
class SpliceScenario:
    label: str
    base_source: str
    donor_source: str
    spec: SpliceSpec


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    init_time: datetime
    ic_sources: tuple[ICSource, ...]
    truth_pattern: str                     # filled by str.format(lead=...)
    climatology_path: str
    backend: BackendSpec
    output_dir: str
    lead_hours: tuple[int, ...] = DEFAULT_LEADS
    regions: dict = field(default_factory=lambda: dict(DEFAULT_REGIONS))
    splice_scenarios: tuple[SpliceScenario, ...] = ()
    report_channels: tuple = DEFAULT_REPORT_CHANNELS
    model_grid: GridSpec = field(default_factory=GridSpec.canonical)
    workers: Optional[int] = None         # default: min(runs, CPU count)
    snapshot_bytes: bytes = b""            # raw config file, for provenance

    def validate(self) -> None:
        if not self.ic_sources:
            raise ConfigError("ic_sources must not be empty")
        labels = [s.label for s in self.ic_sources]
        labels += [sc.label for sc in self.splice_scenarios]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"run labels are not unique: {labels}")
        source_labels = {s.label for s in self.ic_sources}
        for sc in self.splice_scenarios:
            for ref in (sc.base_source, sc.donor_source):
                if ref not in source_labels:
                    raise ConfigError(f"scenario {sc.label!r} references "
                                      f"unknown source {ref!r}")
        if not self.lead_hours:
            raise ConfigError("lead_hours must not be empty")
        no_repeats("lead_hours", self.lead_hours)
        check_pattern("truth", self.truth_pattern, self.lead_hours)
        paths = {self.truth_pattern.format(lead=h) for h in self.lead_hours}
        if len(paths) < len(self.lead_hours):
            raise ConfigError(f"truth pattern {self.truth_pattern!r} gives two leads "
                              "the same path")
        no_repeats("report_channels", [channel_name(*c) for c in self.report_channels])
        try:
            plan_for_leads(self.lead_hours, self.backend.horizons)
        except ValueError as exc:
            raise ConfigError(f"lead_hours {sorted(set(self.lead_hours))}: {exc}") from None
        try:
            self.backend.check_command()
            self.backend.check_grid(self.model_grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        check_regions(self.model_grid, self.regions)
        init_time = _as_utc(self.init_time)   # the config does not normalise it
        for src in self.ic_sources:
            if not os.path.exists(src.path):
                raise ConfigError(f"source {src.label!r}: missing file {src.path}")
            if not src.path.endswith(".nws"):
                if src.grid is None or src.layout is None:
                    raise ConfigError(f"source {src.label!r}: raw dumps require "
                                      "grid and layout")
                continue
            try:
                valid_time = read_header(src.path)["valid_time"]
            except ArchiveError as exc:
                raise ConfigError(f"source {src.label!r}: {exc}") from None
            if valid_time != init_time:
                raise ConfigError(f"source {src.label!r} is valid at {valid_time}, "
                                  f"not at init_time {init_time}")
        if not os.path.exists(self.climatology_path):
            raise ConfigError(f"missing climatology {self.climatology_path}")
        try:
            clim_grid = read_header(self.climatology_path)["grid"]
        except ArchiveError as exc:
            raise ConfigError(f"climatology {self.climatology_path}: {exc}") from None
        if clim_grid != self.model_grid:
            raise ConfigError(f"climatology {self.climatology_path} is off the model "
                              f"grid: {clim_grid} vs {self.model_grid}")


def no_repeats(what: str, values) -> None:
    """ConfigError if a lead or channel repeats: it would be scored twice."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{what} repeats an entry: {', '.join(map(str, values))}")


def check_regions(grid: GridSpec, regions: dict) -> None:
    """ConfigError if a region selects no point of `grid`. Each region's
    block is built here once and reused to score."""
    for name, box in regions.items():
        try:
            region_block(grid, box)
        except EmptyMaskError:
            raise ConfigError(f"region {name!r} selects no point of the grid") from None


def check_pattern(what: str, pattern: str, leads) -> None:
    """ConfigError if `pattern.format(lead=...)` fails for one of `leads`,
    e.g. on a placeholder other than {lead}: found before any file is read."""
    for lead in leads:
        try:
            pattern.format(lead=lead)
        except (LookupError, ValueError, TypeError, AttributeError) as exc:
            raise ConfigError(f"{what} pattern {pattern!r} cannot be filled with "
                              f"lead={lead}: {exc!r}") from None


def _parse_time(s: str) -> datetime:
    t = datetime.fromisoformat(s.replace("Z", "+00:00"))
    if t.tzinfo is None:
        t = t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


def _parse_grid(d: dict) -> GridSpec:
    return GridSpec(nlat=int(d["nlat"]), nlon=int(d["nlon"]),
                    lat_start=float(d.get("lat_start", 90.0)),
                    dlat=float(d.get("dlat", 0.25)),
                    lon_start=float(d.get("lon_start", 0.0)),
                    dlon=float(d.get("dlon", 0.25)))


def parse_channel(name: str) -> tuple[Var, int]:
    """The channel that channel_name calls `name`: 'MSLP' -> (MSLP, 0),
    'Z500' -> (Z, 500). Any other name (e.g. 'Z501', 'Z0500') is a ConfigError."""
    try:
        return CHANNEL_BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown channel {name!r}") from None


def _parse_box(v) -> RegionBox:
    """[lat_min, lat_max, lon_min, lon_max] -> RegionBox; ConfigError if
    the four bounds are missing or invalid."""
    try:
        lat_min, lat_max, lon_min, lon_max = (float(x) for x in v)
        return RegionBox(lat_min=lat_min, lat_max=lat_max,
                         lon_min=lon_min, lon_max=lon_max)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad box {v!r}: {exc}") from None


def load_config(path: str) -> ExperimentConfig:
    """Parse a YAML experiment config; run_experiment validates it."""
    raw_bytes = Path(path).read_bytes()
    try:
        doc = yaml.safe_load(raw_bytes)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    base = Path(path).parent

    def resolve(p: str) -> str:
        return str((base / p) if not os.path.isabs(p) else Path(p))

    try:
        version = int(doc.get("config_version", CONFIG_VERSION))
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config_version {version}")
        sources = []
        for s in doc["ic_sources"] or []:
            layout = None
            if "layout" in s:
                ld = s["layout"] or {}
                order = ld.get("channel_order", "canonical")
                if isinstance(order, list):
                    order = [parse_channel(str(c)) for c in order]
                layout = RawDumpLayout(channel_order=order,
                                       scan=ld.get("scan", "north-first"))
            sources.append(ICSource(
                label=str(s["label"]), path=resolve(str(s["path"])),
                grid=_parse_grid(s["grid"]) if "grid" in s else None,
                layout=layout))
        scenarios = []
        for sc in doc.get("splice_scenarios", []) or []:
            spec = SpliceSpec(region=_parse_box(sc["box"]),
                              variable_scope=sc.get("scope", "upper-only"),
                              blend_width=float(sc.get("blend_width", 0.0)))
            scenarios.append(SpliceScenario(
                label=str(sc["label"]), base_source=str(sc["base_source"]),
                donor_source=str(sc["donor_source"]), spec=spec))
        bd = doc.get("backend", {}) or {}
        backend = BackendSpec(
            kind=bd.get("kind", "builtin"),
            builtin=bd.get("builtin", "persistence"),
            advection_cells=int(bd.get("advection_cells", 1)),
            command=bd.get("command"),
            horizons=frozenset(bd.get("horizons", [24])))
        regions = dict(DEFAULT_REGIONS)
        if "regions" in doc:
            regions = {str(k): _parse_box(v) for k, v in doc["regions"].items()}
        channels = DEFAULT_REPORT_CHANNELS
        if "report_channels" in doc:
            channels = tuple(parse_channel(str(c)) for c in doc["report_channels"])
        cfg = ExperimentConfig(
            name=str(doc.get("name", Path(path).stem)),
            init_time=_parse_time(str(doc["init_time"])),
            ic_sources=tuple(sources),
            truth_pattern=resolve(str(doc["truth"])),
            climatology_path=resolve(str(doc["climatology"])),
            backend=backend,
            output_dir=resolve(str(doc["output_dir"])),
            lead_hours=tuple(int(h) for h in doc.get("lead_hours", DEFAULT_LEADS)),
            regions=regions,
            splice_scenarios=tuple(scenarios),
            report_channels=channels,
            model_grid=_parse_grid(doc["grid"]) if "grid" in doc else GridSpec.canonical(),
            workers=int(doc["workers"]) if "workers" in doc else None,
            snapshot_bytes=raw_bytes)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing required key {exc}")
    except (AttributeError, TypeError, ValueError) as exc:
        # schema errors raised while building the config objects
        raise ConfigError(f"{path}: {exc}") from None
    return cfg


@dataclass
class RunReport:
    csv_path: Path
    log_path: Path
    plot_files: list[Path]
    config_hash: str
    failures: dict[str, str]


def _load_source(src: ICSource, init_time: datetime,
                 model_grid: GridSpec) -> StateSet:
    if src.path.endswith(".nws"):
        state = read_archive(src.path)
        state = state.replace(source_label=src.label)
    else:
        state = ingest_raw(src.path, src.grid, src.layout,
                           valid_time=init_time, source_label=src.label)
    return regrid_state(state, model_grid)


def read_truth(pattern: str, lead: int, grid: GridSpec, channels) -> StateSet:
    """The truth at `lead`, read as a subset state of `channels`;
    TruthError if its file is missing or it is not on `grid`."""
    path = pattern.format(lead=lead)
    if not os.path.exists(path):
        raise TruthError(f"lead {lead}: missing truth file {path}")
    truth = read_archive(path, channels)   # the report planes only
    if truth.grid != grid:
        raise TruthError(f"lead {lead}: truth {truth.source_label} grid "
                         "does not match the forecast grid")
    return truth


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute every run in the matrix and assemble the report.

    Each lead is scored as the rollout reaches it, against the report
    planes of its truth, so a run holds one forecast state at a time.
    Per-run failures are logged and recorded without aborting the other
    runs; an invalid config aborts before any input is read.
    """
    config.validate()
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    grid, channels = config.model_grid, config.report_channels
    truths: dict[int, StateSet] = {}
    truth_errors: list[str] = []
    for lead in config.lead_hours:
        try:
            truths[lead] = read_truth(config.truth_pattern, lead, grid, channels)
        except TruthError as exc:
            truth_errors.append(str(exc))
    # validate() has checked the climatology's grid
    climatology = read_archive(config.climatology_path, channels)

    runs: dict[str, StateSet] = {}   # each run's IC, in config order
    failures: dict[str, str] = {}
    for src in config.ic_sources:
        try:
            runs[src.label] = _load_source(src, config.init_time, config.model_grid)
        except Exception as exc:
            failures[src.label] = f"ingest failed: {exc}"
    for sc in config.splice_scenarios:   # sources only: validate() checked the names
        if sc.base_source not in runs or sc.donor_source not in runs:
            failures[sc.label] = "base or donor source failed to load"
            continue
        try:
            runs[sc.label] = splice_states(runs[sc.base_source], runs[sc.donor_source],
                                           sc.spec).replace(source_label=sc.label)
        except Exception as exc:
            failures[sc.label] = f"splice failed: {exc}"
    labels = list(runs)

    run_errors: dict[str, list[str]] = {}

    def one_run(label: str) -> list[MetricRecord]:
        recs: list[MetricRecord] = []
        errs: list[str] = []

        def score(lead: int, state: StateSet) -> None:
            if lead not in truths:
                errs.append(f"lead {lead}: no truth state")
                return
            r, e = evaluate_run(lead, state, truths[lead], climatology,
                                config.regions, channels)
            recs.extend(r)
            errs.extend(e)

        # hand the IC over: run_rollout lets go of it after the first step
        run_rollout(runs.pop(label), config.backend, config.lead_hours, score,
                    channels=channels)
        if errs:
            run_errors[label] = errs
        return recs

    records: list[MetricRecord] = []
    if labels:
        workers = min(config.workers or os.cpu_count() or 1, len(labels))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {label: pool.submit(one_run, label) for label in labels}
        for label, fut in futures.items():
            try:
                records.extend(fut.result())
            except Exception as exc:
                failures[label] = f"run failed: {exc}"
    del truths, climatology   # scored: free the inputs before output

    csv_path = outdir / "metrics.csv"
    write_metric_csv(records, csv_path)
    plot_files = emit_plots(str(csv_path), str(outdir / "plots")) if records else []

    snapshot = config.snapshot_bytes or repr(config).encode()
    (outdir / "config_snapshot").write_bytes(snapshot)
    config_hash = hashlib.sha256(snapshot).hexdigest()

    log_lines = [f"experiment: {config.name}",
                 f"config sha256: {config_hash}",
                 f"runs: {', '.join(labels) or '(none)'}"]
    for msg in truth_errors:
        log_lines.append(f"truth: {msg}")
    for label, errs in sorted(run_errors.items()):
        for e in errs:
            log_lines.append(f"{label}: {e}")
    for label, msg in sorted(failures.items()):
        log_lines.append(f"FAILED {label}: {msg}")
    log_path = outdir / "run.log"
    log_path.write_text("\n".join(log_lines) + "\n")
    for line in log_lines:
        log.info("%s", line)

    return RunReport(csv_path=csv_path, log_path=log_path,
                     plot_files=plot_files, config_hash=config_hash,
                     failures=failures)
