"""Experiment runner: a declarative run matrix (IC sources x splice
scenarios x leads x regions) orchestrating ingest -> regrid -> splice ->
rollout -> verify, with a CSV metric table and SVG plots as outputs.

The config is a YAML file (schema version 1); see README for the full
key reference. Paths in the config are resolved relative to the config
file's directory. Reruns with the same config and a builtin backend
produce byte-identical CSV and SVG outputs.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Union

import yaml

from .archive import (ArchiveError, PlaneReader, RawDumpLayout, ingest_raw,
                      read_archive, read_header)
from .grids import (CHANNEL_BY_NAME, DEFAULT_REGIONS, GridMismatchError, GridSpec,
                    RegionBox, StateSet, Var, _as_utc, channel_name, whole_number)
from .plots import emit_plots, write_metric_csv
from .regrid import regrid_state
from .rollout import BackendSpec, RolloutError, plan_for_leads, rollout_states
# not called here: perfbench's tracer wraps experiment.run_rollout by name
from .rollout import run_rollout  # noqa: F401
from .splice import SpliceSpec, splice_states
from .verify import (DEFAULT_REPORT_CHANNELS, EmptyMaskError, MetricRecord,
                     evaluate_run, region_block)

log = logging.getLogger(__name__)

CONFIG_VERSION = 1
DEFAULT_LEADS = tuple(range(24, 241, 24))
# the keys of the config and of a splice scenario; other keys are dataclass fields
CONFIG_KEYS = ("config_version", "name", "init_time", "grid", "ic_sources", "truth",
               "climatology", "backend", "lead_hours", "regions", "splice_scenarios",
               "report_channels", "output_dir", "workers")
SPLICE_KEYS = ("label", "base_source", "donor_source", "box", "scope", "blend_width")


class ConfigError(ValueError):
    """The experiment config is invalid."""


class InputError(ValueError):
    """A truth, forecast or climatology file is missing, unreadable or off the grid."""


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
        for key in ("ic_sources", "lead_hours", "report_channels", "regions"):
            if not getattr(self, key):   # an empty one would score nothing
                raise ConfigError(f"{key} must not be empty")
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
        no_repeats("lead_hours", self.lead_hours)
        check_truth_pattern("truth", self.truth_pattern, self.lead_hours)
        no_repeats("report_channels", [channel_name(*c) for c in self.report_channels])
        try:
            plan_for_leads(self.lead_hours, self.backend.horizons)
        except ValueError as exc:
            raise ConfigError(f"lead_hours {sorted(set(self.lead_hours))}: {exc}") from None
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
            if src.grid is not None or src.layout is not None:
                raise ConfigError(f"source {src.label!r}: a .nws archive takes no grid "
                                  "or layout: its header gives both")
            try:
                valid_time = read_header(src.path)["valid_time"]
            except ArchiveError as exc:
                raise ConfigError(f"source {src.label!r}: {exc}") from None
            if valid_time != init_time:
                raise ConfigError(f"source {src.label!r} is valid at {valid_time}, "
                                  f"not at init_time {init_time}")
        try:   # of the climatology, the header is read and the payload's size checked
            self.backend.check_command()
            self.backend.check_grid(self.model_grid)
            open_input("climatology", self.climatology_path, self.model_grid).close()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def no_repeats(what: str, values) -> None:
    """ConfigError if a lead or channel repeats: it would be scored twice."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{what} repeats an entry: {', '.join(map(str, values))}")


def check_regions(grid: GridSpec, regions: dict) -> None:
    """ConfigError if a region selects no point of `grid`, or its name holds
    a '/', which no plot's file name can. Each region's block is built here
    once and reused to score."""
    for name, box in regions.items():
        if "/" in name:
            raise ConfigError(f"region name {name!r} holds a '/'")
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


def check_truth_pattern(what: str, pattern: str, leads) -> None:
    """check_pattern, and a ConfigError if `pattern` gives two of the
    (distinct) `leads` one path, which would score a lead against another
    lead's truth. A forecast pattern may do that: one file, such as the IC,
    can be scored at every lead."""
    check_pattern(what, pattern, leads)
    if len({pattern.format(lead=lead) for lead in leads}) < len(leads):
        raise ConfigError(f"{what} pattern {pattern!r} gives two leads the same path")


def _parse_time(s: str) -> datetime:
    t = datetime.fromisoformat(s.replace("Z", "+00:00"))
    if t.tzinfo is None:
        t = t.replace(tzinfo=timezone.utc)
    return t.astimezone(timezone.utc)


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

    def a_list(key: str, value):   # a string would be read as its characters
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return value

    def a_mapping(where: str, value, keys=None):   # a string has no keys to look up
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a mapping, got {value!r}")
        if unknown := [key for key in value if keys is not None and key not in keys]:
            raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
        return value

    def build(cls, where: str, value, **convert):
        """A `cls` from the mapping at `where`, each key a field of it, the
        value of a key in `convert` passed through its function first."""
        declared = fields(cls)
        a_mapping(where, value, [f.name for f in declared])
        for f in declared:
            if f.name not in value and f.default is f.default_factory is MISSING:
                raise ConfigError(f"missing required key {f.name!r} in {where}")
        return cls(**{k: convert[k](v) if k in convert else v for k, v in value.items()})

    def channel_order(order):   # "canonical", or a list of channel names
        return [parse_channel(str(c)) for c in order] if isinstance(order, list) else order

    try:
        a_mapping("the config", doc, CONFIG_KEYS)
        version = int(doc.get("config_version", CONFIG_VERSION))
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config_version {version}")
        sources = []
        for i, s in enumerate(a_list("ic_sources", doc["ic_sources"] or [])):
            where = f"ic_sources[{i}]"
            sources.append(build(
                ICSource, where, s, label=str, path=lambda p: resolve(str(p)),
                grid=lambda g: build(GridSpec, f"{where}.grid", g),
                layout=lambda ld: build(RawDumpLayout, f"{where}.layout", ld or {},
                                        channel_order=channel_order)))
        scenarios = []
        for i, sc in enumerate(a_list("splice_scenarios",
                                      doc.get("splice_scenarios") or [])):
            a_mapping(f"splice_scenarios[{i}]", sc, SPLICE_KEYS)
            spec = SpliceSpec(region=_parse_box(sc["box"]),
                              variable_scope=sc.get("scope", "upper-only"),
                              blend_width=float(sc.get("blend_width", 0.0)))
            scenarios.append(SpliceScenario(
                label=str(sc["label"]), base_source=str(sc["base_source"]),
                donor_source=str(sc["donor_source"]), spec=spec))
        backend = build(BackendSpec, "backend", doc.get("backend") or {},
                        horizons=functools.partial(a_list, "horizons"))
        regions = dict(DEFAULT_REGIONS)
        if "regions" in doc:
            regions = {str(k): _parse_box(v)
                       for k, v in a_mapping("regions", doc["regions"]).items()}
        channels = DEFAULT_REPORT_CHANNELS
        if "report_channels" in doc:
            channels = tuple(parse_channel(str(c))
                             for c in a_list("report_channels", doc["report_channels"]))
        cfg = ExperimentConfig(
            name=str(doc.get("name", Path(path).stem)),
            init_time=_parse_time(str(doc["init_time"])),
            ic_sources=tuple(sources),
            truth_pattern=resolve(str(doc["truth"])),
            climatology_path=resolve(str(doc["climatology"])),
            backend=backend,
            output_dir=resolve(str(doc["output_dir"])),
            lead_hours=tuple(whole_number("lead_hours", h) for h in a_list(
                "lead_hours", doc.get("lead_hours", DEFAULT_LEADS))),
            regions=regions,
            splice_scenarios=tuple(scenarios),
            report_channels=channels,
            model_grid=(build(GridSpec, "grid", doc["grid"]) if "grid" in doc
                        else GridSpec.canonical()),
            workers=whole_number("workers", doc["workers"]) if "workers" in doc else None,
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


def _load_source(src: ICSource, init_time: datetime, model_grid: GridSpec,
                 spliced: bool, reads) -> Union[StateSet, str]:
    """A source's IC on the model grid, as the planes of `reads`; every
    plane of the file is checked for NaN/Inf on the way. An on-grid archive
    no splice uses is returned as its path, for the rollout to read where
    it is: only its header is read here, and its payload's size checked."""
    if not src.path.endswith(".nws"):
        state = ingest_raw(src.path, src.grid, src.layout, valid_time=init_time,
                           source_label=src.label, channels=reads)
    elif not spliced and read_archive(src.path, ()).grid == model_grid:
        return src.path
    else:
        state = read_archive(src.path, reads, finite=True)
    return regrid_state(state, model_grid)


def _input_error(what: str, path: str, exc: Exception) -> InputError:
    """The InputError naming `what` and the file for a fault in reading it."""
    if isinstance(exc, FileNotFoundError):
        return InputError(f"missing {what} file {path}")
    if isinstance(exc, GridMismatchError):
        return InputError(f"{what} {path} is off the grid: {exc}")
    return InputError(f"{what} {path}: {exc}")


def open_input(what: str, path: str, grid: Optional[GridSpec],
               takers: int = 1) -> PlaneReader:
    """A PlaneReader of the truth, forecast or climatology (`what`) at
    `path`, shared by `takers` scorers, to read one plane at a time as they
    score, or a subset at once. InputError naming `what` and the file if the
    file is missing, cannot be read (short, long or malformed) or is not on
    `grid` (None: any grid), on opening or, from then on, on a plane read.
    The grid is compared from the header, so an off-grid file costs no
    plane read."""
    return PlaneReader(path, grid=grid, takers=takers,
                       fail=functools.partial(_input_error, what, path))


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute every run in the matrix and assemble the report.

    The matrix goes lead by lead: one pool task per live run per lead moves
    the run's rollout on to that lead and scores it against the lead's
    truth. The lead's runs share one PlaneReader of the truth: each report
    plane is read by the first task to score its channel and dropped once
    every task at the lead has taken it. An external run scores the reader
    of its step's output that the rollout yields, a plane at a time. So a
    run alone at a lead holds one or two planes each of forecast and truth,
    not all of them. A step output's plane that holds NaN/Inf, found as it
    is scored, fails its run. A lead's truth is checked (its header and
    payload size) and opened as its tasks are queued, one lead ahead: the
    next lead is queued before this lead's tasks are collected, and each of
    its tasks waits on its run's task at this lead. So at most two truths
    are open, their planes read only as runs score them, and every run
    holds one state, however many leads are asked for.
    A truth that is missing, unreadable or off the grid, or whose plane
    read fails, costs its lead alone. Per-run failures are logged and
    recorded without aborting the other runs; an invalid config aborts
    before any input is read.
    """
    config.validate()   # the climatology's header and payload size too
    grid, channels = config.model_grid, config.report_channels
    with closing(open_input("climatology", config.climatology_path, grid)) as clim:
        climatology = clim.subset(channels)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    reads = config.backend.reads(channels)   # the planes each IC is loaded as
    runs: dict[str, Union[StateSet, str]] = {}   # each run's IC, in config order
    failures: dict[str, str] = {}
    spliced = {ref for sc in config.splice_scenarios
               for ref in (sc.base_source, sc.donor_source)}
    for src in config.ic_sources:
        try:
            runs[src.label] = _load_source(src, config.init_time, config.model_grid,
                                           src.label in spliced, reads)
        except Exception as exc:
            failures[src.label] = f"ingest failed: {exc}"
    for sc in config.splice_scenarios:   # sources only: validate() checked the names
        if sc.base_source not in runs or sc.donor_source not in runs:
            failures[sc.label] = "base or donor source failed to load"
            continue
        try:
            runs[sc.label] = splice_states(runs[sc.base_source], runs[sc.donor_source],
                                           sc.spec)
        except Exception as exc:
            failures[sc.label] = f"splice failed: {exc}"
    labels = list(runs)

    rollouts = {label: rollout_states(runs.pop(label), config.backend, config.lead_hours,
                                      channels=channels)
                for label in labels}
    run_records: dict[str, list[MetricRecord]] = {label: [] for label in labels}
    run_errors: dict[str, list[str]] = {label: [] for label in labels}
    truth_errors: dict[int, str] = {}   # by lead
    readers: dict[int, PlaneReader] = {}   # each queued lead's truth, until it is done

    def advance(label: str, lead: int, truth: Optional[PlaneReader], var_o: dict,
                before: Optional[Future]) -> None:
        if before is not None:
            before.result()   # the run at the previous lead; its failure is this one's
        states = rollouts[label]
        try:
            reached, state = next(states)
            if reached != lead:
                raise RolloutError(f"the rollout reached lead {reached}, not {lead}")
            if truth is not None:
                try:
                    # the run's label: an IC keeps its file's label through the rollout
                    r, e = evaluate_run(lead, state.replace(source_label=label), truth,
                                        climatology, config.regions, channels, var_o)
                except InputError as exc:   # a plane read failed: no run scores the lead
                    truth_errors.setdefault(lead, str(exc))
                    truth = None
                else:
                    run_records[label].extend(r)
                    run_errors[label].extend(e)
            if truth is None:
                run_errors[label].append(f"lead {lead}: no truth state")
            # pause with the step started ahead ended: a backend process runs
            # only inside a task, so no more than `workers` are ever alive
            states.send(True)
        except BaseException:
            states.close()   # kills a step in flight before the worker moves on
            raise

    def queue(pool, lead: int, before: dict) -> dict[str, Future]:
        """Check `lead`'s truth and open it for its planes, then queue a task
        for each run in `before` to score it."""
        try:
            truth = readers[lead] = open_input(
                "truth", config.truth_pattern.format(lead=lead), grid, takers=len(before))
        except InputError as exc:
            truth_errors[lead] = str(exc)
            truth = None
        var_o: dict = {}   # filled by the first run to score each cell of the lead
        return {label: pool.submit(advance, label, lead, truth, var_o, fut)
                for label, fut in before.items()}

    leads = sorted(config.lead_hours)
    workers = min(config.workers or os.cpu_count() or 1, max(len(labels), 1))
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pending = queue(pool, leads[0], dict.fromkeys(labels))
            for lead, next_lead in zip(leads, leads[1:] + [None]):
                following = {} if next_lead is None else queue(pool, next_lead, pending)
                for label, fut in pending.items():
                    try:
                        fut.result()
                    except Exception as exc:   # the run loses its rows
                        failures[label] = f"run failed: {exc}"
                        del run_records[label], run_errors[label]
                        following.pop(label, None)   # it fails with this one
                if lead in readers:   # a failed run leaves the planes it never took
                    readers.pop(lead).close()
                pending = following
    finally:
        for reader in readers.values():
            reader.close()
        for states in rollouts.values():   # each holds its last state and step file
            states.close()
    del climatology   # scored: free the inputs before output
    records = [r for recs in run_records.values() for r in recs]

    csv_path = outdir / "metrics.csv"
    write_metric_csv(records, csv_path)
    plot_files = emit_plots(records, str(outdir / "plots")) if records else []

    snapshot = config.snapshot_bytes or repr(config).encode()
    (outdir / "config_snapshot").write_bytes(snapshot)
    config_hash = hashlib.sha256(snapshot).hexdigest()

    log_lines = [f"experiment: {config.name}",
                 f"config sha256: {config_hash}",
                 f"runs: {', '.join(labels) or '(none)'}"]
    for lead, msg in sorted(truth_errors.items()):
        log_lines.append(f"truth: lead {lead}: {msg}")
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
