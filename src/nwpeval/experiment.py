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
import logging
import os
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime
from pathlib import Path
from typing import Optional, Union

import yaml

from .archive import ArchiveError, PlaneReader, RawDumpLayout, ingest_raw, read_archive
from .grids import (CHANNEL_BY_NAME, DEFAULT_REGIONS, GridMismatchError, GridSpec,
                    RegionBox, StateSet, Var, _as_utc, channel_name, covers,
                    covers_grid, degrees, whole_number)
from .plots import emit_plots, name_fault, write_metric_csv
from .regrid import regrid_state
from .rollout import BackendSpec, plan_for_leads, run_rollout
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

    def validate(self) -> dict[str, GridSpec]:
        """ConfigError on the first rule the config breaks, found before any
        payload is read; else each source's own grid, by its label."""
        for key in ("ic_sources", "lead_hours", "report_channels", "regions"):
            if not getattr(self, key):   # an empty one would score nothing
                raise ConfigError(f"{key} must not be empty")
        labels = [s.label for s in self.ic_sources]
        labels += [sc.label for sc in self.splice_scenarios]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"run labels are not unique: {labels}")
        for label in labels:   # written into each of its rows of metrics.csv
            if fault := name_fault("run label", label):
                raise ConfigError(fault)
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
        out = Path(self.output_dir)   # made with its parents; what exists must be directories
        if not (made := next(p for p in (out, *out.parents) if p.exists())).is_dir():
            raise ConfigError(f"output_dir {out}: {made} is not a directory")
        check_regions(self.model_grid, self.regions, self.report_channels)
        try:   # of the climatology, the header is read and the payload's size checked
            self.backend.check_command()
            self.backend.check_grid(self.model_grid)
            open_input("climatology", self.climatology_path, self.model_grid).close()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        init_time = _as_utc(self.init_time)   # the config does not normalise it
        native = {}   # each source's own grid, from the config or its header
        for src in self.ic_sources:
            if not os.path.exists(src.path):
                raise ConfigError(f"source {src.label!r}: missing file {src.path}")
            raw = not src.path.endswith(".nws")
            if raw and (src.grid is None or src.layout is None):
                raise ConfigError(f"source {src.label!r}: raw dumps require grid and layout")
            if not raw and (src.grid is not None or src.layout is not None):
                raise ConfigError(f"source {src.label!r}: a .nws archive takes no grid "
                                  "or layout: its header gives both")
            try:   # its header, if any, and its payload's size: no plane is read
                with closing(PlaneReader(src.path, src.grid, layout=src.layout)) as reader:
                    native[src.label], valid_time = reader.grid, reader.valid_time
            except (ArchiveError, OSError, ValueError) as exc:
                raise ConfigError(f"source {src.label!r}: {exc}") from None
            if not raw and valid_time != init_time:
                raise ConfigError(f"source {src.label!r} is valid at "
                                  f"{valid_time}, not at init_time {init_time}")
        bases = {sc.base_source: sc.label for sc in self.splice_scenarios}
        donors = {sc.donor_source for sc in self.splice_scenarios}
        for label, native_grid in native.items():   # else edge values would be scored
            if covers_grid(native_grid, self.model_grid):
                continue
            if label in bases:
                raise ConfigError(f"source {label!r} does not cover the model grid, so it "
                                  f"cannot be the base of scenario {bases[label]!r}")
            if label not in donors:
                raise ConfigError(f"source {label!r} does not cover the model grid and no "
                                  "splice takes it as a donor: it would be scored as a run")
        for sc in self.splice_scenarios:   # else edge values would be spliced in
            spec = sc.spec
            if not covers(native[sc.donor_source], spec.region, spec.blend_width):
                raise ConfigError(f"scenario {sc.label!r}: donor {sc.donor_source!r} "
                                  "does not cover the box plus blend_width "
                                  f"({spec.blend_width:g} degrees) on its own grid")
        return native


def no_repeats(what: str, values) -> None:
    """ConfigError if a lead or channel repeats: it would be scored twice."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{what} repeats an entry: {', '.join(map(str, values))}")


def check_regions(grid: GridSpec, regions: dict, channels) -> None:
    """ConfigError if a region selects no point of `grid`, or its name
    cannot be written to the metric table and the file names of its plots
    of `channels` (plots.name_fault). Each region's block is built here
    once and reused to score."""
    names = [channel_name(*c) for c in channels]
    for name, box in regions.items():
        if fault := name_fault("region", name, names):
            raise ConfigError(fault)
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
    return _as_utc(datetime.fromisoformat(s))


def parse_channel(name: str) -> tuple[Var, int]:
    """The channel that channel_name calls `name`: 'MSLP' -> (MSLP, 0),
    'Z500' -> (Z, 500). Any other name (e.g. 'Z501', 'Z0500') is a ConfigError."""
    try:
        return CHANNEL_BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown channel {name!r}") from None


def _parse_box(v) -> RegionBox:
    """[lat_min, lat_max, lon_min, lon_max] -> RegionBox; ConfigError if
    the four bounds are missing or invalid, naming a bound that is no number."""
    try:
        lat_min, lat_max, lon_min, lon_max = v
        return RegionBox(lat_min=degrees("lat_min", lat_min),
                         lat_max=degrees("lat_max", lat_max),
                         lon_min=degrees("lon_min", lon_min),
                         lon_max=degrees("lon_max", lon_max))
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
        kwargs = {k: convert[k](v) if k in convert else v for k, v in value.items()}
        try:
            return cls(**kwargs)
        except ValueError as exc:   # e.g. a key's value is out of range
            raise ConfigError(f"{where}: {exc}") from None

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
            where = f"splice_scenarios[{i}]"
            a_mapping(where, sc, SPLICE_KEYS)
            try:
                spec = SpliceSpec(region=_parse_box(sc["box"]),
                                  variable_scope=sc.get("scope", "upper-only"),
                                  blend_width=sc.get("blend_width", 0.0))
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
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


def _load_source(src: ICSource, native: GridSpec, init_time: datetime,
                 model_grid: GridSpec, spliced: bool, reads) -> Union[StateSet, str]:
    """A source's IC on the model grid, as the planes of `reads`; every
    plane of the file is checked for NaN/Inf on the way. An archive on the
    model grid (its `native` grid, as validate found it) that no splice
    uses is returned as its path, unread, for the rollout to read where it is."""
    if not src.path.endswith(".nws"):
        state = ingest_raw(src.path, src.grid, src.layout, valid_time=init_time,
                           source_label=src.label, channels=reads)
    elif not spliced and native == model_grid:
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
    """Run every run of the matrix, lead by lead, and write metrics.csv, the
    plots drawn from it, config_snapshot and run.log to the output
    directory; return the RunReport. An invalid config is a ConfigError
    raised before any input is read. A run that fails is logged and named
    in the report's `failures`, and the other runs go on; a truth that
    cannot be read costs its lead alone. Each lead's truth is opened one
    lead ahead, as its tasks are queued (one per run, each waiting for its
    run at the lead before), so at most two truths are open; each truth
    plane is read once per lead, by the first run to score it, and dropped
    once every run at the lead has taken it."""
    native = config.validate()   # the climatology's and sources' headers and sizes too
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
            runs[src.label] = _load_source(src, native[src.label], config.init_time, grid,
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
    # a source short of the model grid is a splice donor alone (validate)
    donors_only = [s.label for s in config.ic_sources if not covers_grid(native[s.label], grid)]
    for label in donors_only:
        runs.pop(label, None)
    labels = list(runs)

    rollouts = {label: run_rollout(runs.pop(label), config.backend, config.lead_hours,
                                   channels=channels, label=label)
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
            _, state = next(states)
            if truth is not None:
                try:
                    r, e = evaluate_run(lead, state, truth, climatology, config.regions,
                                        channels, var_o)
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
    snapshot = config.snapshot_bytes or repr(config).encode()
    (outdir / "config_snapshot").write_bytes(snapshot)
    # imported here: hashlib maps OpenSSL's libcrypto, about 3.5 MiB
    # resident, for this one hash, taken once every lead is scored
    import hashlib
    config_hash = hashlib.sha256(snapshot).hexdigest()

    log_lines = [f"experiment: {config.name}",
                 f"config sha256: {config_hash}",
                 f"runs: {', '.join(labels) or '(none)'}"]
    for label in donors_only:
        log_lines.append(f"{label}: a splice donor only: it does not cover the model "
                         "grid, so it is not rolled out or scored")
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

    # after the log, so a plot that cannot be drawn leaves the run explained
    plot_files = emit_plots(str(csv_path), str(outdir / "plots")) if records else []
    return RunReport(csv_path=csv_path, log_path=log_path,
                     plot_files=plot_files, config_hash=config_hash,
                     failures=failures)
