"""Autoregressive forecast driver.

Decomposes a requested lead time into backend step sizes, invokes the
backend once per step, and yields each requested lead as soon as it is
reached. Backends are either builtin desk-scale surrogates
(persistence, eastward advection) or an external command speaking the
subprocess protocol:

    <command> --in <state.nws> --out <state.nws> --step-hours <H>

The external process reads the input archive, writes the forecast state
for lead H as an archive on the same grid, and exits 0. Step n+1 starts
as soon as step n has exited, and runs while nwpeval hands step n's
output, as a reader of its planes, to be scored and checks the rest.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import math
import os
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterator, Optional, Union

from .archive import DataError, PlaneReader, read_archive, write_archive
from .grids import (CHANNELS, GridMismatchError, GridSpec, StateSet, plane_fault,
                    whole_number)

log = logging.getLogger(__name__)

DEFAULT_HORIZONS = frozenset({24})
_TAIL_BYTES = 1 << 16   # of a step's output, logged and quoted in errors


class RolloutError(RuntimeError):
    """A backend step failed or produced an unusable state."""


class UnreachableLeadError(ValueError):
    """The requested lead cannot be decomposed into backend horizons."""


@dataclass(frozen=True)
class RolloutPlan:
    """Ordered step sizes in hours; they sum to the requested lead."""

    steps: tuple[int, ...]


@dataclass(frozen=True)
class BackendSpec:
    """Forecast backend description.

    kind: "builtin" or "external-command". Builtins: "persistence" or
    "advection" (circular eastward shift of advection_cells per step).
    External backends supply the command prefix as a string.
    """

    kind: str = "builtin"
    builtin: str = "persistence"
    advection_cells: int = 1
    command: Optional[str] = None
    horizons: frozenset = field(default_factory=lambda: DEFAULT_HORIZONS)

    def __post_init__(self):
        if self.kind not in ("builtin", "external-command"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "builtin" and self.builtin not in ("persistence", "advection"):
            raise ValueError(f"unknown builtin backend {self.builtin!r}")
        if self.kind == "external-command" and not shlex.split(self.command or ""):
            raise ValueError("external backend requires a command")
        object.__setattr__(self, "advection_cells",
                           whole_number("advection_cells", self.advection_cells))
        object.__setattr__(self, "horizons",
                           frozenset(whole_number("horizons", h) for h in self.horizons))
        if not self.horizons or min(self.horizons) < 1:
            raise ValueError("backend horizons must be one or more positive hours")

    def check_command(self) -> None:
        """ValueError if an external command's first word is no executable
        that shutil.which finds (on PATH, or as a path to a file)."""
        if self.kind == "external-command":
            program = shlex.split(self.command)[0]
            if shutil.which(program) is None:
                raise ValueError(f"backend command {program!r} is not an "
                                 "executable file or on PATH")

    def check_grid(self, grid: GridSpec) -> None:
        """ValueError if an external backend would run off the canonical
        721x1440 grid; the builtin surrogates run on any grid."""
        if self.kind == "external-command" and grid != GridSpec.canonical():
            raise ValueError("external backends require the canonical 721x1440 grid")

    def reads(self, report_channels) -> tuple:
        """The planes a run of this backend needs: a builtin steps each plane
        on its own, so the report channels; an external command all 69."""
        return CHANNELS if self.kind == "external-command" else tuple(report_channels)


def schedule_steps(lead: int, horizons) -> RolloutPlan:
    """Fewest-step decomposition of the lead into horizons.

    Dynamic programming over 0..lead hours; among the minimal plans the
    larger step goes first, so steps never increase: 31 h over
    {24, 6, 3, 1} gives (24, 6, 1) and 8 h over {6, 4} gives (4, 4).
    """
    horizons = sorted({int(h) for h in horizons}, reverse=True)
    if not horizons:
        raise ValueError("horizons must be nonempty")
    if lead < 0:
        raise ValueError(f"lead {lead} must be >= 0")
    # fewest[n]: the least number of steps summing to n hours
    fewest = [0] + [math.inf] * lead
    for n in range(1, lead + 1):
        fewest[n] = 1 + min((fewest[n - h] for h in horizons if h <= n),
                            default=math.inf)
    if fewest[lead] == math.inf:
        raise UnreachableLeadError(
            f"{lead} h is not divisible into steps of the horizons {horizons}")
    steps = []
    remaining = lead
    while remaining > 0:
        step = next(h for h in horizons
                    if h <= remaining and fewest[remaining - h] == fewest[remaining] - 1)
        steps.append(step)
        remaining -= step
    return RolloutPlan(steps=tuple(steps))


def plan_for_leads(leads, horizons) -> RolloutPlan:
    """One plan through every requested lead: schedule_steps chained over
    the sorted, de-duplicated leads, so each lead is a cumulative step."""
    steps: list[int] = []
    prev = 0
    for lead in sorted({int(h) for h in leads}):
        steps.extend(schedule_steps(lead - prev, horizons).steps)
        prev = lead
    return RolloutPlan(steps=tuple(steps))


def builtin_step(state: StateSet, backend: BackendSpec, step_hours: int) -> StateSet:
    """One builtin forecast step: `state`, its valid_time advanced by
    step_hours, its planes moved in place. Advection shifts each row east
    by advection_cells, bitwise np.roll(data, advection_cells, axis=2): one
    overlapping copy of the rows laid end to end, then each row's wrapped
    columns written back from a scratch of min(k, nlon - k) columns, k the
    shift mod nlon. The caller's array is the step's output, so no state is
    allocated."""
    t = state.valid_time + timedelta(hours=step_hours)
    nlon = state.grid.nlon
    k = backend.advection_cells % nlon if backend.builtin == "advection" else 0
    if k:
        rows, flat = state.data, state.data.reshape(-1)   # a view: data is contiguous
        if k <= nlon - k:   # east by k: the last k columns wrap to the front
            wrapped = rows[:, :, nlon - k:].copy()
            flat[k:] = flat[:-k]
            rows[:, :, :k] = wrapped
        else:   # west by nlon - k: the first columns wrap to the back
            wrapped = rows[:, :, :nlon - k].copy()
            flat[:k - nlon] = flat[nlon - k:]
            rows[:, :, k:] = wrapped
    return state.replace(valid_time=t)


def _start_backend(src: Path, dest: Path, backend: BackendSpec,
                   step_hours: int, step_no: int) -> subprocess.Popen:
    """Start the external command for one step. Its stdout and stderr go
    to dest's .log file, not to a pipe a chatty backend could fill."""
    cmd = shlex.split(backend.command) + [
        "--in", str(src), "--out", str(dest), "--step-hours", str(step_hours)]
    with open(dest.with_suffix(".log"), "wb") as out:
        try:
            return subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        except OSError as exc:
            raise RolloutError(f"backend failed to start at step {step_no}: {exc}") from None


def _finish_backend(proc: subprocess.Popen, dest: Path, step_hours: int,
                    step_no: int) -> None:
    """Wait for one step's process; RolloutError with the exit code and
    the tail of its output if it failed."""
    code = proc.wait()
    logfile = dest.with_suffix(".log")
    with open(logfile, "rb") as fh:
        fh.seek(max(0, fh.seek(0, os.SEEK_END) - _TAIL_BYTES))
        output = fh.read().decode("utf-8", errors="replace").strip()
    logfile.unlink()
    if output:
        log.info("backend step %d stderr: %s", step_no, output)
    if code != 0:
        tail = " | ".join(output.splitlines()[-20:])
        raise RolloutError(f"backend failed at step {step_no} "
                           f"(+{step_hours}h): exit {code}"
                           + (f"; stderr: {tail}" if tail else ""))


def _open_step(path: Path, step_no: int, step_hours: int, ic_path: Optional[Path],
               valid_time: datetime, label: str) -> PlaneReader:
    """A reader of one step's output, dated `valid_time` and labelled
    `label`: its header, grid and size checked, no plane read. A fault of
    the file, now or as a plane is read (NaN/Inf too), is a RolloutError,
    unless `ic_path`, step 1's input, holds NaN/Inf: then the IC's fault."""
    def fail(exc: Exception) -> RolloutError:
        if ic_path is not None:
            try:
                _checked_ic(ic_path, ())
            except RolloutError as ic_error:
                return ic_error
        if isinstance(exc, DataError):
            return RolloutError(f"backend produced NaN/Inf at step {step_no} "
                                f"(+{step_hours}h): {exc}")
        if isinstance(exc, GridMismatchError):
            return RolloutError(f"backend changed the grid at step {step_no}")
        return RolloutError(f"backend wrote a malformed archive at step {step_no}: {exc}")

    return PlaneReader(path, GridSpec.canonical(), finite=True, fail=fail,
                       valid_time=valid_time, source_label=label)


def _checked_ic(ic: Union[StateSet, str, os.PathLike], channels) -> StateSet:
    """The `channels` of the IC, a state or the path of an archive;
    RolloutError naming its first plane, in channel order, that holds NaN/Inf."""
    try:
        if not isinstance(ic, StateSet):
            return read_archive(ic, channels, finite=True)
        for channel, plane in zip(ic.channels, ic.data):
            if fault := plane_fault(channel, plane):
                raise DataError(fault)
        return ic.subset(channels)
    except DataError as exc:
        raise RolloutError(f"the IC at lead 0 holds NaN/Inf: {exc}") from None


def run_rollout(ic: Union[StateSet, str, os.PathLike], backend: BackendSpec, leads,
                channels=CHANNELS, label: Optional[str] = None
                ) -> Iterator[Optional[tuple[int, Union[StateSet, PlaneReader]]]]:
    """Drive the backend through the fewest steps that reach every lead,
    and yield (lead_hours, state) for each requested lead in increasing
    order, lead 0 being the IC. `ic` is a state, which belongs to the
    rollout from then on, or the path of an archive, which is never
    written, moved or deleted. Each state holds `channels`, in that order,
    valid at the IC's valid_time + its lead, labelled `label` (the IC's own
    label by default), and is valid until the rollout is resumed: under an
    external backend it is a PlaneReader of the step's output, closed then.
    Sent True in place of next() at a yield, the rollout waits for the step
    started ahead to exit and yields None. An unreachable lead (ValueError),
    or an IC off the canonical grid an external backend requires
    (RolloutError), is raised before any step; NaN/Inf in the IC or a
    step's output, or a failed step, is a RolloutError: a step's planes are
    checked as they are read, and once the rollout is resumed, those its
    caller left unread. Closing the generator, or an error, kills and reaps
    the running step. See README "External backend protocol".
    """
    wanted = {int(h) for h in leads}
    plan = plan_for_leads(wanted, backend.horizons)
    if backend.kind == "builtin":   # a step moves the run's planes; lead 0 is step 0
        state = _checked_ic(ic, channels)
        del ic   # `state` is the only reference left; a step replaces it
        state = state if label is None else state.replace(source_label=label)
        for hours, lead in zip((0,) + plan.steps, itertools.accumulate((0,) + plan.steps)):
            state = builtin_step(state, backend, hours) if hours else state
            if lead in wanted and (yield lead, state):
                yield   # paused: no step runs between yields
        return

    ic_path = None if isinstance(ic, StateSet) else Path(ic)
    if ic_path is not None:
        ic = read_archive(ic_path, ())   # step 1 reads the file where it is
    else:   # lead 0 yields it, and step 1 reads it as written
        ic = _checked_ic(ic, ic.channels)
    try:
        backend.check_grid(ic.grid)
    except ValueError as exc:
        raise RolloutError(str(exc)) from None
    init_time, label = ic.valid_time, ic.source_label if label is None else label
    if 0 in wanted:
        paused = yield 0, (_checked_ic(ic_path, channels) if ic_path
                           else ic.subset(channels)).replace(source_label=label)
        if paused:   # no step has started yet
            yield
    if not plan.steps:
        return
    with tempfile.TemporaryDirectory(prefix="nwpeval-rollout-") as work:
        files = [Path(work) / f"step{n:03d}.nws" for n in range(len(plan.steps) + 1)]
        if ic_path is not None:
            files[0] = ic_path   # step 1 reads the caller's file where it is
        else:
            write_archive(ic, files[0])
        del ic   # on disk: hold one state while reading the next
        # the backend process of the latest step, started ahead of its reader
        running = _start_backend(files[0], files[1], backend, plan.steps[0], 1)
        cumulative = itertools.accumulate(plan.steps)
        try:
            for n, (hours, lead) in enumerate(zip(plan.steps, cumulative), start=1):
                _finish_backend(running, files[n], hours, n)
                if files[n - 1] != ic_path:
                    files[n - 1].unlink(missing_ok=True)
                if n < len(plan.steps):
                    running = _start_backend(files[n], files[n + 1], backend,
                                             plan.steps[n], n + 1)
                # a NaN a path IC holds, if lead 0 did not check it, is its own fault
                blame = ic_path if n == 1 and 0 not in wanted else None
                with contextlib.closing(_open_step(files[n], n, hours, blame,
                                                   init_time + timedelta(hours=lead),
                                                   label)) as out:
                    paused = lead in wanted and (yield lead, out)
                    out.subset(())   # every plane its caller left unread
                    if paused:   # the step started ahead ends before the pause
                        running.wait()
                        yield
        finally:   # a no-op once the process has been waited for
            running.kill()
            running.wait()
