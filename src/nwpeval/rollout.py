"""Autoregressive forecast driver.

Decomposes a requested lead time into backend step sizes, invokes the
backend once per step, and yields each requested lead as soon as it is
reached. Backends are either builtin desk-scale surrogates
(persistence, eastward advection) or an external command speaking the
subprocess protocol:

    <command> --in <state.nws> --out <state.nws> --step-hours <H>

The external process reads the input archive, writes the forecast state
for lead H as an archive on the same grid, and exits 0. Step n+1 starts
as soon as step n has exited, and runs while nwpeval checks step n's
output and hands it, as a reader of its planes, to be scored.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import logging
import math
import os
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .archive import DataError, PlaneReader, read_archive, write_archive
from .grids import (CHANNELS, GridMismatchError, GridSpec, StateSet, validate_state,
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
    """One builtin forecast step; advances valid_time by step_hours."""
    t = state.valid_time + timedelta(hours=step_hours)
    if backend.builtin == "persistence":
        return state.replace(valid_time=t)
    data = np.roll(state.data, backend.advection_cells, axis=2)
    return state.replace(valid_time=t, data=data)


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


def _open_step(path: Path, step_no: int, step_hours: int, channels,
               ic_path: Optional[Path]) -> PlaneReader:
    """One step's output, open for the planes of `channels`, which it checks
    for NaN/Inf as it reads each; every other plane is read and checked
    here. Any fault of the file, found now or as a plane is read, is a
    RolloutError: unless `ic_path`, step 1's input, holds NaN/Inf, which is
    then the IC's fault."""
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

    out = PlaneReader(path, GridSpec.canonical(), finite=True, fail=fail)
    try:
        out.check(ch for ch in CHANNELS if ch not in channels)
    except BaseException:
        out.close()
        raise
    return out


def _checked_ic(ic: Union[StateSet, str, os.PathLike], channels) -> StateSet:
    """The `channels` of the IC, a state or the path of an archive;
    RolloutError if any plane of it (all 69 of an archive) holds NaN/Inf."""
    try:
        if not isinstance(ic, StateSet):
            return read_archive(ic, channels, finite=True)
        if problems := validate_state(ic, check_ranges=False):
            raise DataError("; ".join(problems))
        return ic.subset(channels)
    except DataError as exc:
        raise RolloutError(f"the IC at lead 0 holds NaN/Inf: {exc}") from None


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read into one reused 256 KiB buffer."""
    digest = hashlib.sha256()
    buf = memoryview(bytearray(1 << 18))
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            digest.update(buf[:n])
    return digest.hexdigest()


def rollout_states(ic: Union[StateSet, str, os.PathLike], backend: BackendSpec, leads,
                   verify_determinism: bool = False,
                   channels=CHANNELS
                   ) -> Iterator[Optional[tuple[int, Union[StateSet, PlaneReader]]]]:
    """Drive the backend through the fewest steps that reach every lead and
    yield (lead_hours, state) for each requested lead as soon as it is
    reached, in increasing order (lead 0 is the IC). The rollout keeps no
    yielded state, so the caller copies out whatever it needs. Under an
    external backend a step's state is a PlaneReader of its output file,
    closed once the rollout is resumed: its scorer holds a plane or two of
    it at a time, never all of `channels`.

    Every yielded state holds `channels`, in that order, valid at the IC's
    valid_time + its lead: nwpeval owns time, and ignores the valid_time an
    external backend writes. An unreachable lead, or an IC off the canonical
    721x1440 grid an external backend requires, is raised before any step or
    yield. Under a builtin the IC, a state or a path, is checked once, up
    front: cut to `channels` with every plane (all 69 of an archive) checked
    for NaN/Inf, it is what lead 0 yields and step 1 moves. A builtin creates
    no values, so its steps are not checked. Under an external backend only
    a path's header is read, and its payload's size checked; step 1 reads
    the file itself, which is never written, moved or deleted. Should step
    1's output then fail its check with lead 0 not asked for, every plane of
    that file is checked first, so a NaN it holds is the IC's fault. A state
    is checked up front, every plane, and written once, to step000.nws. Lead
    0 is read or cut to `channels` with every plane checked. Every plane of
    a step's output is read once
    and checked before it is used: the planes a reader yields are checked as
    its scorer first asks for each, those the scorer leaves unread once the
    rollout is resumed, and every other plane before the yield, through one
    spare plane. Step n reads step{n-1} and writes step{n}. Once step n has
    exited 0, step{n-1} is deleted and step n+1 started; step n's output is
    then checked and yielded while the backend computes. A fault found in
    it, then or as its scorer reads a plane, is a RolloutError. Sent True
    in place of next() at a yield, the rollout
    waits there for the step started ahead to exit and yields None, so a
    caller that pauses it that way leaves no backend process running; the
    next next() goes on. If a check fails, or the generator is closed,
    the running step is killed and reaped before the error propagates. Of an
    IC state only valid_time and source_label are kept past step000.nws or
    the first builtin step, so a caller holding no reference of its own gets
    its memory back then. verify_determinism runs step 1 again from the same
    input into a file of its own, before step 2 starts, and compares the two
    files' SHA-256, without reading the repeat as a state.
    """
    wanted = {int(h) for h in leads}
    plan = plan_for_leads(wanted, backend.horizons)
    external = backend.kind == "external-command"
    ic_path = None if isinstance(ic, StateSet) or not external else Path(ic)
    if ic_path is not None:
        ic = read_archive(ic_path, ())   # step 1 reads the file where it is
    else:   # lead 0 yields it, and step 1 moves it or reads it as written
        ic = _checked_ic(ic, ic.channels if external else channels)
    try:
        backend.check_grid(ic.grid)
    except ValueError as exc:
        raise RolloutError(str(exc)) from None

    if 0 in wanted:
        paused = yield 0, _checked_ic(ic_path, channels) if ic_path else ic.subset(channels)
        if paused:   # no step has started yet
            yield
    init_time, label = ic.valid_time, ic.source_label
    with tempfile.TemporaryDirectory(prefix="nwpeval-rollout-") as work:
        files = [Path(work) / f"step{n:03d}.nws" for n in range(len(plan.steps) + 1)]
        if ic_path is not None:
            files[0] = ic_path   # step 1 reads the caller's file where it is
        elif external and plan.steps:
            write_archive(ic, files[0])
        state = ic
        del ic   # `state` is the only reference left; the first step drops it
        running = None   # the backend process of the latest external step
        out = None   # the reader of the latest external step's output
        cumulative = itertools.accumulate(plan.steps)
        try:
            for n, (hours, lead) in enumerate(zip(plan.steps, cumulative), start=1):
                if not external:
                    state = builtin_step(state, backend, hours)
                else:
                    del state   # on disk: hold one state while reading the next
                    if n == 1:
                        running = _start_backend(files[0], files[1], backend, hours, n)
                    _finish_backend(running, files[n], hours, n)
                    if verify_determinism and n == 1:
                        # repeat into its own file (step 2 reads step001.nws);
                        # hashed, never read: equal hashes mean checked bytes
                        repeat = Path(work) / "repeat001.nws"
                        running = _start_backend(files[0], repeat, backend, hours, n)
                        _finish_backend(running, repeat, hours, n)
                        h1, h2 = _sha256(files[1]), _sha256(repeat)
                        if h1 != h2:
                            log.warning("backend is not deterministic: step-1 hashes "
                                        "%s vs %s", h1, h2)
                        repeat.unlink()
                    if files[n - 1] != ic_path:
                        files[n - 1].unlink(missing_ok=True)
                    if n < len(plan.steps):
                        running = _start_backend(files[n], files[n + 1], backend,
                                                 plan.steps[n], n + 1)
                    # a NaN a path IC holds, if lead 0 did not check it, is its own fault
                    blame = ic_path if n == 1 and 0 not in wanted else None
                    state = out = _open_step(files[n], n, hours,
                                             channels if lead in wanted else (), blame)
                if lead in wanted:
                    paused = yield lead, state.replace(
                        valid_time=init_time + timedelta(hours=lead), source_label=label)
                    if out is not None:   # the planes its scorer left unread are checked still
                        out.check(out.unread)
                    if paused:   # the step started ahead ends before the pause
                        if running is not None:
                            running.wait()
                        yield
                if out is not None:
                    out.close()
        finally:
            if out is not None:
                out.close()
            if running is not None:   # a no-op once the process has been waited for
                running.kill()
                running.wait()


def run_rollout(ic: Union[StateSet, str, os.PathLike], backend: BackendSpec, leads,
                emit, verify_determinism: bool = False, channels=CHANNELS) -> None:
    """Call emit(lead_hours, state) for each state rollout_states yields,
    a step's reader read whole: every state emit gets holds all of
    `channels`, checked. If emit raises, the running step is killed and
    reaped first."""
    states = rollout_states(ic, backend, leads, verify_determinism, channels)
    del ic   # the rollout lets go of an IC state after its first step
    with contextlib.closing(states):
        for lead, state in states:
            emit(lead, state.subset(channels))
            del state   # held here, it would outlive the next step's read
