"""Autoregressive forecast driver.

Decomposes a requested lead time into backend step sizes, invokes the
backend once per step, and hands each requested lead to a callback as
soon as it is reached. Backends are either builtin desk-scale surrogates
(persistence, eastward advection) or an external command speaking the
subprocess protocol:

    <command> --in <state.nws> --out <state.nws> --step-hours <H>

The external process reads the input archive, writes the forecast state
for lead H as an archive on the same grid, and exits 0. Step n+1 starts
as soon as step n has exited, and runs while nwpeval reads, checks and
emits step n's output.
"""

from __future__ import annotations

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
from typing import Optional

import numpy as np

from .archive import DataError, read_archive, write_archive
from .grids import CHANNELS, GridSpec, StateSet, validate_state

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
        object.__setattr__(self, "horizons", frozenset(int(h) for h in self.horizons))
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


def _read_step(path: Path, step_no: int, step_hours: int, channels) -> StateSet:
    """Read one step's output, keeping `channels`; all 69 planes are
    checked for NaN/Inf on the way."""
    try:
        out = read_archive(str(path), channels, finite=True)
    except DataError as exc:
        raise RolloutError(f"backend produced NaN/Inf at step {step_no} "
                           f"(+{step_hours}h): {exc}") from None
    except Exception as exc:
        raise RolloutError(f"backend wrote a malformed archive at step {step_no}: {exc}")
    if out.grid != GridSpec.canonical():
        raise RolloutError(f"backend changed the grid at step {step_no}")
    return out


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read into one reused 256 KiB buffer."""
    digest = hashlib.sha256()
    buf = memoryview(bytearray(1 << 18))
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            digest.update(buf[:n])
    return digest.hexdigest()


def run_rollout(ic: StateSet, backend: BackendSpec, leads, emit,
                verify_determinism: bool = False, channels=CHANNELS) -> None:
    """Drive the backend through the fewest steps that reach every lead and
    call emit(lead_hours, state) for each requested lead as soon as it is
    reached, in increasing order (lead 0 is the IC). The rollout keeps no
    emitted state, so emit copies out whatever it needs.

    An unreachable lead, or an IC off the canonical 721x1440 grid that
    external backends require, is raised before any step or emit. The IC is
    written once, to step000.nws; step n reads step{n-1} and writes
    step{n}. Once step n has exited 0, step{n-1} is deleted and step n+1
    started; step n's output is then read, checked and emitted while the
    backend computes. If that fails, or emit raises, the running step is
    killed and reaped before the error propagates. Every state is checked
    for NaN/Inf before it is emitted. Of an external step's output only
    `channels` are kept (all 69 planes are checked); builtin states and
    the IC are emitted whole. Of the IC only valid_time and source_label
    are kept past step000.nws or the first builtin step, so a caller
    holding no reference of its own gets its memory back then.
    verify_determinism runs step 1 again into a file of its own, before
    step 2 starts, and compares the two files' SHA-256, without reading
    the repeat as a state.
    """
    wanted = {int(h) for h in leads}
    plan = plan_for_leads(wanted, backend.horizons)
    try:
        backend.check_grid(ic.grid)
    except ValueError as exc:
        raise RolloutError(str(exc)) from None
    external = backend.kind == "external-command"

    if 0 in wanted:
        if problems := validate_state(ic, check_ranges=False):
            raise RolloutError(f"the IC at lead 0 holds NaN/Inf: {'; '.join(problems)}")
        emit(0, ic)
    init_time, label = ic.valid_time, ic.source_label
    with tempfile.TemporaryDirectory(prefix="nwpeval-rollout-") as work:
        files = [Path(work) / f"step{n:03d}.nws" for n in range(len(plan.steps) + 1)]
        if external and plan.steps:
            write_archive(ic, str(files[0]))
        state = ic
        del ic   # `state` is the only reference left; the first step drops it
        running = None   # the backend process of the latest external step
        cumulative = itertools.accumulate(plan.steps)
        try:
            for n, (hours, lead) in enumerate(zip(plan.steps, cumulative), start=1):
                if not external:
                    state = builtin_step(state, backend, hours)
                    if problems := validate_state(state, check_ranges=False):
                        raise RolloutError(f"backend produced NaN/Inf at step {n} "
                                           f"(+{hours}h): {'; '.join(problems)}")
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
                    files[n - 1].unlink(missing_ok=True)
                    if n < len(plan.steps):
                        running = _start_backend(files[n], files[n + 1], backend,
                                                 plan.steps[n], n + 1)
                    state = _read_step(files[n], n, hours, channels)
                if lead in wanted:
                    emit(lead, state.replace(
                        valid_time=init_time + timedelta(hours=lead),
                        source_label=label))
        finally:
            if running is not None:   # a no-op once the process has been waited for
                running.kill()
                running.wait()
