"""Autoregressive forecast driver.

Decomposes a requested lead time into backend step sizes, invokes the
backend once per step, and hands each requested lead to a callback as
soon as it is reached. Backends are either builtin desk-scale surrogates
(persistence, eastward advection) or an external command speaking the
subprocess protocol:

    <command> --in <state.nws> --out <state.nws> --step-hours <H>

The external process reads the input archive, writes the forecast state
for lead H as an archive on the same grid, and exits 0.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import math
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path
from typing import Optional

import numpy as np

from .archive import read_archive, write_archive
from .grids import GridSpec, StateSet, all_finite

log = logging.getLogger(__name__)

DEFAULT_HORIZONS = frozenset({24})


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
        if self.kind == "external-command" and not self.command:
            raise ValueError("external backend requires a command")
        object.__setattr__(self, "horizons", frozenset(int(h) for h in self.horizons))
        if not self.horizons or min(self.horizons) < 1:
            raise ValueError("backend horizons must be one or more positive hours")


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


def _run_backend(in_path: Path, out_path: Path, backend: BackendSpec,
                 step_hours: int, step_no: int) -> None:
    """Run the external command for one step; RolloutError with the exit
    code and stderr tail if it fails."""
    cmd = shlex.split(backend.command) + [
        "--in", str(in_path), "--out", str(out_path), "--step-hours", str(step_hours)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    stderr = proc.stderr.strip()
    if stderr:
        log.info("backend step %d stderr: %s", step_no, stderr)
    if proc.returncode != 0:
        tail = " | ".join(stderr.splitlines()[-20:])
        raise RolloutError(f"backend failed at step {step_no} "
                           f"(+{step_hours}h): exit {proc.returncode}"
                           + (f"; stderr: {tail}" if tail else ""))


def _read_step(out_path: Path, step_no: int) -> StateSet:
    """Read and check one step's output archive."""
    try:
        out = read_archive(str(out_path))
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
                verify_determinism: bool = False) -> None:
    """Drive the backend through the fewest steps that reach every lead and
    call emit(lead_hours, state) for each requested lead as soon as it is
    reached, in increasing order (lead 0 is the IC). The rollout keeps no
    emitted state, so emit copies out whatever it needs.

    An unreachable lead, or an IC off the canonical 721x1440 grid that
    external backends require, is raised before any step or emit. The IC is
    written once, to step000.nws; step n reads step{n-1} and writes
    step{n}, and step{n-1} is deleted once step n's output has been read
    and checked. Every state is checked for NaN/Inf before it is emitted
    and before the next step starts. Of the IC only valid_time and
    source_label are kept past step000.nws or the first builtin step, so
    a caller holding no reference of its own gets its memory back then.
    verify_determinism runs step 1 again into a file of its own and compares
    the two files' SHA-256, without reading the repeat as a state.
    """
    wanted = {int(h) for h in leads}
    plan = plan_for_leads(wanted, backend.horizons)
    external = backend.kind == "external-command"
    if external and ic.grid != GridSpec.canonical():
        raise RolloutError("external backends require the canonical 721x1440 grid")

    if 0 in wanted:
        emit(0, ic)
    init_time, label = ic.valid_time, ic.source_label
    with tempfile.TemporaryDirectory(prefix="nwpeval-rollout-") as work:
        files = [Path(work) / f"step{n:03d}.nws" for n in range(len(plan.steps) + 1)]
        if external and plan.steps:
            write_archive(ic, str(files[0]))
        state = ic
        del ic   # `state` is the only reference left; the first step drops it
        cumulative = itertools.accumulate(plan.steps)
        for n, (hours, lead) in enumerate(zip(plan.steps, cumulative), start=1):
            if not external:
                state = builtin_step(state, backend, hours)
            else:
                del state   # it is on disk: hold one state while reading the next
                _run_backend(files[n - 1], files[n], backend, hours, n)
                state = _read_step(files[n], n)
                if verify_determinism and n == 1:
                    # repeat into its own file (step 2 reads step001.nws);
                    # hashed, never read: equal hashes mean checked bytes
                    repeat = Path(work) / "repeat001.nws"
                    _run_backend(files[0], repeat, backend, hours, n)
                    h1, h2 = _sha256(files[1]), _sha256(repeat)
                    if h1 != h2:
                        log.warning("backend is not deterministic: step-1 hashes "
                                    "%s vs %s", h1, h2)
                    repeat.unlink()
                files[n - 1].unlink(missing_ok=True)
            if not all_finite(state.data):
                raise RolloutError(f"backend produced NaN/Inf at step {n} (+{hours}h)")
            if lead in wanted:
                emit(lead, state.replace(
                    valid_time=init_time + timedelta(hours=lead),
                    source_label=label))
