"""Benchmark workloads and their seeded input generator.

Every workload derives its inputs from one seeded "true atmosphere" on a
base grid (nwpeval.synthetic.make_state). Source k is that base,
subsampled by an integer factor and displaced east by k cells (an
imperfect analysis); the truth at lead L is the model-grid base shifted
west by the truth drift; the climatology is seed-independent. Generation runs in its own process, with nwpeval from
the checkout's src/ on PYTHONPATH:

    python3 perfbench/workloads.py <workload> <seed> <dest-dir>

and writes the inputs plus a config.yaml that `load_config` accepts.
"""

from __future__ import annotations

import os
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

REPORT_CHANNELS = ("MSLP", "T2", "U10", "V10", "Q500", "T500", "U500", "V500", "Z500")
REGIONS = {"global": (-90.0, 90.0, 0.0, 360.0), "east_asia": (-10.0, 60.0, 60.0, 150.0)}
EAST_ASIA = REGIONS["east_asia"]
N_CHANNELS = 69
CLIMATOLOGY = "climatology.nws"   # seed-independent, one per workload directory
TRUTH_CELLS_PER_DAY = 5


@dataclass(frozen=True)
class Grid:
    """Regular global grid with poles, row 0 at 90N, column 0 at 0E."""

    nlat: int
    nlon: int
    step: float

    def subsample(self, factor: int) -> "Grid":
        if (self.nlat - 1) % factor or self.nlon % factor:
            raise ValueError(f"{self} cannot be subsampled by {factor}")
        return Grid((self.nlat - 1) // factor + 1, self.nlon // factor, self.step * factor)

    def as_dict(self) -> dict:
        return {"nlat": self.nlat, "nlon": self.nlon, "lat_start": 90.0,
                "dlat": self.step, "lon_start": 0.0, "dlon": self.step}

    @property
    def state_bytes(self) -> int:
        """Bytes of one 69-channel float32 state on this grid."""
        return N_CHANNELS * self.nlat * self.nlon * 4


CANONICAL = Grid(721, 1440, 0.25)
HALF_DEGREE = Grid(361, 720, 0.5)


@dataclass(frozen=True)
class Source:
    label: str
    factor: int            # subsampling of the base grid
    fmt: str = "nws"       # "nws" or "raw-south" (headerless, south-first rows)

    @property
    def filename(self) -> str:
        return f"{self.label}.nws" if self.fmt == "nws" else f"{self.label}.bin"


@dataclass(frozen=True)
class Splice:
    label: str
    base: str
    donor: str
    scope: str = "upper-only"
    blend: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    base: Grid
    model_factor: int
    sources: tuple[Source, ...]
    leads: tuple[int, ...]
    horizons: tuple[int, ...]
    workers: int
    backend: str              # "advection" (builtin) or "external"
    oracle_source: str        # on-grid source whose forecast the oracle recomputes
    splices: tuple[Splice, ...] = ()
    advection_cells: int = 1  # builtin: eastward cells per step

    @property
    def model(self) -> Grid:
        return self.base.subsample(self.model_factor)

    @property
    def runs(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.sources) + tuple(s.label for s in self.splices)

    @property
    def expected_cells(self) -> int:
        return len(self.runs) * len(self.leads) * len(REPORT_CHANNELS) * len(REGIONS) * 2

    def steps_to(self, lead: int) -> list[int]:
        """Backend steps up to `lead`, chained between consecutive requested
        leads and largest-first within each gap, as run_experiment plans."""
        steps, prev = [], 0
        for target in sorted(self.leads):
            if target > lead:
                break
            rest = target - prev
            for h in sorted(self.horizons, reverse=True):
                steps += [h] * (rest // h)
                rest %= h
            prev = target
        return steps

    def forecast_shift(self, lead: int) -> int:
        """Eastward cells the backend has moved the IC by at `lead`."""
        steps = self.steps_to(lead)
        if self.backend == "external":
            return sum(external_cells(h) for h in steps)
        return self.advection_cells * len(steps)

    @staticmethod
    def truth_shift(lead: int) -> int:
        """Eastward cells the truth has drifted by at `lead`: it drifts
        west, so no forecast, which moves east, ever equals it."""
        return -(TRUTH_CELLS_PER_DAY * lead // 24)


def external_cells(step_hours: int) -> int:
    """Eastward cells the benchmark's external backend moves per step."""
    return step_hours // 6


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper-0p25",
        base=CANONICAL, model_factor=1,
        sources=(Source("gfs", 2), Source("ifs", 1, "raw-south")),
        splices=(Splice("ifspadgfs", "gfs", "ifs"),),
        leads=(24, 48, 72), horizons=(24,), workers=2,
        backend="advection", advection_cells=2, oracle_source="ifs"),
    Workload(
        name="desk-1p0-6h",
        base=HALF_DEGREE, model_factor=2,
        sources=(Source("gfs", 5), Source("icon", 2), Source("ifs", 1, "raw-south")),
        splices=(Splice("ifspadgfs", "gfs", "ifs"),
                 Splice("ifspadgfs_b5", "gfs", "ifs", blend=5.0),
                 Splice("iconpadgfs", "gfs", "icon", scope="all-channels")),
        leads=tuple(range(6, 241, 6)), horizons=(24, 6), workers=2,
        backend="advection", advection_cells=1, oracle_source="icon"),
    Workload(
        name="external-0p25",
        base=CANONICAL, model_factor=1,
        sources=(Source("ifs", 1),),
        leads=(24, 48), horizons=(24, 6), workers=1,
        backend="external", oracle_source="ifs"),
)}


def config_doc(w: Workload, clim_path: str) -> dict:
    """The experiment config for a generated input directory."""
    doc = {
        "name": w.name,
        "init_time": "2023-06-06T00:00:00Z",
        "grid": w.model.as_dict(),
        "ic_sources": [],
        "truth": "truth_{lead}.nws",
        "climatology": clim_path,
        "lead_hours": list(w.leads),
        "regions": {k: list(v) for k, v in REGIONS.items()},
        "report_channels": list(REPORT_CHANNELS),
        "workers": w.workers,
        "output_dir": "out",
    }
    for s in w.sources:
        entry = {"label": s.label, "path": s.filename}
        if s.fmt == "raw-south":
            entry["grid"] = w.base.subsample(s.factor).as_dict()
            entry["layout"] = {"channel_order": "canonical", "scan": "south-first"}
        doc["ic_sources"].append(entry)
    if w.splices:
        doc["splice_scenarios"] = [
            {"label": s.label, "base_source": s.base, "donor_source": s.donor,
             "box": list(EAST_ASIA), "scope": s.scope, "blend_width": s.blend}
            for s in w.splices]
    if w.backend == "external":
        cmd = " ".join(shlex.quote(p) for p in
                       (sys.executable, str(HERE / "advect_backend.py")))
        doc["backend"] = {"kind": "external-command", "command": cmd,
                          "horizons": list(w.horizons)}
    else:
        doc["backend"] = {"kind": "builtin", "builtin": "advection",
                          "advection_cells": w.advection_cells,
                          "horizons": list(w.horizons)}
    return doc


def flush(path: Path) -> None:
    """Write the file back to disk now, so that writeback of generated
    inputs does not overlap the measured runs."""
    with open(path, "rb") as fh:
        os.fsync(fh.fileno())


def generate(w: Workload, seed: int, dest: Path, clim: Path) -> None:
    """Write the seeded inputs of `w` into `dest`; make `clim` if missing."""
    import numpy as np
    import yaml
    from nwpeval.archive import write_archive
    from nwpeval.grids import GridSpec
    from nwpeval.synthetic import make_climatology, make_state

    def spec(g: Grid) -> GridSpec:
        return GridSpec(**g.as_dict())

    def subsample(state, factor):
        if factor == 1:
            return state
        return state.replace(grid=spec(w.base.subsample(factor)),
                             data=state.data[:, ::factor, ::factor])

    dest.mkdir(parents=True, exist_ok=True)
    if not clim.exists():
        tmp = clim.with_suffix(".tmp")
        write_archive(make_climatology(spec(w.model)), str(tmp))
        flush(tmp)
        tmp.replace(clim)
    base = make_state(spec(w.base), seed=seed, source_label="base")
    for k, s in enumerate(w.sources, start=1):
        state = subsample(base, s.factor)
        state = state.replace(data=np.roll(state.data, k, axis=2), source_label=s.label)
        if s.fmt == "nws":
            write_archive(state, str(dest / s.filename))
        else:
            state.data[:, ::-1, :].astype("<f4").tofile(dest / s.filename)
        flush(dest / s.filename)
        del state
    model_base = subsample(base, w.model_factor)
    del base
    for lead in w.leads:
        truth = model_base.replace(data=np.roll(model_base.data, w.truth_shift(lead), axis=2),
                                   source_label="truth")
        write_archive(truth, str(dest / f"truth_{lead}.nws"))
        flush(dest / f"truth_{lead}.nws")
        del truth
    doc = config_doc(w, f"../{clim.name}")
    (dest / "config.yaml").write_text(yaml.safe_dump(doc, sort_keys=False))


def main(argv: list[str]) -> int:
    name, seed, dest = argv[0], int(argv[1]), Path(argv[2])
    w = WORKLOADS[name]
    generate(w, seed, dest, dest.parent / CLIMATOLOGY)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
