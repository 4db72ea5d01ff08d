"""nwpeval benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload desk-1p0-6h --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; nwpeval is imported from its src/.
Inputs are generated from the seed in a separate process and cached per
(workload, seed) under .perfbench-cache/ (one seed per workload is kept),
keyed also by a digest of the generating code. Each experiment runs the
real load_config -> run_experiment path in a fresh child process, one at
a time (a closed loop of one client): a warm-up run, then measured runs
until --seconds have passed and at least three times. Every run's
metrics.csv is checked against an independent oracle, and all runs must
give identical metrics.csv and SVG digests.

--trace 0 reports the end-to-end metrics as medians over the measured
runs; --trace 1 makes, after the warm-up, an untraced, a traced and
another untraced run, and reports per-layer metrics from the traced one.
Metric names and units are read from BENCHMARK.json at the checkout's
root. The last line of stdout is the JSON result; the exit code is 1
when any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench-cache"
BUDGET_S = 170.0          # the whole invocation, generation included
SETUPS_PER_RUN = 3
MIN_RUNS = 3
MIB = 1024 * 1024


class ChildError(RuntimeError):
    pass


def call(cmd: list[str], env: dict, deadline: float) -> None:
    """Run cmd in its own process group; kill the whole group if it
    outlives the deadline or this process is interrupted."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildError(f"timed out: {' '.join(cmd[1:3])}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise ChildError(f"exit {code}: {' '.join(cmd[1:3])}")


def generator_digest() -> str:
    """Digest of the code that makes the inputs: workloads.py and the
    nwpeval sources it imports from."""
    h = hashlib.sha256()
    for path in [HERE / "workloads.py", *sorted((ROOT / "src" / "nwpeval").rglob("*.py"))]:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def ensure_inputs(w, seed: int, env: dict, deadline: float) -> Path:
    """Generated inputs for (workload, seed), made by the current code;
    other seeds, and inputs made by other code, are evicted."""
    wdir = CACHE / w.name / f"inputs-{generator_digest()}"
    dest = wdir / f"seed-{seed}"
    if (dest / "config.yaml").exists():
        return dest
    for old in [*wdir.parent.glob("inputs-*"), *wdir.glob("seed-*")]:
        if old != wdir:
            shutil.rmtree(old)
    wdir.mkdir(parents=True, exist_ok=True)
    tmp = wdir / f"seed-{seed}.partial"
    call([sys.executable, str(HERE / "workloads.py"), w.name, str(seed), str(tmp)],
         env, deadline)
    tmp.rename(dest)
    return dest


def setup_sample(config: Path, work: Path, env: dict, deadline: float) -> float:
    result = work / "setup.json"
    t0 = time.monotonic()
    call([sys.executable, str(HERE / "child.py"), "setup", str(config), str(result)],
         env, deadline)
    return json.loads(result.read_text())["loaded"] - t0


def experiment(config: Path, out: Path, env: dict, deadline: float,
               trace: bool) -> dict:
    result = out.parent / f"{out.name}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "run", str(config), str(out), str(result)]
    call(cmd + (["--trace"] if trace else []), env, deadline)
    return json.loads(result.read_text())


def environment() -> dict:
    import numpy
    mem = next(line.split()[1] for line in open("/proc/meminfo")
               if line.startswith("MemTotal:"))
    llc, level = None, 0
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        lvl = int((idx / "level").read_text())
        if lvl > level:
            level, llc = lvl, (idx / "size").read_text().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "mem_total_kib": int(mem),
            "llc": llc, "llc_level": level, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def llc_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1024, "M": MIB, "G": 1024 * MIB}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def sizes(w, inputs: Path, env_info: dict) -> dict:
    llc = llc_bytes(env_info["llc"])
    state = w.model.state_bytes
    return {
        "model_grid": f"{w.model.nlat}x{w.model.nlon}",
        "state_bytes": state,
        "state_over_llc": round(state / llc, 2) if llc else None,
        "input_bytes": sum(p.stat().st_size for p in inputs.iterdir()),
        "expected_cells": w.expected_cells,
        "note": "byte counts are computed from array and file sizes, "
                "not measured memory traffic",
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "nwpeval" / "__init__.py").is_file():
        print(f"error: no nwpeval sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    import oracle
    import spans

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    deadline = time.monotonic() + BUDGET_S
    tmpdir = CACHE / "tmp"
    tmpdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmpdir), PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    t0 = time.monotonic()
    inputs = ensure_inputs(w, args.seed, env, deadline)
    print(f"inputs ready in {time.monotonic() - t0:.1f} s", file=sys.stderr)
    config = inputs / "config.yaml"
    expected = oracle.expected_values(w, inputs)
    work = CACHE / w.name / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()

    checked, failed, problems = [], 0, []

    def run(traced: bool = False) -> dict:
        nonlocal failed
        out = work / f"run-{len(checked)}"
        res = experiment(config, out, env, deadline, traced)
        bad, found = oracle.check_run(w, out / "metrics.csv", res["failures"], expected)
        res["fingerprint"] = oracle.fingerprint(out)
        shutil.rmtree(out)
        failed += len(bad)
        problems.extend(found)
        checked.append(res)
        return res

    # The first run after generation often pays for reclaiming memory
    # that generation left behind: it is a warm-up, checked like every
    # run but left out of the metrics.
    run()
    runs, setups = [], []
    started = time.monotonic()
    if args.trace:
        # The traced run sits between two untraced ones;
        # trace.overhead_s is measured against those two.
        runs.append(run())
        traced_run = run(traced=True)
        runs.append(run())
    else:
        # Set-up samples follow every run, so that they span the same
        # stretch of time as the runs do.
        while len(runs) < MIN_RUNS or time.monotonic() - started < args.seconds:
            runs.append(run())
            setups += [setup_sample(config, work, env, deadline)
                       for _ in range(SETUPS_PER_RUN)]
    prints = [r["fingerprint"] for r in checked]
    if any(fp != prints[0] for fp in prints):
        problems.append(f"outputs differ between runs of seed {args.seed}: {prints}")
    attempted = w.expected_cells * len(checked)

    if args.trace:
        trace = [spans.Span(**s) for s in traced_run["spans"]]
        listed = spec["per_layer"]
        values = spans.layer_metrics(trace, [m["name"] for m in listed])
        values["process.cpu_s"] = traced_run["cpu_s"]
        values["trace.overhead_s"] = (traced_run["run_s"]
                                      - statistics.median(r["run_s"] for r in runs))
        print(f"{'span':32} {'calls':>7} {'wall_s':>10} {'self_s':>10}")
        for name, row in sorted(spans.summary(trace).items()):
            print(f"{name:32} {row['calls']:7d} {row['s']:10.4f} {row['self_s']:10.4f}")
    else:
        med = statistics.median
        values = {
            "setup_s": med(setups),
            "run_s": med(r["run_s"] for r in runs),
            "peak_rss_mb": med(r["maxrss_kib"] / 1024 for r in runs),
            "read_mb": med(r["rchar"] / MIB for r in runs),
            "write_mb": med(r["wchar"] / MIB for r in runs),
        }
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    env_info = environment()
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "runs": len(runs), "run_s": [r["run_s"] for r in runs],
              "warmup_run_s": checked[0]["run_s"],
              "traced_run_s": traced_run["run_s"] if args.trace else None,
              "setup_s": setups, "failed_frac": failed / attempted,
              "fingerprint": prints[0], "problems": problems,
              "environment": env_info, "sizes": sizes(w, inputs, env_info),
              "metrics": metrics}
    results = CACHE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    if args.trace:
        (results / f"{w.name}-seed{args.seed}-spans.json").write_text(
            json.dumps(traced_run["spans"]))
    store = CACHE / "fingerprints.json"
    digests = json.loads(store.read_text()) if store.exists() else {}
    digests.setdefault(w.name, {})[str(args.seed)] = prints[0]
    store.write_text(json.dumps(digests, indent=1, sort_keys=True))

    for problem in problems[:20]:
        print(f"FAIL {problem}")
    for key in ("environment", "sizes", "fingerprint"):
        print(f"{key}: {json.dumps(record[key])}")
    print(f"runs: {len(runs)}  run_s: {[round(t, 3) for t in record['run_s']]}  "
          f"warm-up: {record['warmup_run_s']:.3f}  traced: {record['traced_run_s']}")
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:14.6f} {m['unit']}")
    print(f"{'failed_frac':32} {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted} cells)")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
