"""One benchmark child process; nwpeval comes from the checkout's src/.

    child.py setup <config.yaml> <result.json>
        imports nwpeval and runs load_config, then records the monotonic
        clock (system-wide, so the parent can subtract its spawn time).
    child.py run <config.yaml> <out-dir> <result.json> [--trace]
        runs load_config -> run_experiment into <out-dir> and records run
        time, ru_maxrss, /proc/self/io byte deltas and RunReport.failures;
        with --trace, also the spans of the traced layers.
"""

import dataclasses
import json
import resource
import sys
import time


def proc_io() -> dict[str, int]:
    with open("/proc/self/io") as fh:
        return {k: int(v) for k, v in (line.split(": ") for line in fh)}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv: list[str]) -> int:
    mode, config_path = argv[0], argv[1]
    from nwpeval import experiment

    if mode == "setup":
        experiment.load_config(config_path)
        loaded = time.monotonic()
        with open(argv[2], "w") as fh:
            json.dump({"loaded": loaded}, fh)
        return 0

    out_dir, result_path = argv[2], argv[3]
    rec = None
    if "--trace" in argv[4:]:
        import spans
        rec = spans.Recorder()
        spans.instrument(rec)
    config = dataclasses.replace(experiment.load_config(config_path), output_dir=out_dir)
    io0, cpu0 = proc_io(), cpu_seconds()
    t0 = time.perf_counter()
    report = experiment.run_experiment(config)
    run_s = time.perf_counter() - t0
    io1, cpu1 = proc_io(), cpu_seconds()
    result = {
        "run_s": run_s,
        "cpu_s": cpu1 - cpu0,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rchar": io1["rchar"] - io0["rchar"],
        "wchar": io1["wchar"] - io0["wchar"],
        "failures": report.failures,
        "svgs": len(report.plot_files),
    }
    if rec is not None:
        result["spans"] = rec.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
