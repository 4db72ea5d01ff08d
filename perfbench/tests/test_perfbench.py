"""Tests of the benchmark itself: oracle, failure accounting, spans.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
import yaml

import oracle
import run as bench
import spans
from nwpeval import experiment
from workloads import (CANONICAL, CLIMATOLOGY, WORKLOADS, Grid, Source, Splice, Workload,
                       generate)

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TINY = Workload(
    name="tiny", base=Grid(37, 72, 5.0), model_factor=2,
    sources=(Source("a", 2), Source("b", 1, "raw-south")),
    splices=(Splice("bpada", "a", "b"),),
    leads=(12, 24), horizons=(12,), workers=2,
    backend="advection", oracle_source="a")


def make_inputs(w: Workload, tmp_path: Path, seed: int = 3) -> Path:
    inputs = tmp_path / "seed"
    generate(w, seed, inputs, tmp_path / CLIMATOLOGY)
    return inputs


def run(inputs: Path, out: Path, **overrides):
    config = experiment.load_config(str(inputs / "config.yaml"))
    return experiment.run_experiment(
        dataclasses.replace(config, output_dir=str(out), **overrides))


def bump_7th_digit(text: str) -> str:
    v = float(text)
    return f"{v + 10.0 ** (math.floor(math.log10(abs(v))) - 6):.9g}"


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    inputs = make_inputs(TINY, tmp)
    report = run(inputs, tmp / "out")
    return inputs, tmp / "out", report


class TestOracle:
    def test_clean_run_passes(self, tiny):
        inputs, out, report = tiny
        expected = oracle.expected_values(TINY, inputs)
        assert len(expected) == 3 * len(TINY.leads) * 2 * 2
        failed, problems = oracle.check_run(TINY, out / "metrics.csv",
                                            report.failures, expected)
        assert failed == set() and problems == []

    def test_rejects_value_perturbed_in_7th_digit(self, tiny, tmp_path):
        inputs, out, report = tiny
        expected = oracle.expected_values(TINY, inputs)
        lines = (out / "metrics.csv").read_text().splitlines()
        target = next(i for i, line in enumerate(lines)
                      if line.split(",")[1:4] == ["a", "Z", "500"]
                      and line.split(",")[6] == "ACC")
        cols = lines[target].split(",")
        cols[-1] = bump_7th_digit(cols[-1])
        lines[target] = ",".join(cols)
        bad_csv = tmp_path / "metrics.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        failed, problems = oracle.check_run(TINY, bad_csv, report.failures, expected)
        key = ("a", "Z", 500, cols[4], int(cols[5]), "ACC")
        assert failed == {key}
        assert len(problems) == 1 and "oracle mismatch" in problems[0]

    def test_missing_row_and_out_of_range_acc(self, tiny, tmp_path):
        inputs, out, report = tiny
        lines = (out / "metrics.csv").read_text().splitlines()
        acc = next(i for i, line in enumerate(lines) if line.startswith("2023")
                   and ",b," in line and line.split(",")[6] == "ACC")
        cols = lines[acc].split(",")
        cols[-1] = "1.5"
        lines[acc] = ",".join(cols)
        del lines[1]
        bad_csv = tmp_path / "metrics.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        failed, problems = oracle.check_run(TINY, bad_csv, report.failures, {})
        assert len(failed) == 2
        assert any("CSV rows" in p for p in problems)

    def test_fingerprint_is_stable_and_sensitive(self, tiny, tmp_path):
        _, out, _ = tiny
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        assert oracle.fingerprint(copy) == oracle.fingerprint(out)
        svg = sorted((copy / "plots").glob("*.svg"))[0]
        svg.write_text(svg.read_text() + " ")
        assert oracle.fingerprint(copy)["svgs"] != oracle.fingerprint(out)["svgs"]
        assert oracle.fingerprint(copy)["metrics_csv"] == oracle.fingerprint(out)["metrics_csv"]


FAILING_BACKEND = """\
import sys
from nwpeval.archive import read_header
import advect_backend

if read_header(sys.argv[sys.argv.index("--in") + 1])["source_label"] == "bad":
    sys.exit(1)
sys.exit(advect_backend.main())
"""


def test_backend_exit_1_gives_exact_failed_frac(tmp_path, monkeypatch):
    w = Workload(name="ext-fail", base=CANONICAL, model_factor=1,
                 sources=(Source("good", 1), Source("bad", 1)),
                 leads=(24,), horizons=(24,), workers=1,
                 backend="external", oracle_source="good")
    inputs = make_inputs(w, tmp_path)
    script = tmp_path / "backend.py"
    script.write_text(FAILING_BACKEND)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(BENCH.parent / "src"), str(BENCH)]))
    doc = yaml.safe_load((inputs / "config.yaml").read_text())
    doc["backend"]["command"] = f"{sys.executable} {script}"
    (inputs / "config.yaml").write_text(yaml.safe_dump(doc))
    report = run(inputs, tmp_path / "out")
    assert set(report.failures) == {"bad"}, report.failures
    failed, problems = oracle.check_run(w, tmp_path / "out" / "metrics.csv",
                                        report.failures,
                                        oracle.expected_values(w, inputs))
    assert len(failed) / w.expected_cells == 0.5
    assert {k[0] for k in failed} == {"bad"}


def span(i, name, start, end, parent=None, thread=1):
    return spans.Span(i, name, start, end, parent, thread)


class TestSelfTime:
    def test_nested(self):
        tree = [span(0, "root", 0, 10), span(1, "child", 1, 4, 0),
                span(2, "grandchild", 2, 3, 1), span(3, "child", 5, 6, 0)]
        assert spans.self_times(tree) == {0: 6, 1: 2, 2: 1, 3: 1}
        rows = spans.summary(tree)
        assert rows["child"] == {"calls": 2, "s": 4, "self_s": 3}

    def test_threaded_children_overlap_once(self):
        tree = [span(0, "root", 0, 10), span(1, "work", 1, 5, 0, thread=2),
                span(2, "work", 3, 8, 0, thread=3), span(3, "leaf", 4, 6, 2, thread=3)]
        selfs = spans.self_times(tree)
        assert selfs[0] == 3          # 10 minus the union [1, 8]
        assert selfs[2] == 3
        assert spans.summary(tree)["work"]["s"] == 9

    def test_children_clipped_to_parent(self):
        tree = [span(0, "root", 2, 6), span(1, "child", 0, 3, 0), span(2, "child", 5, 9, 0)]
        assert spans.self_times(tree)[0] == 2

    def test_recorder_parents_worker_spans_to_submitting_span(self):
        rec = spans.Recorder()
        with rec.span("root"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                def work():
                    with rec.span("work"):
                        with rec.span("leaf"):
                            return threading.get_ident()
                idents = [f.result() for f in [pool.submit(work) for _ in range(4)]]
        by_id = {s.id: s for s in rec.spans}
        root = rec.spans[0]
        works = [s for s in rec.spans if s.name == "work"]
        assert len(works) == 4 and all(s.parent == root.id for s in works)
        assert {s.thread for s in works} == set(idents) and root.thread not in idents
        for leaf in (s for s in rec.spans if s.name == "leaf"):
            assert by_id[leaf.parent].name == "work"
            assert by_id[leaf.parent].thread == leaf.thread
        assert all(s.start <= s.end for s in rec.spans)


def test_traced_run_layer_counts(tiny, tmp_path):
    inputs, _, _ = tiny
    rec = spans.Recorder()
    original = experiment.run_experiment
    try:
        spans.instrument(rec)
        report = run(inputs, tmp_path / "out")
    finally:
        rec.restore()
    assert experiment.run_experiment is original
    names = [m["name"] for m in SPEC["per_layer"]]
    m = spans.layer_metrics(rec.spans, names)
    assert set(m) == set(names) - {"process.cpu_s", "trace.overhead_s"}
    runs = len(TINY.runs)
    assert m["verify.cells"] == m["experiment.rows"] == TINY.expected_cells
    assert m["verify.rmse_weighted.calls"] == m["verify.acc_weighted.calls"] == TINY.expected_cells // 2
    assert m["rollout.builtin_step.calls"] == runs * len(TINY.leads)
    assert m["regrid.planes"] == 69          # only source b is off the model grid
    assert m["archive.read_archive.calls"] == len(TINY.leads) + 2
    assert m["archive.write_archive.calls"] == 0
    assert m["plots.svgs"] == len(report.plot_files)
    assert m["rss.at_plots_start_mb"] > 0
    assert 0 < m["rollout.self_s"] < m["rollout.run_rollout.s"]


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-1p0-6h",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_defined_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_inputs_regenerated_when_generator_changes(tmp_path, monkeypatch):
    made = []

    def fake_call(cmd, env, deadline):
        made.append(cmd[-1])
        Path(cmd[-1]).mkdir(parents=True)
        (Path(cmd[-1]) / "config.yaml").write_text("")

    monkeypatch.setattr(bench, "CACHE", tmp_path)
    monkeypatch.setattr(bench, "call", fake_call)
    w = WORKLOADS["desk-1p0-6h"]
    first = bench.ensure_inputs(w, 1, {}, 0.0)
    assert bench.ensure_inputs(w, 1, {}, 0.0) == first and len(made) == 1
    monkeypatch.setattr(bench, "generator_digest", lambda: "changed")
    second = bench.ensure_inputs(w, 1, {}, 0.0)
    assert len(made) == 2 and second != first
    assert not first.parent.exists()
    third = bench.ensure_inputs(w, 2, {}, 0.0)
    assert not second.exists() and third.parent == second.parent
