import hashlib
import itertools
import json
import logging
import os
import re
import signal
import stat
import sys
import tempfile
import textwrap
import time
import tracemalloc
import weakref
from contextlib import closing, nullcontext
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwpeval import rollout
from nwpeval.archive import ArchiveError, archive_bytes, write_archive
from nwpeval.grids import CHANNELS, DEFAULT_REGIONS, N_CHANNELS, GridSpec, StateSet, Var
from nwpeval.rollout import (BackendSpec, RolloutError, UnreachableLeadError,
                             builtin_step, plan_for_leads, run_rollout, schedule_steps)
from nwpeval.synthetic import default_time, make_climatology, make_state
from nwpeval.verify import DEFAULT_REPORT_CHANNELS, evaluate_run
from tests.conftest import random_state


def rollout_series(ic, backend, leads, channels=CHANNELS, **kwargs):
    """The (lead, state) pairs run_rollout yields, in order, each state read
    whole into a copy of its planes: a builtin's next step moves them in place."""
    series = []
    with closing(run_rollout(ic, backend, leads, channels=channels, **kwargs)) as states:
        for lead, state in states:
            whole = state.subset(channels)
            series.append((lead, whole.replace(data=whole.data.copy())))
    return series


def min_steps_exhaustive(lead, horizons, cap=8):
    """Oracle: smallest decomposition found by exhaustive search."""
    for n in range(0, cap + 1):
        for combo in itertools.combinations_with_replacement(sorted(horizons), n):
            if sum(combo) == lead:
                return n
    return None


class TestScheduleSteps:
    def test_ten_day_rollout_in_daily_steps(self):
        plan = schedule_steps(240, {24})
        assert plan.steps == (24,) * 10

    def test_zero_lead(self):
        assert schedule_steps(0, {24}).steps == ()

    def test_multi_horizon_greedy_is_minimal(self):
        plan = schedule_steps(31, {24, 6, 3, 1})
        assert plan.steps == (24, 6, 1)
        assert len(plan.steps) == min_steps_exhaustive(31, {24, 6, 3, 1})

    def test_sums_to_lead_and_non_increasing(self):
        for lead in range(0, 121, 3):
            plan = schedule_steps(lead, {24, 6, 3})
            assert sum(plan.steps) == lead
            assert list(plan.steps) == sorted(plan.steps, reverse=True)

    def test_unreachable_lead(self):
        with pytest.raises(UnreachableLeadError):
            schedule_steps(25, {24, 6})

    def test_greedy_dead_end_is_an_error(self):
        # gcd(5,3)=1 divides 4, yet no sum of 5s and 3s makes 4
        with pytest.raises(UnreachableLeadError):
            schedule_steps(4, {5, 3})

    @pytest.mark.parametrize("lead,horizons,steps", [
        (8, {6, 4}, (4, 4)), (36, {24, 18}, (18, 18)), (6, {5, 3}, (3, 3)),
        (11, {5, 3}, (5, 3, 3)), (31, {24, 6, 3, 1}, (24, 6, 1)),
    ])
    def test_minimal_where_greedy_is_not(self, lead, horizons, steps):
        assert schedule_steps(lead, horizons).steps == steps

    def test_negative_lead(self):
        with pytest.raises(ValueError):
            schedule_steps(-6, {6})

    @settings(max_examples=200, deadline=None)
    @given(lead=st.integers(0, 60),
           horizons=st.sets(st.integers(1, 30), min_size=1, max_size=4))
    def test_minimal_against_exhaustive_oracle(self, lead, horizons):
        best = min_steps_exhaustive(lead, horizons)
        try:
            steps = schedule_steps(lead, horizons).steps
        except UnreachableLeadError:
            assert best is None
            return
        assert sum(steps) == lead and set(steps) <= horizons
        assert list(steps) == sorted(steps, reverse=True)
        if best is None:
            assert len(steps) > 8   # beyond the oracle's search cap
            return
        assert len(steps) == best
        # ties go to the larger first step
        for h in horizons:
            if steps and steps[0] < h <= lead:
                assert min_steps_exhaustive(lead - h, horizons) != best - 1


class TestPlanForLeads:
    def test_every_lead_is_on_the_plan(self):
        plan = plan_for_leads([48, 6, 24, 24], {24, 6})
        assert plan.steps == (6, 6, 6, 6, 24)
        assert {6, 24, 48} <= set(itertools.accumulate(plan.steps))

    def test_segments_use_minimal_steps(self):
        assert plan_for_leads([8, 16], {6, 4}).steps == (4, 4, 4, 4)

    def test_unreachable_segment(self):
        with pytest.raises(UnreachableLeadError):
            plan_for_leads([24, 25], {24, 6})

    def test_no_leads(self):
        assert plan_for_leads([], {24}).steps == ()


class TestBuiltinStep:
    def test_persistence_preserves_values(self, small_state):
        be = BackendSpec(builtin="persistence")
        out = builtin_step(small_state, be, 24)
        assert np.array_equal(out.data, small_state.data)
        assert (out.valid_time - small_state.valid_time).total_seconds() == 24 * 3600

    def test_full_cycle_advection_is_identity(self, small_state):
        before = small_state.data.copy()
        be = BackendSpec(builtin="advection",
                         advection_cells=small_state.grid.nlon)
        out = builtin_step(small_state, be, 24)
        assert np.array_equal(out.data, before)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_advection_is_bitwise_np_roll(self, data):
        nlon = data.draw(st.integers(1, 40), label="nlon")
        nlat = data.draw(st.sampled_from([1, 2, 5]), label="nlat")
        planes = data.draw(st.sampled_from([1, 2, N_CHANNELS]), label="planes")
        cells = data.draw(st.one_of(
            st.sampled_from([0, 1, -1, nlon - 1, nlon, 3 * nlon + 2, -(10 ** 12) - 1]),
            st.integers(-3 * nlon, 3 * nlon), st.integers(-(10 ** 15), -1)),
            label="cells")
        grid = GridSpec(nlat=nlat, nlon=nlon, dlat=1.0, dlon=9.0)
        # every value distinct, so a column out of place shows
        values = np.arange(planes * nlat * nlon, dtype=np.float32).reshape(
            planes, nlat, nlon)
        state = StateSet(valid_time=default_time(), source_label="x", grid=grid,
                         data=values.copy(), channels=CHANNELS[:planes])
        out = builtin_step(state, BackendSpec(builtin="advection",
                                              advection_cells=cells), 6)
        assert out.data is state.data   # moved in place
        assert np.array_equal(out.data.view(np.uint32),
                              np.roll(values, cells, axis=2).view(np.uint32))
        assert out.valid_time - state.valid_time == timedelta(hours=6)

    def test_advection_moves_east_by_one(self, small_grid):
        data = np.zeros((69,) + small_grid.shape, np.float32)
        data[0, 2, 0] = 1.0
        s = random_state(small_grid, seed=0).replace(data=data)
        out = builtin_step(s, BackendSpec(builtin="advection", advection_cells=1), 24)
        assert out.data[0, 2, 1] == 1.0
        assert out.data[0, 2, 0] == 0.0


class TestRunRollout:
    def test_persistence_series_bitwise(self, small_state):
        series = rollout_series(small_state, BackendSpec(builtin="persistence"),
                                range(24, 241, 24))
        assert [lead for lead, _ in series] == list(range(24, 241, 24))
        for lead, s in series:
            assert np.array_equal(s.data, small_state.data)
            assert s.source_label == small_state.source_label
            assert (s.valid_time - small_state.valid_time).total_seconds() == lead * 3600

    def test_empty_plan(self, small_state):
        series = rollout_series(small_state, BackendSpec(), [])
        assert series == []

    def test_advection_returns_after_full_cycle(self, small_grid):
        s = random_state(small_grid, seed=1)
        k, nlon = 4, small_grid.nlon
        steps = nlon // k  # 4 steps of 4 cells on 16 columns
        be = BackendSpec(builtin="advection", advection_cells=k)
        before = s.data.copy()
        series = rollout_series(s, be, [24 * steps])
        assert np.array_equal(series[-1][1].data, before)

    def test_composition_two_steps_equal_double_shift(self, small_state):
        # each rollout moves its IC's planes: each gets a copy of its own
        be1 = BackendSpec(builtin="advection", advection_cells=3)
        two = rollout_series(small_state.replace(data=small_state.data.copy()),
                             be1, [48])[0][1]
        be2 = BackendSpec(builtin="advection", advection_cells=6, horizons={48})
        one = rollout_series(small_state.replace(data=small_state.data.copy()),
                             be2, [48])[0][1]
        assert np.array_equal(two.data, one.data)
        assert np.array_equal(one.data, np.roll(small_state.data, 6, axis=2))

    def test_advection_steps_the_ic_in_place(self, coarse_grid):
        # 9 report planes on 73x144: a plane is 41 KiB, the state 370 KiB
        channels = DEFAULT_REPORT_CHANNELS
        ic = make_state(coarse_grid, seed=2).subset(channels)
        expected, ic_data = ic.data.copy(), ic.data
        be = BackendSpec(builtin="advection", advection_cells=2, horizons={6})
        arrays = []
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            states = run_rollout(ic, be, range(0, 61, 6), channels=channels)
            del ic
            for lead, state in states:
                arrays.append((lead, state.data))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert [lead for lead, _ in arrays] == list(range(0, 61, 6))
        assert all(data is ic_data for _, data in arrays[1:])
        assert peak < ic_data[0].nbytes
        assert np.array_equal(ic_data, np.roll(expected, 20, axis=2))

    def test_emit_lead_zero(self, small_state):
        series = rollout_series(small_state, BackendSpec(), [0, 24])
        assert [lead for lead, _ in series] == [0, 24]
        assert series[0][1].valid_time == small_state.valid_time
        assert np.array_equal(series[0][1].data, small_state.data)

    def test_emits_in_increasing_lead_order(self, small_state):
        series = list(run_rollout(small_state, BackendSpec(horizons={24, 6}),
                                  [72, 0, 30, 6, 30]))
        assert [lead for lead, _ in series] == [0, 6, 30, 72]
        assert series[0][1] is small_state

    def test_unreachable_lead_raised_before_any_step_or_emit(self, small_state,
                                                             monkeypatch):
        steps = []
        monkeypatch.setattr(rollout, "builtin_step", lambda *a: steps.append(a))
        with pytest.raises(UnreachableLeadError):
            next(run_rollout(small_state, BackendSpec(), [0, 24, 36]))
        assert steps == []

    @pytest.mark.parametrize("builtin", ["persistence", "advection"])
    def test_inf_in_the_ic_names_its_plane(self, small_state, builtin):
        # the IC holds exactly the default channels: still the IC's fault
        data = small_state.data.copy()
        data[CHANNELS.index((Var.T, 850)), 3, 5] = np.inf
        with pytest.raises(RolloutError, match=r"^the IC at lead 0 holds NaN/Inf: "
                                               "plane T850 contains NaN/Inf$"):
            rollout_series(small_state.replace(data=data),
                           BackendSpec(builtin=builtin), [24])

    @pytest.mark.parametrize("form, first", [("path", "V10"), ("state", "V10"),
                                             ("reordered", "T850")])
    def test_ic_with_two_bad_planes_names_the_first(self, tmp_path, small_state, form,
                                                    first):
        # as a path's read names the first bad plane in the file, a state's
        # check names the first in the state's own channel order
        data = small_state.data.copy()
        data[CHANNELS.index((Var.T, 850)), 3, 5] = np.nan
        data[CHANNELS.index((Var.V10, 0)), 8, 15] = -np.inf
        ic = small_state.replace(data=data)
        if form == "path":
            write_archive(ic, str(tmp_path / "ic.nws"))
            ic = tmp_path / "ic.nws"
        elif form == "reordered":
            ic = ic.subset([(Var.T, 850), (Var.Z, 500), (Var.V10, 0)])
        with pytest.raises(RolloutError, match=r"^the IC at lead 0 holds NaN/Inf: "
                                               f"plane {first} contains NaN/Inf$"):
            next(run_rollout(ic, BackendSpec(), [24], channels=[(Var.Z, 500)]))

    @pytest.mark.parametrize("builtin", ["persistence", "advection"])
    def test_nan_ic_at_lead_0_raised_before_any_emit(self, small_state, builtin):
        data = small_state.data.copy()
        data[CHANNELS.index((Var.Q, 500)), 0, 0] = np.nan
        with pytest.raises(RolloutError, match="^the IC at lead 0 holds NaN/Inf: "
                                               "plane Q500 contains NaN/Inf$"):
            next(run_rollout(small_state.replace(data=data), BackendSpec(builtin=builtin),
                             [0, 24]))

    def test_off_plan_emit_rejected(self, small_state):
        with pytest.raises(UnreachableLeadError):
            rollout_series(small_state, BackendSpec(), [12])

    @pytest.mark.parametrize("kind", ["persistence", "advection", "external"])
    def test_ic_released_after_the_first_step(self, tmp_path, small_grid,
                                              monkeypatch, kind):
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: small_grid))
        if kind == "external":
            be = write_copy_backend(tmp_path / "backend.py")
        else:
            be = BackendSpec(builtin=kind, horizons={24})
        ics = [random_state(small_grid, seed=3)]   # pop() hands over the only reference
        ic = weakref.ref(ics[0])
        alive = []
        for lead, state in run_rollout(ics.pop(), be, [0, 24, 48]):
            alive.append((lead, ic() is not None))
            del state   # held here, the IC would outlive step 1
        assert alive == [(0, True), (24, False), (48, False)]


class TestBuiltinLoop:
    """A builtin rollout moves the run's own state, step by step, on no file."""

    @pytest.mark.parametrize("source", ["state", "path"])
    def test_pauses_at_every_lead_and_steps_as_np_roll(self, tmp_path, small_state,
                                                       monkeypatch, source):
        def no_temp_dir(*args, **kwargs):
            raise AssertionError("a builtin rollout opened a temporary directory")

        expected, t0 = small_state.data.copy(), small_state.valid_time
        ic = small_state
        if source == "path":
            ic = tmp_path / "ic.nws"
            write_archive(small_state, str(ic))
        monkeypatch.setattr(tempfile, "TemporaryDirectory", no_temp_dir)
        be = BackendSpec(builtin="advection", advection_cells=3, horizons={24, 6})
        # steps (6, 24, 24, 6, 6, 6): the steps taken by each lead
        stepped = {0: 0, 6: 1, 30: 2, 72: 6}
        states = run_rollout(ic, be, [72, 0, 30, 6])
        for lead, steps in stepped.items():
            reached, state = next(states)
            assert reached == lead
            assert state.valid_time == t0 + timedelta(hours=lead)
            assert state.source_label == small_state.source_label
            assert np.array_equal(state.data, np.roll(expected, 3 * steps, axis=2))
            assert states.send(True) is None   # a pause, and next() goes on
        assert list(states) == []


def write_backend_script(path, body):
    script = textwrap.dedent(f"""\
        #!{sys.executable}
        import argparse
        from datetime import timedelta
        import numpy as np
        from nwpeval.archive import read_archive, write_archive

        p = argparse.ArgumentParser()
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--step-hours", type=int, required=True)
        a = p.parse_args()
        state = read_archive(a.infile)
        {body}
        write_archive(state, a.out)
        """)
    path.write_text(script)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)


def write_copy_backend(path, body=""):
    """A backend that copies --in to --out (persistence that leaves the
    valid time as it is), then runs one line of body."""
    path.write_text(textwrap.dedent(f"""\
        #!{sys.executable}
        import argparse, json, os, random, shutil, struct
        p = argparse.ArgumentParser()
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--step-hours", type=int, required=True)
        a = p.parse_args()
        shutil.copyfile(a.infile, a.out)
        {body}
        """))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return BackendSpec(kind="external-command", command=f"{sys.executable} {path}",
                       horizons={24})


class TestExternalBackend:
    """Exercises the subprocess protocol the real inference wrapper uses."""

    @pytest.fixture
    def canonical_like_state(self):
        # external backends demand the canonical grid; use zeros to keep it cheap
        g = GridSpec.canonical()
        data = np.zeros((69, g.nlat, g.nlon), np.float32)
        from nwpeval.synthetic import default_time
        from nwpeval.grids import StateSet
        return StateSet(valid_time=default_time(), source_label="ext",
                        grid=g, data=data)

    def test_external_round_trip(self, tmp_path, canonical_like_state):
        script = tmp_path / "backend.py"
        write_backend_script(
            script,
            "state = state.replace(data=state.data + np.float32(1.0), "
            "valid_time=state.valid_time + timedelta(hours=a.step_hours))")
        be = BackendSpec(kind="external-command",
                         command=f"{sys.executable} {script}", horizons={24})
        series = rollout_series(canonical_like_state, be, [24, 48])
        assert series[0][1].data[0, 0, 0] == 1.0
        assert series[1][1].data[0, 0, 0] == 2.0
        assert (series[1][1].valid_time
                - canonical_like_state.valid_time).total_seconds() == 48 * 3600

    def test_external_requires_canonical_grid(self, tmp_path, small_state):
        be = BackendSpec(kind="external-command", command="true", horizons={24})
        with pytest.raises(RolloutError):
            rollout_series(small_state, be, [24])

    def test_off_grid_ic_raised_before_any_step_or_emit(self, tmp_path, small_state):
        calls = tmp_path / "calls"
        be = write_copy_backend(tmp_path / "backend.py",
                                f"open({str(calls)!r}, 'a').write('step')")
        with pytest.raises(RolloutError, match="canonical"):
            next(run_rollout(small_state, be, [0, 24]))
        assert not calls.exists()

    def test_nonzero_exit_names_step(self, tmp_path, canonical_like_state):
        script = tmp_path / "backend.py"
        script.write_text(f"#!{sys.executable}\nimport sys\n"
                          "print('boom', file=sys.stderr); sys.exit(3)\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        be = BackendSpec(kind="external-command",
                         command=f"{sys.executable} {script}", horizons={24})
        with pytest.raises(RolloutError, match="step 1 .*exit 3; stderr: boom"):
            rollout_series(canonical_like_state, be, [24])

    def test_malformed_output_archive(self, tmp_path, canonical_like_state):
        script = tmp_path / "backend.py"
        script.write_text(textwrap.dedent(f"""\
            #!{sys.executable}
            import argparse
            p = argparse.ArgumentParser()
            p.add_argument("--in", dest="i"); p.add_argument("--out")
            p.add_argument("--step-hours")
            a = p.parse_args()
            open(a.out, "wb").write(b"garbage")
            """))
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        be = BackendSpec(kind="external-command",
                         command=f"{sys.executable} {script}", horizons={24})
        with pytest.raises(RolloutError, match="malformed"):
            rollout_series(canonical_like_state, be, [24])

    def test_nan_output_rejected(self, tmp_path, canonical_like_state):
        script = tmp_path / "backend.py"
        write_backend_script(
            script,
            "d = state.data.copy(); d[0, 0, 0] = np.nan; state = state.replace(data=d)")
        be = BackendSpec(kind="external-command",
                         command=f"{sys.executable} {script}", horizons={24})
        with pytest.raises(RolloutError, match="NaN"):
            rollout_series(canonical_like_state, be, [24])

    def test_steps_chain_their_files(self, tmp_path, canonical_like_state):
        # each step logs [--in, --out, number of .nws files beside --out]
        calls = tmp_path / "calls.jsonl"
        be = write_copy_backend(
            tmp_path / "backend.py",
            f"open({str(calls)!r}, 'a').write(json.dumps([a.infile, a.out, "
            "sum(f.endswith('.nws') for f in os.listdir(os.path.dirname(a.out)))]) + '\\n')")
        series = rollout_series(canonical_like_state, be, [24, 48, 72])
        assert [lead for lead, _ in series] == [24, 48, 72]
        steps = [json.loads(line) for line in calls.read_text().splitlines()]
        assert len(steps) == 3
        for (_, prev_out, _), (cur_in, _, _) in zip(steps, steps[1:]):
            assert cur_in == prev_out
        assert max(files for _, _, files in steps) == 2
        assert not os.path.exists(os.path.dirname(steps[0][0]))

    def test_bytes_after_the_output_archive(self, tmp_path, canonical_like_state):
        be = write_copy_backend(tmp_path / "backend.py",
                                "open(a.out, 'ab').write(b'garbage')")
        with pytest.raises(RolloutError, match="malformed"):
            rollout_series(canonical_like_state, be, [24])


class TestLabels:
    """run_rollout alone names and dates the states it yields."""

    @pytest.mark.parametrize("label", ["run", None])
    @pytest.mark.parametrize("source", ["state", "path"])
    @pytest.mark.parametrize("kind", ["advection", "external"])
    def test_every_state_is_labelled_and_valid_at_init_plus_lead(
            self, tmp_path, small_grid, small_state, monkeypatch, kind, source, label):
        # the copy backend leaves its input's header, the IC's time and
        # label, on every step's output
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: small_grid))
        if kind == "external":
            be = write_copy_backend(tmp_path / "backend.py")
        else:
            be = BackendSpec(builtin="advection", horizons={24})
        t0, ic_label = small_state.valid_time, small_state.source_label
        ic = small_state
        if source == "path":
            ic = tmp_path / "ic.nws"
            write_archive(small_state, str(ic))
        seen = [(lead, state.source_label, state.valid_time)
                for lead, state in run_rollout(ic, be, [0, 24, 48], label=label)]
        assert seen == [(lead, label or ic_label, t0 + timedelta(hours=lead))
                        for lead in (0, 24, 48)]


class TestBackendSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BackendSpec(kind="magic")

    def test_external_needs_command(self):
        with pytest.raises(ValueError):
            BackendSpec(kind="external-command")

    @pytest.mark.parametrize("command", ["", "   "])
    def test_blank_command_rejected(self, command):
        with pytest.raises(ValueError, match="requires a command"):
            BackendSpec(kind="external-command", command=command)

    def test_command_must_be_found(self, tmp_path):
        BackendSpec(kind="external-command", command=f"{sys.executable} -c 1").check_command()
        BackendSpec().check_command()   # builtins have no command
        for missing in ("no-such-nwpeval-backend --flag", str(tmp_path / "backend")):
            with pytest.raises(ValueError, match="not an executable"):
                BackendSpec(kind="external-command", command=missing).check_command()

    def test_empty_horizons(self):
        with pytest.raises(ValueError):
            BackendSpec(horizons=frozenset())

    def test_a_fractional_horizon_is_not_cut(self):
        # int() would make 24.9 a 24 h step
        with pytest.raises(ValueError, match="horizons must be a whole number, got 24.9"):
            BackendSpec(horizons=[24.9])
        assert BackendSpec(horizons=[24.0, "6"]).horizons == {24, 6}


@pytest.fixture
def small_ic(small_grid, monkeypatch):
    """A random IC on the 9x16 grid, made the grid external backends require."""
    monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: small_grid))
    return random_state(small_grid, seed=11)


def step_script(path, step1="", step2=""):
    """A copy backend that runs `step1` or `step2` (lines of Python, with
    `a` the parsed arguments) after copying, according to the step."""
    return write_copy_backend(path, textwrap.indent(textwrap.dedent(f"""\
        if a.infile.endswith("step000.nws"):
            {step1 or "pass"}
        else:
            {step2 or "pass"}
        """), " " * 8).strip())


def recorded_starts(monkeypatch):
    """The Popen of every backend process run_rollout starts, in order."""
    procs = []
    start = rollout._start_backend
    monkeypatch.setattr(rollout, "_start_backend",
                        lambda *a: procs.append(start(*a)) or procs[-1])
    return procs


class TestPipelinedSteps:
    """Step n+1 runs while step n is read, checked and yielded."""

    def test_next_step_runs_during_emit(self, tmp_path, small_ic):
        marker = tmp_path / "step2-started"
        be = step_script(tmp_path / "backend.py",
                         step2=f"open({str(marker)!r}, 'w').close()")
        seen = []
        for lead, _ in run_rollout(small_ic, be, [24, 48]):
            deadline = time.monotonic() + 30
            while lead == 24 and not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            seen.append((lead, marker.exists()))
        assert seen == [(24, True), (48, True)]

    @pytest.mark.parametrize("failure", ["nan", "malformed", "grid", "emit"])
    def test_failure_kills_and_reaps_the_running_step(self, tmp_path, small_ic,
                                                      monkeypatch, failure):
        # step 1 goes wrong; step 2 would take a minute unless killed
        step1 = {
            "nan": "f = open(a.out, 'r+b'); f.seek(-4, 2); "
                   "f.write(struct.pack('<f', float('nan'))); f.close()",
            "malformed": "open(a.out, 'wb').write(b'garbage')",
            "grid": "from nwpeval.archive import read_archive, write_archive; "
                    "from nwpeval.grids import GridSpec; s = read_archive(a.infile); "
                    "g = GridSpec(nlat=9, nlon=8, dlat=22.5, dlon=45.0); "
                    "write_archive(s.replace(grid=g, data=s.data[:, :, ::2]), a.out)",
            "emit": "",
        }[failure]
        be = step_script(tmp_path / "backend.py", step1=step1,
                         step2="import time; time.sleep(60)")
        procs = recorded_starts(monkeypatch)
        t0 = time.monotonic()
        with pytest.raises(KeyError if failure == "emit" else RolloutError,
                           match={"nan": "NaN/Inf at step 1 .*V50", "malformed": "malformed",
                                  "grid": "changed the grid", "emit": "emit failed"}[failure]):
            with closing(run_rollout(small_ic, be, [24, 48])) as states:
                for _, state in states:   # a reader read whole, as nwpeval rollout does
                    state.subset(CHANNELS)
                    raise KeyError("emit failed")
        assert time.monotonic() - t0 < 30
        assert [p.returncode for p in procs] == [0, -signal.SIGKILL]
        step1_in = procs[0].args[procs[0].args.index("--in") + 1]
        assert not os.path.exists(os.path.dirname(step1_in))   # temp dir removed

    def test_closing_a_paused_rollout_kills_the_step_started_ahead(
            self, tmp_path, small_ic, monkeypatch):
        # step 2 would take a minute; closing the generator paused at lead 24
        # kills and reaps it, and removes the temp dir
        be = step_script(tmp_path / "backend.py", step2="import time; time.sleep(60)")
        procs = recorded_starts(monkeypatch)
        states = run_rollout(small_ic, be, [24, 48])
        assert next(states)[0] == 24
        assert len(procs) == 2
        t0 = time.monotonic()
        states.close()
        assert time.monotonic() - t0 < 30
        assert [p.returncode for p in procs] == [0, -signal.SIGKILL]
        step1_in = procs[0].args[procs[0].args.index("--in") + 1]
        assert not os.path.exists(os.path.dirname(step1_in))

    def test_sending_true_pauses_with_no_step_running(self, tmp_path, small_ic,
                                                      monkeypatch):
        # at each yield, send(True) returns None once the step started ahead
        # has exited; the next next() goes on from there
        be = step_script(tmp_path / "backend.py", step2="import time; time.sleep(0.5)")
        procs = recorded_starts(monkeypatch)
        states = run_rollout(small_ic, be, [0, 24, 48])
        assert next(states)[0] == 0
        assert states.send(True) is None
        assert procs == []
        assert next(states)[0] == 24
        assert len(procs) == 2
        assert states.send(True) is None
        assert [p.poll() for p in procs] == [0, 0]
        assert next(states)[0] == 48
        assert states.send(True) is None
        assert list(states) == []

    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize("form", ["path", "state"])
    def test_lead_0_alone_starts_no_step(self, tmp_path, small_ic, monkeypatch, form, nan):
        # the IC's `channels`, every plane checked for NaN/Inf and the state
        # labelled; no backend process starts and no temporary directory is made
        data = small_ic.data.copy()
        if nan:
            data[CHANNELS.index((Var.T, 850)), 4, 7] = np.nan
        ic = state = small_ic.replace(data=data)
        if form == "path":
            ic = tmp_path / "ic.nws"
            write_archive(state, ic)
        procs = recorded_starts(monkeypatch)
        dirs = []
        temporary = tempfile.TemporaryDirectory
        monkeypatch.setattr(tempfile, "TemporaryDirectory",
                            lambda *a, **k: dirs.append(k) or temporary(*a, **k))
        channels = [(Var.Z, 500), (Var.MSLP, 0)]
        states = run_rollout(ic, write_copy_backend(tmp_path / "backend.py"), [0],
                             channels=channels, label="run")
        if nan:
            with pytest.raises(RolloutError, match="^the IC at lead 0 holds NaN/Inf: "
                                                   "plane T850 contains NaN/Inf$"):
                next(states)
        else:
            [(lead, out)] = list(states)
            assert (lead, out.channels, out.source_label) == (0, tuple(channels), "run")
            assert out.valid_time == small_ic.valid_time
            for ch in channels:
                assert np.array_equal(out.channel(*ch), small_ic.channel(*ch))
        assert procs == [] and dirs == []

    def test_emitted_states_hold_exactly_the_channels(self, tmp_path, small_ic):
        channels = [(Var.Z, 500), (Var.MSLP, 0), (Var.T, 850)]
        be = write_copy_backend(tmp_path / "backend.py")
        series = rollout_series(small_ic, be, [0, 24, 48], channels=channels)
        assert [lead for lead, _ in series] == [0, 24, 48]
        for lead, state in series:
            assert state.channels == tuple(channels)
            for ch in channels:
                assert np.array_equal(state.channel(*ch), small_ic.channel(*ch))

    @pytest.mark.parametrize("source", ["state", "path"])
    @pytest.mark.parametrize("builtin", ["persistence", "advection"])
    def test_builtin_states_hold_the_channels(self, tmp_path, small_state, source,
                                              builtin):
        channels = [(Var.Z, 500), (Var.MSLP, 0), (Var.T, 850)]
        ic = small_state
        if source == "path":
            ic = tmp_path / "ic.nws"
            write_archive(small_state, str(ic))
        be = BackendSpec(builtin=builtin, horizons={24})
        series = rollout_series(ic, be, [0, 24, 48], channels=channels)
        assert [lead for lead, _ in series] == [0, 24, 48]
        for lead, state in series:
            assert state.channels == tuple(channels)
            cells = 0 if builtin == "persistence" else lead // 24
            for ch in channels:
                assert np.array_equal(state.channel(*ch),
                                      np.roll(small_state.channel(*ch), cells, axis=1))

    @pytest.mark.parametrize("source", ["state", "path", "exact"])
    def test_builtin_checks_every_plane_of_the_ic(self, tmp_path, small_state, source,
                                                  monkeypatch):
        # a NaN in any plane of the IC, stepped or not, fails the run before
        # any step or emit, as a fault of the IC and not of the backend;
        # lead 0 is not asked for
        data = small_state.data.copy()
        data[CHANNELS.index((Var.T, 850)), 4, 7] = np.nan
        ic = small_state.replace(data=data)
        channels = [(Var.Z, 500)]
        if source == "path":
            write_archive(ic, str(tmp_path / "ic.nws"))
            ic = tmp_path / "ic.nws"
        elif source == "exact":   # a state of exactly `channels`
            channels = [(Var.Z, 500), (Var.T, 850)]
            ic = ic.subset(channels)
        steps = []
        monkeypatch.setattr(rollout, "builtin_step", lambda *a: steps.append(a))
        for builtin in ("persistence", "advection"):
            with pytest.raises(RolloutError, match="^the IC at lead 0 holds NaN/Inf: "
                                                   ".*T850 contains NaN/Inf$"):
                next(run_rollout(ic, BackendSpec(builtin=builtin), [24], channels=channels))
        assert steps == []

    @pytest.mark.parametrize("stderr", [b"\xff\xfe", b"x" * (1 << 20) + b"\xff\xfe"],
                             ids=["non-utf8", "chatty"])
    def test_backend_output_never_fails_a_good_step(self, tmp_path, small_ic, stderr):
        # 1 MiB is more than a pipe holds: a backend writing to an unread
        # pipe would block before exiting
        be = write_copy_backend(tmp_path / "backend.py",
                                f"import sys; sys.stderr.buffer.write({stderr!r})")
        assert [lead for lead, _ in rollout_series(small_ic, be, [24, 48])] == [24, 48]

    def test_failing_backend_error_carries_replaced_stderr(self, tmp_path, small_ic):
        be = write_copy_backend(tmp_path / "backend.py",
                                "import sys; sys.stderr.buffer.write(b'bad \\xff\\n'); "
                                "sys.exit(4)")
        with pytest.raises(RolloutError, match="step 1 .*exit 4; stderr: bad \ufffd$"):
            rollout_series(small_ic, be, [24])

    def test_unstartable_backend_is_a_rollout_error(self, tmp_path, small_ic):
        script = tmp_path / "backend.py"
        script.write_text("#!/bin/sh\n")   # not executable
        be = BackendSpec(kind="external-command", command=str(script), horizons={24})
        with pytest.raises(RolloutError, match="failed to start at step 1"):
            rollout_series(small_ic, be, [24])

    def test_cli_writes_whole_forecasts(self, tmp_path, small_ic, capsys, monkeypatch):
        from nwpeval.cli import main
        src = tmp_path / "ic.nws"
        write_archive(small_ic, str(src))
        before = src.read_bytes()
        be = write_copy_backend(tmp_path / "backend.py")
        procs = recorded_starts(monkeypatch)
        assert main(["rollout", "--in", str(src), "--out-dir", str(tmp_path / "fc"),
                     "--lead", "48", "--backend", f"cmd:{be.command}",
                     "--verify-determinism"]) == 0
        # --in goes to step 1, and to its repeat after the rollout, as it is,
        # and is left as it was
        assert [in_arg(p) for p in procs[::2]] == [str(src)] * 2 and len(procs) == 3
        assert src.read_bytes() == before
        for lead in (24, 48):
            expected = small_ic.replace(
                valid_time=small_ic.valid_time + timedelta(hours=lead))
            written = (tmp_path / "fc" / f"forecast_{lead:03d}h.nws").read_bytes()
            assert written == archive_bytes(expected)

    def test_cli_writes_whole_advected_forecasts(self, tmp_path, small_state):
        from nwpeval.cli import main
        src = tmp_path / "ic.nws"
        write_archive(small_state, str(src))
        assert main(["rollout", "--in", str(src), "--out-dir", str(tmp_path / "fc"),
                     "--lead", "48", "--backend", "advection",
                     "--advection-cells", "2"]) == 0
        for lead in (24, 48):
            expected = small_state.replace(
                valid_time=small_state.valid_time + timedelta(hours=lead),
                data=np.roll(small_state.data, 2 * lead // 24, axis=2))
            written = (tmp_path / "fc" / f"forecast_{lead:03d}h.nws").read_bytes()
            assert written == archive_bytes(expected)

    def test_cli_never_reads_a_step_output_whole(self, tmp_path, monkeypatch):
        # one 91x180 state is 4.3 MiB, one plane 64 KiB: nwpeval rollout
        # reads each step's output a plane at a time as it writes it, and
        # step 1 reads --in where it is
        from nwpeval.cli import main
        grid = GridSpec(nlat=91, nlon=180, lat_start=90.0, dlat=2.0,
                        lon_start=0.0, dlon=2.0)
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: grid))
        ic = random_state(grid, seed=9)
        write_archive(ic, str(tmp_path / "ic.nws"))
        be = write_copy_backend(tmp_path / "backend.py")
        tracemalloc.start()
        try:
            assert main(["rollout", "--in", str(tmp_path / "ic.nws"), "--out-dir",
                         str(tmp_path / "fc"), "--lead", "48",
                         "--backend", f"cmd:{be.command}"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for lead in (24, 48):
            written = (tmp_path / "fc" / f"forecast_{lead:03d}h.nws").read_bytes()
            assert written == archive_bytes(
                ic.replace(valid_time=ic.valid_time + timedelta(hours=lead)))
        # a step output read whole would make this at least 1 state
        assert peak < 0.5 * N_CHANNELS * grid.nlat * grid.nlon * 4

    def test_cli_fails_on_nan_in_a_plane_no_scorer_reads(self, tmp_path, small_ic, capsys):
        # nwpeval rollout checks every plane of a step's output as it writes
        # it, and removes the file a bad plane stops: T850 is no report channel
        from nwpeval.cli import main
        src = tmp_path / "ic.nws"
        write_archive(small_ic, str(src))
        from_end = (N_CHANNELS - CHANNELS.index((Var.T, 850))) * small_ic.data[0].nbytes
        be = write_copy_backend(tmp_path / "backend.py",   # at step 2
                                f"if a.infile != {str(src)!r}: f = open(a.out, 'r+b'); "
                                f"f.seek(-{from_end}, 2); "
                                "f.write(struct.pack('<f', float('nan'))); f.close()")
        fc = tmp_path / "fc"
        assert main(["rollout", "--in", str(src), "--out-dir", str(fc), "--lead", "48",
                     "--backend", f"cmd:{be.command}"]) == 1
        assert ("NaN/Inf at step 2 (+24h): plane T850 contains NaN/Inf"
                in capsys.readouterr().err)
        assert sorted(p.name for p in fc.iterdir()) == ["forecast_024h.nws"]


class TestVerifyDeterminism:
    """nwpeval rollout --verify-determinism runs step 1 again from --in once
    the rollout is done, and compares the SHA-256 of the two outputs."""

    def rollout(self, tmp_path, backend, out, emit_every="24", verify=True):
        from nwpeval.cli import main
        return main(["rollout", "--in", str(tmp_path / "ic.nws"), "--out-dir",
                     str(tmp_path / out), "--lead", "48", "--emit-every", emit_every,
                     "--backend", backend] + ["--verify-determinism"] * verify)

    def forecasts(self, path):
        return {p.name: p.read_bytes() for p in path.iterdir()}

    @pytest.mark.parametrize("emit_every", ["24", "48"], ids=["step1-emitted", "not"])
    def test_one_more_step_and_the_same_forecasts(self, tmp_path, small_ic, monkeypatch,
                                                  caplog, emit_every):
        write_archive(small_ic, str(tmp_path / "ic.nws"))
        be = f"cmd:{write_copy_backend(tmp_path / 'backend.py').command}"
        procs = recorded_starts(monkeypatch)
        assert self.rollout(tmp_path, be, "plain", emit_every, verify=False) == 0
        plain = len(procs)
        with caplog.at_level(logging.WARNING):
            assert self.rollout(tmp_path, be, "verified", emit_every) == 0
        assert not any("not deterministic" in r.message for r in caplog.records)
        assert len(procs) == 2 * plain + 1
        repeat = procs[-1]   # from --in, into a temporary directory of its own
        assert in_arg(repeat) == str(tmp_path / "ic.nws")
        out = repeat.args[repeat.args.index("--out") + 1]
        assert not os.path.exists(os.path.dirname(out))
        assert self.forecasts(tmp_path / "verified") == self.forecasts(tmp_path / "plain")
        assert len(self.forecasts(tmp_path / "plain")) == 48 // int(emit_every)

    def test_a_noisy_backend_is_warned_of_after_the_rollout(self, tmp_path, small_ic):
        # overwrites the last value of each output with a random one; the
        # warning comes once every forecast is written
        write_archive(small_ic, str(tmp_path / "ic.nws"))
        be = write_copy_backend(
            tmp_path / "backend.py",
            "f = open(a.out, 'r+b'); f.seek(-4, 2); "
            "f.write(struct.pack('<f', random.random())); f.close()")
        fc, warned = tmp_path / "fc", []

        class Note(logging.Handler):
            def emit(self, record):
                if record.levelno == logging.WARNING:
                    warned.append((record.getMessage(), sorted(os.listdir(fc))))

        note = Note()
        logging.getLogger("nwpeval").addHandler(note)
        try:
            assert self.rollout(tmp_path, f"cmd:{be.command}", "fc") == 0
        finally:
            logging.getLogger("nwpeval").removeHandler(note)
        ((msg, written),) = warned
        assert msg.startswith("backend is not deterministic: step-1 hashes ")
        h1, h2 = re.findall(r"\b[0-9a-f]{64}\b", msg)
        assert h1 != h2
        assert written == ["forecast_024h.nws", "forecast_048h.nws"]

    @pytest.mark.parametrize("builtin", ["persistence", "advection"])
    def test_a_builtin_is_not_repeated(self, tmp_path, small_state, monkeypatch, caplog,
                                       builtin):
        # a builtin writes no step file to hash
        write_archive(small_state, str(tmp_path / "ic.nws"))
        steps = []
        step = rollout.builtin_step
        monkeypatch.setattr(rollout, "builtin_step", lambda *a: steps.append(a) or step(*a))
        with caplog.at_level(logging.WARNING):
            assert self.rollout(tmp_path, builtin, "verified") == 0
        assert not caplog.records and len(steps) == 2
        assert self.rollout(tmp_path, builtin, "plain", verify=False) == 0
        assert self.forecasts(tmp_path / "verified") == self.forecasts(tmp_path / "plain")


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def in_arg(proc):
    return proc.args[proc.args.index("--in") + 1]


class TestICPath:
    """An IC archive handed over by path: step 1 reads the caller's file."""

    @pytest.fixture
    def ic_file(self, tmp_path, small_ic):
        path = tmp_path / "ic.nws"
        write_archive(small_ic, str(path))
        return path

    @pytest.mark.parametrize("case", ["ok", "step1-fails", "emit-raises"])
    def test_file_is_step1_input_and_left_as_it_was(self, tmp_path, ic_file,
                                                    monkeypatch, case):
        digest = sha256_of(ic_file)
        body = (f"import sys; sys.exit(3) if a.infile == {str(ic_file)!r} else None"
                if case == "step1-fails" else "")
        be = write_copy_backend(tmp_path / "backend.py", body)
        procs = recorded_starts(monkeypatch)
        leads = []
        raises = {"step1-fails": RolloutError, "emit-raises": KeyError}.get(case)
        with pytest.raises(raises) if raises else nullcontext():
            with closing(run_rollout(ic_file, be, [24, 48, 72])) as states:
                for lead, _ in states:
                    if case == "emit-raises":
                        raise KeyError("emit failed")
                    leads.append(lead)
        if raises is None:
            assert leads == [24, 48, 72]
        assert in_arg(procs[0]) == str(ic_file)
        assert sha256_of(ic_file) == digest

    def test_nan_in_a_plane_not_reported_fails_before_any_emit(self, tmp_path, small_ic,
                                                               monkeypatch):
        data = small_ic.data.copy()
        data[CHANNELS.index((Var.T, 850)), 4, 7] = np.nan
        path = tmp_path / "ic.nws"
        write_archive(small_ic.replace(data=data), str(path))
        procs = recorded_starts(monkeypatch)
        with pytest.raises(RolloutError, match="lead 0 holds NaN/Inf: plane T850"):
            next(run_rollout(path, write_copy_backend(tmp_path / "backend.py"), [0, 24],
                             channels=[(Var.Z, 500)]))
        assert procs == []

    @pytest.mark.parametrize("form, steps", [("path", 1), ("state", 0)],
                             ids=["path", "state"])
    def test_nan_the_backend_carries_is_the_ics_fault(self, tmp_path, monkeypatch,
                                                      form, steps):
        # lead 0 not asked for: the IC path's planes are checked only once
        # step 1's output has failed its check, a state's, in memory, before
        # it is written for step 1; either way the error names the IC's
        # plane in the same words
        grid = GridSpec(nlat=19, nlon=36, lat_start=90.0, dlat=10.0,
                        lon_start=0.0, dlon=10.0)
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: grid))
        data = random_state(grid, seed=9).data.copy()
        data[CHANNELS.index((Var.T, 850)), 4, 7] = np.nan
        ic = state = random_state(grid, seed=9).replace(data=data)
        if form == "path":
            ic = tmp_path / "ic.nws"
            write_archive(state, ic)
        be = write_copy_backend(tmp_path / "backend.py")
        procs = recorded_starts(monkeypatch)
        with pytest.raises(RolloutError, match="^the IC at lead 0 holds NaN/Inf: "
                                               "plane T850 contains NaN/Inf$"):
            list(run_rollout(ic, be, [24]))
        assert len(procs) == steps

    def test_truncated_file_fails_before_any_step(self, tmp_path, ic_file, monkeypatch):
        ic_file.write_bytes(ic_file.read_bytes()[:-5])
        procs = recorded_starts(monkeypatch)
        with pytest.raises(ArchiveError, match="payload truncated"):
            next(run_rollout(ic_file, write_copy_backend(tmp_path / "backend.py"), [24]))
        assert procs == []

    @pytest.mark.parametrize("kind", ["external", "advection"])
    def test_scores_match_the_ic_passed_as_a_state(self, tmp_path, small_grid,
                                                   monkeypatch, kind):
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: small_grid))
        ic = make_state(small_grid, seed=21, source_label="ifs")
        truth = make_state(small_grid, seed=22, source_label="era5")
        clim = make_climatology(small_grid)
        path = tmp_path / "ic.nws"
        write_archive(ic, str(path))
        if kind == "external":
            be = write_copy_backend(tmp_path / "backend.py")
        else:
            be = BackendSpec(builtin="advection", horizons={24})

        def scores(source):
            return [(lead, evaluate_run(lead, state, truth.replace(valid_time=state.valid_time),
                                        clim, DEFAULT_REGIONS))
                    for lead, state in run_rollout(source, be, [0, 24, 48],
                                                   channels=DEFAULT_REPORT_CHANNELS)]

        by_state, by_path = scores(ic), scores(path)
        assert [lead for lead, _ in by_path] == [0, 24, 48]
        assert by_path == by_state
        assert all(not errs and len(recs) == 9 * 2 * 2 for _, (recs, errs) in by_path)

    def test_path_ic_is_never_loaded(self, tmp_path, monkeypatch):
        # one 91x180 state is 4.3 MiB; the 9 report planes and the spare
        # plane a checked read uses are 0.62 MiB
        grid = GridSpec(nlat=91, nlon=180, lat_start=90.0, dlat=2.0,
                        lon_start=0.0, dlon=2.0)
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: grid))
        path = tmp_path / "ic.nws"
        write_archive(random_state(grid, seed=8), str(path))
        state_bytes = N_CHANNELS * grid.nlat * grid.nlon * 4
        be = write_copy_backend(tmp_path / "backend.py")
        tracemalloc.start()
        try:
            leads = [lead for lead, _ in run_rollout(path, be, [0, 24, 48],
                                                     channels=DEFAULT_REPORT_CHANNELS)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert leads == [0, 24, 48]
        # loading the IC would make this at least 1 state
        assert peak < 0.5 * state_bytes
