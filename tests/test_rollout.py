import hashlib
import itertools
import json
import logging
import os
import re
import signal
import stat
import sys
import textwrap
import time
import tracemalloc
import weakref
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwpeval import rollout
from nwpeval.archive import ArchiveError, archive_bytes, write_archive
from nwpeval.grids import CHANNELS, DEFAULT_REGIONS, N_CHANNELS, GridSpec, Var
from nwpeval.rollout import (BackendSpec, RolloutError, UnreachableLeadError,
                             builtin_step, plan_for_leads, rollout_states,
                             run_rollout, schedule_steps)
from nwpeval.synthetic import make_climatology, make_state
from nwpeval.verify import DEFAULT_REPORT_CHANNELS, evaluate_run
from tests.conftest import random_state


def rollout_series(ic, backend, leads, **kwargs):
    """The (lead, state) pairs run_rollout emits, in emit order."""
    series = []
    run_rollout(ic, backend, leads, lambda lead, state: series.append((lead, state)),
                **kwargs)
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
        be = BackendSpec(builtin="advection",
                         advection_cells=small_state.grid.nlon)
        out = builtin_step(small_state, be, 24)
        assert np.array_equal(out.data, small_state.data)

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
        series = rollout_series(s, be, [24 * steps])
        assert np.array_equal(series[-1][1].data, s.data)

    def test_composition_two_steps_equal_double_shift(self, small_state):
        be1 = BackendSpec(builtin="advection", advection_cells=3)
        two = rollout_series(small_state, be1, [48])[0][1]
        be2 = BackendSpec(builtin="advection", advection_cells=6, horizons={48})
        one = rollout_series(small_state, be2, [48])[0][1]
        assert np.array_equal(two.data, one.data)

    def test_emit_lead_zero(self, small_state):
        series = rollout_series(small_state, BackendSpec(), [0, 24])
        assert series[0] == (0, small_state)

    def test_emits_in_increasing_lead_order(self, small_state):
        series = []
        result = run_rollout(small_state, BackendSpec(horizons={24, 6}),
                             [72, 0, 30, 6, 30],
                             lambda lead, state: series.append((lead, state)))
        assert result is None
        assert [lead for lead, _ in series] == [0, 6, 30, 72]
        assert series[0][1] is small_state

    def test_unreachable_lead_raised_before_any_step_or_emit(self, small_state,
                                                             monkeypatch):
        steps, emitted = [], []
        monkeypatch.setattr(rollout, "builtin_step", lambda *a: steps.append(a))
        with pytest.raises(UnreachableLeadError):
            run_rollout(small_state, BackendSpec(), [0, 24, 36],
                        lambda *a: emitted.append(a))
        assert steps == [] and emitted == []

    @pytest.mark.parametrize("builtin", ["persistence", "advection"])
    def test_inf_in_the_ic_names_its_plane(self, small_state, builtin):
        # the IC holds exactly the default channels: still the IC's fault
        data = small_state.data.copy()
        data[CHANNELS.index((Var.T, 850)), 3, 5] = np.inf
        with pytest.raises(RolloutError, match=r"^the IC at lead 0 holds NaN/Inf: "
                                               "non-finite: T850 contains NaN/Inf$"):
            rollout_series(small_state.replace(data=data),
                           BackendSpec(builtin=builtin), [24])

    @pytest.mark.parametrize("builtin", ["persistence", "advection"])
    def test_nan_ic_at_lead_0_raised_before_any_emit(self, small_state, builtin):
        data = small_state.data.copy()
        data[CHANNELS.index((Var.Q, 500)), 0, 0] = np.nan
        emitted = []
        with pytest.raises(RolloutError, match="lead 0.*non-finite: Q500 contains NaN/Inf$"):
            run_rollout(small_state.replace(data=data), BackendSpec(builtin=builtin),
                        [0, 24], lambda *a: emitted.append(a))
        assert emitted == []

    def test_off_plan_emit_rejected(self, small_state):
        with pytest.raises(UnreachableLeadError):
            rollout_series(small_state, BackendSpec(), [12])

    def test_determinism_hashes(self, small_state, caplog):
        import logging
        with caplog.at_level(logging.WARNING):
            rollout_series(small_state, BackendSpec(), [24], verify_determinism=True)
        assert not any("not deterministic" in r.message for r in caplog.records)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="Python 3.10 keeps a call's arguments referenced by "
                               "the caller until it returns")
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
        run_rollout(ics.pop(), be, [0, 24, 48],
                    lambda lead, state: alive.append((lead, ic() is not None)))
        assert alive == [(0, True), (24, False), (48, False)]


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
        emitted = []
        with pytest.raises(RolloutError, match="canonical"):
            run_rollout(small_state, be, [0, 24], lambda *a: emitted.append(a))
        assert emitted == [] and not calls.exists()

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

    @pytest.mark.parametrize("verify", [False, True])
    def test_steps_chain_their_files(self, tmp_path, canonical_like_state, caplog,
                                     verify):
        # each step logs [--in, --out, number of .nws files beside --out]
        calls = tmp_path / "calls.jsonl"
        be = write_copy_backend(
            tmp_path / "backend.py",
            f"open({str(calls)!r}, 'a').write(json.dumps([a.infile, a.out, "
            "sum(f.endswith('.nws') for f in os.listdir(os.path.dirname(a.out)))]) + '\\n')")
        with caplog.at_level(logging.WARNING):
            series = rollout_series(canonical_like_state, be, [24, 48, 72],
                                    verify_determinism=verify)
        assert [lead for lead, _ in series] == [24, 48, 72]
        assert not any("not deterministic" in r.message for r in caplog.records)
        steps = [json.loads(line) for line in calls.read_text().splitlines()]
        if verify:
            repeat_in, repeat_out, repeat_files = steps.pop(1)
            assert repeat_in == steps[0][0] and repeat_out != steps[0][1]
            assert repeat_files == 3
        assert len(steps) == 3
        for (_, prev_out, _), (cur_in, _, _) in zip(steps, steps[1:]):
            assert cur_in == prev_out
        assert max(files for _, _, files in steps) == 2
        assert not os.path.exists(os.path.dirname(steps[0][0]))

    def test_noisy_backend_fails_determinism_check(self, tmp_path,
                                                   canonical_like_state, caplog):
        # overwrites the last value of each output with a random one
        be = write_copy_backend(
            tmp_path / "backend.py",
            "f = open(a.out, 'r+b'); f.seek(-4, 2); "
            "f.write(struct.pack('<f', random.random())); f.close()")
        with caplog.at_level(logging.WARNING):
            rollout_series(canonical_like_state, be, [24], verify_determinism=True)
        (msg,) = [r.message for r in caplog.records if "not deterministic" in r.message]
        h1, h2 = re.findall(r"\b[0-9a-f]{64}\b", msg)
        assert h1 != h2

    def test_determinism_repeat_is_hashed_not_read(self, tmp_path, monkeypatch):
        # one 91x180 state is 4.3 MiB; the IC is allocated before tracing starts
        grid = GridSpec(nlat=91, nlon=180, lat_start=90.0, dlat=2.0,
                        lon_start=0.0, dlon=2.0)
        monkeypatch.setattr(GridSpec, "canonical", classmethod(lambda cls: grid))
        be = write_copy_backend(tmp_path / "backend.py")
        ic = random_state(grid, seed=6)
        state_bytes = ic.data.nbytes
        leads = []
        tracemalloc.start()
        try:
            run_rollout(ic, be, [24, 48], lambda lead, state: leads.append(lead),
                        verify_determinism=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert leads == [24, 48]
        # reading the repeat as a state would make this 2 states
        assert peak < 1.25 * state_bytes

    def test_bytes_after_the_output_archive(self, tmp_path, canonical_like_state):
        be = write_copy_backend(tmp_path / "backend.py",
                                "open(a.out, 'ab').write(b'garbage')")
        with pytest.raises(RolloutError, match="malformed"):
            rollout_series(canonical_like_state, be, [24])


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
    """Step n+1 runs while step n is read, checked and emitted."""

    def test_next_step_runs_during_emit(self, tmp_path, small_ic):
        marker = tmp_path / "step2-started"
        be = step_script(tmp_path / "backend.py",
                         step2=f"open({str(marker)!r}, 'w').close()")
        seen = []

        def emit(lead, state):
            deadline = time.monotonic() + 30
            while lead == 24 and not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            seen.append((lead, marker.exists()))

        run_rollout(small_ic, be, [24, 48], emit)
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

        def emit(lead, state):
            raise KeyError("emit failed")

        t0 = time.monotonic()
        with pytest.raises(KeyError if failure == "emit" else RolloutError,
                           match={"nan": "NaN/Inf at step 1 .*V50", "malformed": "malformed",
                                  "grid": "changed the grid", "emit": "emit failed"}[failure]):
            run_rollout(small_ic, be, [24, 48], emit)
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
        states = rollout_states(small_ic, be, [24, 48])
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
        states = rollout_states(small_ic, be, [0, 24, 48])
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
        steps, emitted = [], []
        monkeypatch.setattr(rollout, "builtin_step", lambda *a: steps.append(a))
        for builtin in ("persistence", "advection"):
            with pytest.raises(RolloutError, match="^the IC at lead 0 holds NaN/Inf: "
                                                   ".*T850 contains NaN/Inf$"):
                run_rollout(ic, BackendSpec(builtin=builtin), [24],
                            lambda *a: emitted.append(a), channels=channels)
        assert steps == [] and emitted == []

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
        # --in goes to step 1 and its repeat as it is, and is left as it was
        assert [in_arg(p) for p in procs[:2]] == [str(src)] * 2
        assert src.read_bytes() == before
        for lead in (24, 48):
            expected = small_ic.replace(
                valid_time=small_ic.valid_time + timedelta(hours=lead))
            written = (tmp_path / "fc" / f"forecast_{lead:03d}h.nws").read_bytes()
            assert written == archive_bytes(expected)


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

    @pytest.mark.parametrize("case", ["ok", "verify", "step1-fails", "emit-raises"])
    def test_file_is_step1_input_and_left_as_it_was(self, tmp_path, ic_file,
                                                    monkeypatch, case):
        digest = sha256_of(ic_file)
        body = (f"import sys; sys.exit(3) if a.infile == {str(ic_file)!r} else None"
                if case == "step1-fails" else "")
        be = write_copy_backend(tmp_path / "backend.py", body)
        procs = recorded_starts(monkeypatch)
        leads = []

        def emit(lead, state):
            if case == "emit-raises":
                raise KeyError("emit failed")
            leads.append(lead)

        if case in ("step1-fails", "emit-raises"):
            with pytest.raises(RolloutError if case == "step1-fails" else KeyError):
                run_rollout(ic_file, be, [24, 48, 72], emit)
        else:
            run_rollout(ic_file, be, [24, 48, 72], emit,
                        verify_determinism=case == "verify")
            assert leads == [24, 48, 72]
        assert in_arg(procs[0]) == str(ic_file)
        if case == "verify":
            assert in_arg(procs[1]) == str(ic_file)   # the repeat reads it too
        assert sha256_of(ic_file) == digest

    def test_nan_in_a_plane_not_reported_fails_before_any_emit(self, tmp_path, small_ic,
                                                               monkeypatch):
        data = small_ic.data.copy()
        data[CHANNELS.index((Var.T, 850)), 4, 7] = np.nan
        path = tmp_path / "ic.nws"
        write_archive(small_ic.replace(data=data), str(path))
        procs = recorded_starts(monkeypatch)
        emitted = []
        with pytest.raises(RolloutError, match="lead 0 holds NaN/Inf: plane T850"):
            run_rollout(path, write_copy_backend(tmp_path / "backend.py"), [0, 24],
                        lambda *a: emitted.append(a), channels=[(Var.Z, 500)])
        assert emitted == [] and procs == []

    @pytest.mark.parametrize("form, fault, steps", [
        ("path", "plane T850 contains NaN/Inf", 1),
        ("state", "non-finite: T850 contains NaN/Inf", 0)], ids=["path", "state"])
    def test_nan_the_backend_carries_is_the_ics_fault(self, tmp_path, monkeypatch,
                                                      form, fault, steps):
        # lead 0 not asked for: the IC path's planes are checked only once
        # step 1's output has failed its check, a state's, in memory, before
        # it is written for step 1; either way the error names the IC
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
        with pytest.raises(RolloutError, match=f"^the IC at lead 0 holds NaN/Inf: {fault}$"):
            run_rollout(ic, be, [24], lambda *a: None)
        assert len(procs) == steps

    def test_truncated_file_fails_before_any_step(self, tmp_path, ic_file, monkeypatch):
        ic_file.write_bytes(ic_file.read_bytes()[:-5])
        procs = recorded_starts(monkeypatch)
        with pytest.raises(ArchiveError, match="payload truncated"):
            run_rollout(ic_file, write_copy_backend(tmp_path / "backend.py"), [24],
                        lambda *a: None)
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
            rows = []

            def emit(lead, state):
                truth_now = truth.replace(valid_time=state.valid_time)
                rows.append((lead, evaluate_run(lead, state, truth_now, clim,
                                                DEFAULT_REGIONS)))
            run_rollout(source, be, [0, 24, 48], emit,
                        channels=DEFAULT_REPORT_CHANNELS)
            return rows

        by_state, by_path = scores(ic), scores(path)
        assert [lead for lead, _ in by_path] == [0, 24, 48]
        assert by_path == by_state
        assert all(not errs and len(recs) == 9 * 2 * 2 for _, (recs, errs) in by_path)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="Python 3.10 keeps a call's arguments referenced by "
                               "the caller until it returns")
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
        leads = []
        tracemalloc.start()
        try:
            run_rollout(path, be, [0, 24, 48], lambda lead, state: leads.append(lead),
                        channels=DEFAULT_REPORT_CHANNELS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert leads == [0, 24, 48]
        # loading the IC would make this at least 1 state
        assert peak < 0.5 * state_bytes
