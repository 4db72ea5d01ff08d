"""nwpeval: a forecast-compatibility harness for gridded atmospheric
states — ingestion, bilinear regridding, regional initial-condition
splicing, autoregressive rollout, and latitude-weighted verification."""

__version__ = "0.1.0"

from .grids import (CHANNELS, EAST_ASIA, GLOBAL, N_CHANNELS, Field, GridSpec,
                    RegionBox, StateSet, Var, channel_name, flat_channel_index,
                    region_mask, validate_state)
from .archive import RawDumpLayout, ingest_raw, read_archive, write_archive
from .regrid import RegridPlan, apply_plan, build_plan, regrid_state
from .splice import SpliceSpec, splice_states
from .verify import (MetricRecord, acc_weighted, evaluate_run, lat_weights,
                     rmse_weighted)
from .rollout import (BackendSpec, RolloutPlan, builtin_step, plan_for_leads,
                      run_rollout, schedule_steps)
from .experiment import ExperimentConfig, RunReport, load_config, run_experiment
from .plots import emit_plots

__all__ = [
    "CHANNELS", "EAST_ASIA", "GLOBAL", "N_CHANNELS",
    "Field", "GridSpec", "RegionBox", "StateSet", "Var",
    "channel_name", "flat_channel_index", "validate_state",
    "RawDumpLayout", "ingest_raw", "read_archive", "write_archive",
    "RegridPlan", "apply_plan", "build_plan", "regrid_state",
    "SpliceSpec", "region_mask", "splice_states",
    "MetricRecord", "acc_weighted", "evaluate_run", "lat_weights",
    "rmse_weighted",
    "BackendSpec", "RolloutPlan", "builtin_step", "plan_for_leads",
    "run_rollout", "schedule_steps",
    "ExperimentConfig", "RunReport", "load_config", "run_experiment",
    "emit_plots",
]
