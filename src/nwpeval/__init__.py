"""nwpeval: a forecast-compatibility harness for gridded atmospheric
states — ingestion, bilinear regridding, regional initial-condition
splicing, autoregressive rollout, and latitude-weighted verification.

The public names below are imported from their submodules on first use,
so a program that imports one submodule, such as a backend step that
reads and writes archives through `nwpeval.archive`, loads that module
and its own imports alone."""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "grids": ("CHANNELS", "EAST_ASIA", "GLOBAL", "N_CHANNELS",
              "Field", "GridSpec", "RegionBox", "StateSet", "Var",
              "channel_name", "flat_channel_index", "region_mask", "validate_state"),
    "archive": ("RawDumpLayout", "ingest_raw", "read_archive", "write_archive"),
    "regrid": ("RegridPlan", "apply_plan", "build_plan", "regrid_state"),
    "splice": ("SpliceSpec", "splice_states"),
    "verify": ("MetricRecord", "acc_weighted", "evaluate_run", "lat_weights",
               "rmse_weighted"),
    "rollout": ("BackendSpec", "RolloutPlan", "builtin_step", "plan_for_leads",
                "rollout_states", "run_rollout", "schedule_steps"),
    "experiment": ("ExperimentConfig", "RunReport", "load_config", "run_experiment"),
    "plots": ("emit_plots",),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
