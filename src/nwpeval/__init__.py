"""nwpeval: a forecast-compatibility harness for gridded atmospheric
states — ingestion, bilinear regridding, regional initial-condition
splicing, autoregressive rollout, and latitude-weighted verification.

Import each name from its submodule, such as `nwpeval.archive`, which a
backend step that reads and writes archives loads with its own imports
alone."""

__version__ = "0.1.0"
