from .config import ConfigError, ExperimentConfig, load_config, parse_overrides
from .metrics import ExplorationTracker, MetricRow, exploration_metrics
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .trainer import Trainer, run_experiment
from .outputs import aggregate_csv, write_csv
from .probes import (PROBE_TASKS, collect_probe_dataset, probe_embeddings,
                     probe_losses)

__all__ = [
    "PROBE_TASKS",
    "CheckpointError",
    "ConfigError",
    "ExperimentConfig",
    "ExplorationTracker",
    "MetricRow",
    "Trainer",
    "aggregate_csv",
    "collect_probe_dataset",
    "exploration_metrics",
    "load_checkpoint",
    "load_config",
    "parse_overrides",
    "probe_embeddings",
    "probe_losses",
    "run_experiment",
    "save_checkpoint",
    "write_csv",
]
