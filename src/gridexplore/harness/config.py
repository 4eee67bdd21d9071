"""Flat key/value experiment configuration.

Files are UTF-8 text, one `key = value` pair per line, `#` comments.
Keys are namespaced env.* / ppo.* / deir.* / run.*; each
`ExperimentConfig` field declares its key, and its annotation picks the
parser. Config files, command-line pairs and a checkpoint's config lines
all go through one parser. Unknown keys are rejected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from ..envs import EnvSpec
from ..methods import METHODS


class ConfigError(Exception):
    pass


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_ints(text):
    return tuple(int(p) for p in str(text).replace(",", " ").split())


def _key(key, default, resumable=False):
    """A field read from and written to config files as `key`; a resumable
    one (run control) may differ between a checkpoint and its resumption."""
    return field(default=default, metadata=dict(key=key, resumable=resumable))


@dataclass
class ExperimentConfig:
    task: str = _key("env.task", "MultiRoomN2S4")
    view_size: int = _key("env.view_size", 7)
    noise_sigma: float = _key("env.noise_sigma", 0.0)
    invisible_obstacles: bool = _key("env.invisible_obstacles", False)
    max_steps: int = _key("env.max_steps", 0)  # 0 -> task default
    rollout_steps: int = _key("ppo.rollout_steps", 512)
    workers: int = _key("ppo.workers", 16)
    minibatch: int = _key("ppo.minibatch", 512)
    lr: float = _key("ppo.lr", 3e-4)
    bptt_len: int = _key("ppo.bptt_len", 16)
    embed_dim: int = _key("ppo.embed_dim", 64)
    hidden: int = _key("ppo.hidden", 128)
    channels: tuple = _key("ppo.channels", (32, 64, 64))
    norm: str = _key("ppo.norm", "batch")
    method_lr: float = _key("deir.lr", 3e-4)
    beta: float = _key("deir.beta", 1e-2)
    queue_size: int = _key("deir.queue_size", 100_000)
    queue_smoothing: float = _key("deir.queue_smoothing", 0.9)
    model_epochs: int = _key("deir.model_epochs", 4)
    model_minibatch: int = _key("deir.model_minibatch", 512)
    method: str = _key("run.method", "DEIR")
    frames: int = _key("run.frames", 1_000_000, resumable=True)
    seeds: tuple = _key("run.seeds", (0, 1, 2), resumable=True)
    out: str = _key("run.out", "runs", resumable=True)
    # rollouts between checkpoints; 0 = only final
    checkpoint_every: int = _key("run.checkpoint_every", 0, resumable=True)
    log_every: int = _key("run.log_every", 1, resumable=True)

    def env_spec(self) -> EnvSpec:
        return EnvSpec(
            task=self.task,
            view_size=self.view_size,
            noise_sigma=self.noise_sigma,
            invisible_obstacles=self.invisible_obstacles,
            max_steps=self.max_steps or None,
        )

    def validate(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        try:
            self.env_spec()  # re-run env-side validation
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        positive = ("rollout_steps", "workers", "minibatch", "model_epochs",
                    "model_minibatch", "bptt_len", "embed_dim", "hidden",
                    "frames", "queue_size", "log_every")
        # a NaN fails every comparison, so each check asks for the range
        # a value must lie in
        for name in positive + ("lr", "method_lr"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        for name in ("beta", "checkpoint_every"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be non-negative and finite")
        if not 0.0 <= self.queue_smoothing <= 1.0:
            raise ConfigError("queue_smoothing must be in [0, 1]")
        if self.rollout_steps % self.bptt_len:
            raise ConfigError("rollout_steps must be divisible by bptt_len")
        if len(self.channels) != 3 or min(self.channels) <= 0:
            raise ConfigError("channels must be 3 positive widths")
        if (not self.seeds or min(self.seeds) < 0
                or len(set(self.seeds)) < len(self.seeds)):
            raise ConfigError("seeds must be non-empty, distinct and >= 0")
        # a run trains on whole rollouts, and the bonus model on whole
        # batches of one rollout
        rollout = self.rollout_steps * self.workers
        if self.frames < rollout:
            raise ConfigError("frames must be at least one rollout "
                              "(rollout_steps * workers)")
        if self.model_minibatch > rollout:
            raise ConfigError("model_minibatch must be at most one rollout "
                              "(rollout_steps * workers)")
        if self.norm not in ("batch", "layer", "none"):
            raise ConfigError(f"unknown norm {self.norm!r}")
        return self


# config-file key -> (dataclass field, parser from its annotation)
_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
            "tuple": _parse_ints}
_KEYS = {f.metadata["key"]: (f.name, _PARSERS[f.type])
         for f in fields(ExperimentConfig)}


def parse_overrides(pairs, where="command line"):
    """['key = value', ...] -> {key: value-string}; blank entries are
    skipped, and an error names `where` and the entry's 1-based line."""
    out = {}
    for lineno, pair in enumerate(pairs, 1):
        key, sep, value = pair.partition("=")
        if sep:
            out[key.strip()] = value.strip()
        elif pair.strip():
            raise ConfigError(f"{where}:{lineno}: {pair.strip()!r} is not "
                              "key = value")
    return out


def _read_pairs(path):
    with open(path, encoding="utf-8") as fh:
        return parse_overrides([line.split("#", 1)[0] for line in fh], path)


def load_config(path=None, overrides=None) -> ExperimentConfig:
    pairs = _read_pairs(path) if path else {}
    pairs.update(overrides or {})
    cfg = ExperimentConfig()
    for key, raw in pairs.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse = _KEYS[key]
        try:
            setattr(cfg, name, parse(raw))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return cfg.validate()


def differing_keys(a: ExperimentConfig, b: ExperimentConfig):
    """The keys of the fields, other than the resumable ones, on which two
    configs differ."""
    return [f.metadata["key"] for f in fields(a)
            if not f.metadata["resumable"]
            and getattr(a, f.name) != getattr(b, f.name)]


def config_lines(cfg: ExperimentConfig):
    """Render a config back to its flat key/value text form."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.metadata['key']} = {value}")
    return lines
