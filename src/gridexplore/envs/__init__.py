from .core import (
    FLOOR_COLOR,
    N_ACTIONS,
    Action,
    Color,
    Dir,
    DoorState,
    EnvError,
    EpisodeOver,
    GenerationError,
    GridWorld,
    Obj,
    observe,
    state_id,
    step,
)
from .env import Env, StepResult
from .layouts import TASKS, EnvSpec, episode_steps, generate
from .modifiers import apply_noise, hide_obstacles, normalize_obs
from .solver import solve

__all__ = [
    "FLOOR_COLOR",
    "N_ACTIONS",
    "TASKS",
    "Action",
    "Color",
    "Dir",
    "DoorState",
    "Env",
    "EnvError",
    "EnvSpec",
    "EpisodeOver",
    "GenerationError",
    "GridWorld",
    "Obj",
    "StepResult",
    "apply_noise",
    "episode_steps",
    "generate",
    "hide_obstacles",
    "normalize_obs",
    "observe",
    "solve",
    "state_id",
    "step",
]
