# Grid-world state machine with MiniGrid-compatible cell encoding and
# egocentric partial observations.
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class Obj(IntEnum):
    UNSEEN = 0
    EMPTY = 1
    WALL = 2
    FLOOR = 3
    DOOR = 4
    KEY = 5
    BALL = 6
    BOX = 7
    GOAL = 8
    AGENT = 10  # index 9 (lava) unused, kept for encoding compatibility


class Color(IntEnum):
    RED = 0
    GREEN = 1
    BLUE = 2
    PURPLE = 3
    YELLOW = 4
    GREY = 5


class DoorState(IntEnum):
    OPEN = 0
    CLOSED = 1
    LOCKED = 2


class Dir(IntEnum):
    EAST = 0
    SOUTH = 1
    WEST = 2
    NORTH = 3


class Action(IntEnum):
    TURN_LEFT = 0
    TURN_RIGHT = 1
    FORWARD = 2
    PICKUP = 3
    DROP = 4
    TOGGLE = 5
    DONE = 6


N_ACTIONS = 7
FLOOR_COLOR = Color.BLUE  # used when obstacles are hidden

# cells an agent can always enter; a door only when open
WALKABLE = (Obj.EMPTY, Obj.FLOOR, Obj.GOAL)

DIR_VEC = {
    Dir.EAST: (1, 0),
    Dir.SOUTH: (0, 1),
    Dir.WEST: (-1, 0),
    Dir.NORTH: (0, -1),
}


class EnvError(Exception):
    pass


class GenerationError(EnvError):
    """Layout retry budget exhausted."""


class EpisodeOver(EnvError):
    """step() called on a terminal world."""


@dataclass
class GridWorld:
    """Mutable full state: object/color/state planes plus the agent."""

    width: int
    height: int
    obj: np.ndarray  # (w, h) uint8
    color: np.ndarray  # (w, h) uint8
    state: np.ndarray  # (w, h) uint8
    agent_pos: tuple[int, int]
    agent_dir: Dir
    max_steps: int
    carried: tuple[int, int] | None = None  # (object, color)
    step_count: int = 0
    done: bool = False

    @classmethod
    def empty(cls, width, height, max_steps):
        obj = np.full((width, height), Obj.EMPTY, dtype=np.uint8)
        obj[0, :] = obj[-1, :] = Obj.WALL
        obj[:, 0] = obj[:, -1] = Obj.WALL
        color = np.full((width, height), Color.GREY, dtype=np.uint8)
        state = np.zeros((width, height), dtype=np.uint8)
        return cls(width, height, obj, color, state, (1, 1), Dir.EAST, max_steps)

    def set_cell(self, x, y, obj, color=Color.GREY, state=0):
        self.obj[x, y] = obj
        self.color[x, y] = color
        self.state[x, y] = state

    def clear_cell(self, x, y):
        self.set_cell(x, y, Obj.EMPTY, Color.GREY, 0)

    def is_walkable(self, x, y):
        if not (0 <= x < self.width and 0 <= y < self.height):
            return False
        # cells are read as ints: a uint8 scalar compares ~10x slower
        # against an IntEnum than an int does
        o = int(self.obj[x, y])
        if o in WALKABLE:
            return True
        return o == Obj.DOOR and int(self.state[x, y]) == DoorState.OPEN


# share of the goal reward an episode loses by using all its steps
TIME_PENALTY_COEF = 0.9


def step(world: GridWorld, action: int):
    """Advance the world one action (an `Action` or its int). Returns
    (reward, done); reaching the goal pays
    1 - TIME_PENALTY_COEF * step_count / max_steps."""
    if world.done:
        raise EpisodeOver("step() after terminal")
    world.step_count += 1
    x, y = world.agent_pos
    dx, dy = DIR_VEC[world.agent_dir]
    fx, fy = x + dx, y + dy
    reward = 0.0

    if action == Action.TURN_LEFT:
        world.agent_dir = Dir((world.agent_dir - 1) % 4)
    elif action == Action.TURN_RIGHT:
        world.agent_dir = Dir((world.agent_dir + 1) % 4)
    elif action == Action.FORWARD:
        if world.is_walkable(fx, fy):
            world.agent_pos = (fx, fy)
            if int(world.obj[fx, fy]) == Obj.GOAL:
                world.done = True
                reward = 1.0 - TIME_PENALTY_COEF * (
                    world.step_count / world.max_steps
                )
    elif action == Action.PICKUP:
        if (
            world.carried is None
            and int(world.obj[fx, fy]) in (Obj.KEY, Obj.BALL, Obj.BOX)
        ):
            world.carried = (int(world.obj[fx, fy]), int(world.color[fx, fy]))
            world.clear_cell(fx, fy)
    elif action == Action.DROP:
        if world.carried is not None and int(world.obj[fx, fy]) == Obj.EMPTY:
            world.set_cell(fx, fy, world.carried[0], world.carried[1])
            world.carried = None
    elif action == Action.TOGGLE:
        if int(world.obj[fx, fy]) == Obj.DOOR:
            st = int(world.state[fx, fy])
            if st == DoorState.OPEN:
                world.state[fx, fy] = DoorState.CLOSED
            elif st == DoorState.CLOSED:
                world.state[fx, fy] = DoorState.OPEN
            elif st == DoorState.LOCKED:
                if world.carried == (int(Obj.KEY), int(world.color[fx, fy])):
                    world.state[fx, fy] = DoorState.OPEN
    elif action == Action.DONE:
        pass
    else:
        raise ValueError(f"invalid action {action}")

    if not world.done and world.step_count >= world.max_steps:
        world.done = True
    return reward, world.done


# ---------------------------------------------------------------------------
# Egocentric observation

VIEW = 7
_ANCHOR = (3, 6)  # agent cell in the 7x7 agent frame (center bottom)


def _view_offsets():
    """(4, 7, 7, 2) world-coordinate offsets of the agent frame, by Dir."""
    vx, vy = np.meshgrid(np.arange(VIEW), np.arange(VIEW), indexing="ij")
    lateral = vx - _ANCHOR[0]
    forward = _ANCHOR[1] - vy
    out = np.empty((4, VIEW, VIEW, 2), dtype=np.int64)
    for d, (dx, dy) in DIR_VEC.items():
        rx, ry = -dy, dx  # right-hand vector
        out[d] = np.stack(
            [forward * dx + lateral * rx, forward * dy + lateral * ry], axis=-1
        )
    return out

_OFFSETS = _view_offsets()


def _flood_table():
    """Row step of the light flood for every (lit, clear) pair of 7-bit
    row masks, bit i being column i. Index `lit << 7 | clear` gives the
    row's final lit bits, and the bits it lights in the row above, shifted
    to make the next row's index.

    Within a row the flood sweeps left to right, then right to left; a
    lit, clear cell lights its neighbour in the sweep direction and the
    cells above itself and that neighbour."""
    lit = np.repeat(np.arange(1 << VIEW, dtype=np.uint8), 1 << VIEW)
    clear = np.tile(np.arange(1 << VIEW, dtype=np.uint8), 1 << VIEW)
    above = np.zeros_like(lit)
    sweeps = ([(i, i + 1) for i in range(VIEW - 1)]
              + [(i, i - 1) for i in range(VIEW - 1, 0, -1)])
    for i, nxt in sweeps:
        passes = (lit >> i) & (clear >> i) & 1
        lit |= passes << nxt
        above |= (passes << nxt) | (passes << i)
    return lit, above.astype(np.intp) << VIEW

_FLOOD_ROW, _FLOOD_NEXT = _flood_table()


def _clear_table():
    """Whether light passes a cell, by (obj, state): it does unless the
    cell is a wall, unseen, or a closed or locked door."""
    obj, state = np.indices((max(Obj) + 1, len(DoorState)))
    return ((obj != Obj.WALL) & (obj != Obj.UNSEEN)
            & ((obj != Obj.DOOR) | (state == DoorState.OPEN)))

_CLEAR = _clear_table()


def _visibility(obj, state):
    """MiniGrid-style light flood from the agent anchor, row by row, for
    (..., 7, 7) windows at once.

    A cell's clear bit is one lookup in the (obj, state) clear table.
    Each row is one lookup in the flood table, keyed by the bits lit from
    the row below and the row's clear bits.
    """
    clear = _CLEAR[obj, state].reshape((-1, VIEW, VIEW))
    clear_bits = np.packbits(clear, axis=1, bitorder="little")[:, 0, :]
    rows = np.empty(clear_bits.shape, dtype=np.uint8)
    lit = np.full(len(clear), (1 << _ANCHOR[0]) << VIEW)
    for j in range(VIEW - 1, -1, -1):
        key = lit | clear_bits[:, j]
        rows[:, j] = _FLOOD_ROW[key]
        lit = _FLOOD_NEXT[key]
    mask = np.unpackbits(rows[:, None, :], axis=1, count=VIEW,
                         bitorder="little")
    return mask.view(bool).reshape(obj.shape)


def pose_rows(worlds) -> np.ndarray:
    """(n, 5) uint8 rows (x, y, direction, carried object, carried color
    + 1) of n worlds; both carried fields are 0 for empty hands."""
    return np.array([(*w.agent_pos, w.agent_dir,
                      *((w.carried[0], w.carried[1] + 1) if w.carried
                        else (0, 0)))
                     for w in worlds], np.uint8).reshape(-1, 5)


def observe_batch(planes, rows, poses, view_size):
    """Egocentric (n, view, view, 3) uint8 observations of n worlds.

    `planes` stacks the obj, color and state grids of W worlds as one
    (3, W, w, h) array; `rows` are the n worlds' indices into its second
    axis and `poses` their `pose_rows`. Always rendered at 7x7 with the agent
    center-bottom; the reduced view is a 3x3 crop around the agent so its
    cells match the 7x7 rendering.
    """
    _, _, width, height = planes.shape
    p = poses.astype(np.intp)
    cx = _OFFSETS[p[:, 2], ..., 0] + p[:, 0, None, None]
    cy = _OFFSETS[p[:, 2], ..., 1] + p[:, 1, None, None]
    # a negative coordinate wraps to a huge unsigned one
    inside = (cx.view(np.uintp) < width) & (cy.view(np.uintp) < height)
    cell = cx * height + cy
    cell += (np.asarray(rows, np.intp) * (width * height))[:, None, None]
    # off-map cells read some in-range cell, then are zeroed
    out = planes.reshape(3, -1).take(cell, axis=1, mode="clip")
    # off the map and out of sight are both (UNSEEN, 0, 0)
    out *= inside
    out *= _visibility(out[0], out[2])

    # anchor cell shows the carried object, or empty floor
    ax, ay = _ANCHOR
    out[0, :, ax, ay] = np.maximum(poses[:, 3], int(Obj.EMPTY))
    out[1, :, ax, ay] = np.maximum(poses[:, 4], 1) - 1
    out[2, :, ax, ay] = 0
    out = np.moveaxis(out, 0, -1)
    if view_size == 3:
        out = out[:, ax - 1 : ax + 2, ay - 2 : ay + 1]
    return out


def observe(world: GridWorld, spec) -> np.ndarray:
    """Egocentric (view, view, 3) uint8 observation of one world at
    `spec.view_size`."""
    return observe_batch(_planes(world), [0], pose_rows([world]),
                         spec.view_size)[0]


def _planes(world: GridWorld) -> np.ndarray:
    """The world's grids as a (3, 1, w, h) batch of one."""
    return np.stack((world.obj, world.color, world.state))[:, None]


def state_id_batch(planes, rows, poses) -> list[bytes]:
    """Fingerprints of the full states of n worlds (arguments as in
    `observe_batch`), step-count independent.

    Each is the world's pose row, then every door's (x, y, state), then
    every movable object's (x, y, obj, color), doors and movables in
    x-major order; built by direct field packing, so equal ids imply
    equal states.
    """
    _, n, width, height = planes.shape
    flat = planes.reshape(3, -1)
    obj = flat[0]
    world_start = np.arange(n + 1) * (width * height)

    def pack(where, *channels):
        """Bytes (x, y, channels...) of the cells `where`, and each
        world's start offset into them."""
        i = np.flatnonzero(where)
        _, x, y = np.unravel_index(i, planes.shape[1:])
        packed = np.stack((x, y, *(flat[c, i] for c in channels)), axis=1,
                          dtype=np.uint8, casting="unsafe")
        starts = np.searchsorted(i, world_start) * packed.shape[1]
        return packed.tobytes(), starts.tolist()

    # plain ints: a numpy compare against an IntEnum member is ~5x slower;
    # below KEY, the uint8 `obj - KEY` wraps past BOX - KEY
    doors, d = pack(obj == int(Obj.DOOR), 2)
    movable, m = pack(obj - int(Obj.KEY) <= int(Obj.BOX) - int(Obj.KEY),
                      0, 1)
    pose = poses.tobytes()
    return [pose[5 * k : 5 * k + 5] + doors[d[r] : d[r + 1]]
            + movable[m[r] : m[r + 1]] for k, r in enumerate(rows)]


def state_id(world: GridWorld) -> bytes:
    """Fingerprint of one world's full state (see `state_id_batch`)."""
    return state_id_batch(_planes(world), [0], pose_rows([world]))[0]

