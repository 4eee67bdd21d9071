# Seed-driven layout generation for each task.
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import Color, Dir, DoorState, GenerationError, GridWorld, Obj

RETRY_BUDGET = 100


def episode_steps(spec: EnvSpec) -> int:
    """spec's episode length: its max_steps, else its task's default."""
    return spec.max_steps or LAYOUTS[spec.task][1]


def generate(spec: EnvSpec, seed: int) -> GridWorld:
    """Build a solvable layout; identical (spec, seed) gives identical worlds."""
    rng = np.random.default_rng(
        np.random.SeedSequence([TASKS.index(spec.task), seed]))
    build = LAYOUTS[spec.task][0]
    max_steps = episode_steps(spec)
    for _ in range(RETRY_BUDGET):
        world = build(rng, max_steps)
        if world is not None:
            return world
    raise GenerationError(f"no valid layout for {spec.task} in {RETRY_BUDGET} tries")


def _rand_empty(rng, world, x0, y0, x1, y1):
    """Random empty cell in [x0,x1) x [y0,y1), None if the box is full."""
    xs, ys = np.nonzero(world.obj[x0:x1, y0:y1] == Obj.EMPTY)
    if not len(xs):
        return None
    i = rng.integers(len(xs))
    return x0 + int(xs[i]), y0 + int(ys[i])


def _four_rooms(rng, max_steps):
    size = 19
    world = GridWorld.empty(size, size, max_steps)
    mid = size // 2
    world.obj[mid, 1:-1] = Obj.WALL
    world.obj[1:-1, mid] = Obj.WALL
    # one gap per wall segment
    for lo, hi, vertical in ((1, mid, True), (mid + 1, size - 1, True),
                            (1, mid, False), (mid + 1, size - 1, False)):
        gap = int(rng.integers(lo, hi))
        if vertical:
            world.obj[mid, gap] = Obj.EMPTY
        else:
            world.obj[gap, mid] = Obj.EMPTY
    gx, gy = _rand_empty(rng, world, 1, 1, size - 1, size - 1)
    world.set_cell(gx, gy, Obj.GOAL, Color.GREEN)
    world.agent_pos = _rand_empty(rng, world, 1, 1, size - 1, size - 1)
    world.agent_dir = Dir(rng.integers(4))
    return world


def _door_key(size, rng, max_steps):
    world = GridWorld.empty(size, size, max_steps)
    split = int(rng.integers(2, size - 2))
    world.obj[split, 1:-1] = Obj.WALL
    door_y = int(rng.integers(1, size - 1))
    door_color = Color(rng.integers(6))
    world.set_cell(split, door_y, Obj.DOOR, door_color, DoorState.LOCKED)
    world.set_cell(size - 2, size - 2, Obj.GOAL, Color.GREEN)
    key = _rand_empty(rng, world, 1, 1, split, size - 1)
    world.set_cell(*key, Obj.KEY, door_color)
    agent = _rand_empty(rng, world, 1, 1, split, size - 1)
    if agent is None:
        return None
    world.agent_pos = agent
    world.agent_dir = Dir(rng.integers(4))
    return world


def _multi_room(n_rooms, max_size, grid, rng, max_steps):
    world = GridWorld.empty(grid, grid, max_steps)
    world.obj[:, :] = Obj.WALL  # carve rooms out of solid rock
    rooms = _place_rooms(rng, grid, n_rooms, max_size)
    if rooms is None:
        return None
    # carve interiors (every cell is already grey)
    for (x0, y0, w, h) in rooms:
        world.obj[x0 + 1 : x0 + w - 1, y0 + 1 : y0 + h - 1] = Obj.EMPTY
    # doors on the shared wall between consecutive rooms
    prev_color = None
    for a, b in zip(rooms[:-1], rooms[1:]):
        pos = _shared_wall_door(rng, a, b)
        if pos is None:
            return None
        choices = [c for c in range(6) if c != prev_color]
        color = Color(choices[rng.integers(len(choices))])
        prev_color = int(color)
        world.set_cell(pos[0], pos[1], Obj.DOOR, color, DoorState.CLOSED)
    first, last = rooms[0], rooms[-1]
    goal = _rand_empty(rng, world, last[0] + 1, last[1] + 1,
                       last[0] + last[2] - 1, last[1] + last[3] - 1)
    world.set_cell(*goal, Obj.GOAL, Color.GREEN)
    agent = _rand_empty(rng, world, first[0] + 1, first[1] + 1,
                        first[0] + first[2] - 1, first[1] + first[3] - 1)
    if agent is None:
        return None
    world.agent_pos = agent
    world.agent_dir = Dir(rng.integers(4))
    return world


# task -> (builder(rng, max_steps), default episode length). A MultiRoom
# builder is bound to (rooms, max room side incl. walls, grid side); the
# defaults are 20 steps per room and 10 per cell of a DoorKey grid.
LAYOUTS = {
    "FourRooms": (_four_rooms, 100),
    "MultiRoomN2S4": (partial(_multi_room, 2, 4, 25), 40),
    "MultiRoomN4S5": (partial(_multi_room, 4, 5, 25), 80),
    "MultiRoomN6": (partial(_multi_room, 6, 10, 25), 120),
    "MultiRoomN30": (partial(_multi_room, 30, 6, 45), 600),
    "DoorKey8": (partial(_door_key, 8), 640),
    "DoorKey16": (partial(_door_key, 16), 2560),
}
# the table's order seeds every layout (`generate`)
TASKS = tuple(LAYOUTS)


@dataclass
class EnvSpec:
    task: str
    view_size: int = 7
    noise_sigma: float = 0.0
    invisible_obstacles: bool = False
    max_steps: int | None = None  # None -> task default

    def __post_init__(self):
        if self.task not in LAYOUTS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.view_size not in (3, 7):
            raise ValueError("view_size must be 3 or 7")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def _place_rooms(rng, grid, n_rooms, max_size):
    """Chain rooms in random directions; adjacent rooms share one wall.

    Depth-first with backtracking: when a room cannot be extended, earlier
    placements are retried, up to a global attempt budget.
    """
    w = int(rng.integers(4, max_size + 1))
    h = int(rng.integers(4, max_size + 1))
    x0 = int(rng.integers(0, grid - w + 1))
    y0 = int(rng.integers(0, grid - h + 1))
    rooms = [(x0, y0, w, h)]
    budget = [60 * n_rooms]
    if _extend(rng, rooms, grid, n_rooms, max_size, budget):
        return rooms
    return None


def _extend(rng, rooms, grid, n_rooms, max_size, budget):
    if len(rooms) == n_rooms:
        return True
    for _ in range(12):
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        px0, py0, pw, ph = rooms[-1]
        side = int(rng.integers(4))  # 0 E, 1 S, 2 W, 3 N
        w = int(rng.integers(4, max_size + 1))
        h = int(rng.integers(4, max_size + 1))
        if side == 0:
            x0 = px0 + pw - 1
            y0 = py0 + int(rng.integers(-(h - 3), ph - 2))
        elif side == 2:
            x0 = px0 - w + 1
            y0 = py0 + int(rng.integers(-(h - 3), ph - 2))
        elif side == 1:
            y0 = py0 + ph - 1
            x0 = px0 + int(rng.integers(-(w - 3), pw - 2))
        else:
            y0 = py0 - h + 1
            x0 = px0 + int(rng.integers(-(w - 3), pw - 2))
        cand = (x0, y0, w, h)
        if x0 < 0 or y0 < 0 or x0 + w > grid or y0 + h > grid:
            continue
        if any(_interiors_overlap(cand, r) for r in rooms):
            continue
        if not _shared_wall_cells(rooms[-1], cand):
            continue
        rooms.append(cand)
        if _extend(rng, rooms, grid, n_rooms, max_size, budget):
            return True
        rooms.pop()
    return False


def _interiors_overlap(a, b):
    ax0, ay0, aw, ah = a
    bx0, by0, bw, bh = b
    return not (
        ax0 + aw - 1 <= bx0
        or bx0 + bw - 1 <= ax0
        or ay0 + ah - 1 <= by0
        or by0 + bh - 1 <= ay0
    )


def _shared_wall_cells(a, b):
    """Wall cells between the interiors of adjacent rooms a and b."""
    ax0, ay0, aw, ah = a
    bx0, by0, bw, bh = b
    cells = []
    if ax0 + aw - 1 == bx0 or bx0 + bw - 1 == ax0:
        x = ax0 + aw - 1 if ax0 + aw - 1 == bx0 else ax0
        lo = max(ay0 + 1, by0 + 1)
        hi = min(ay0 + ah - 1, by0 + bh - 1)
        cells = [(x, y) for y in range(lo, hi)]
    elif ay0 + ah - 1 == by0 or by0 + bh - 1 == ay0:
        y = ay0 + ah - 1 if ay0 + ah - 1 == by0 else ay0
        lo = max(ax0 + 1, bx0 + 1)
        hi = min(ax0 + aw - 1, bx0 + bw - 1)
        cells = [(x, y) for x in range(lo, hi)]
    return cells


def _shared_wall_door(rng, a, b):
    cells = _shared_wall_cells(a, b)
    if not cells:
        return None
    return cells[rng.integers(len(cells))]
