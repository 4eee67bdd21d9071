"""Breadth-first solvability oracle.

Searches over a compact abstract state (agent pose, carried key, opened
doors) instead of copying full worlds, which keeps 45x45 layouts cheap.
The search never closes an opened door and never drops a carried item;
neither move is ever required to reach a goal, so no solution is lost.
The returned plan can be replayed through step() to cross-check the two
implementations of the dynamics.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .core import DIR_VEC, WALKABLE, Action, Dir, DoorState, GridWorld, Obj

_TURNS = (Action.TURN_LEFT, Action.TURN_RIGHT)
MAX_NODES = 500_000  # search budget; past it the world counts as unsolved


def solve(world: GridWorld):
    """Shortest action sequence from world's current state to its goal.

    Returns None when the goal is unreachable (or the node budget runs
    out). Ignores max_steps: solvability means a goal path exists.
    """
    walkable = np.isin(world.obj, WALKABLE)
    goal = world.obj == Obj.GOAL
    doors = {}  # pos -> (index, color, initially_open)
    for i, (x, y) in enumerate(
        zip(*((world.obj == Obj.DOOR).nonzero()))
    ):
        doors[(int(x), int(y))] = (
            i,
            int(world.color[x, y]),
            int(world.state[x, y]) == DoorState.OPEN,
        )
    keys = {}  # pos -> (index, color)
    for i, (x, y) in enumerate(zip(*((world.obj == Obj.KEY).nonzero()))):
        keys[(int(x), int(y))] = (i, int(world.color[x, y]))

    open_mask = sum(1 << i for i, _, is_open in doors.values() if is_open)
    carried = None  # a carried key's colour, -1 another item, None nothing
    if world.carried is not None:
        obj, color = world.carried
        carried = color if obj == Obj.KEY else -1
    start = (world.agent_pos[0], world.agent_pos[1], int(world.agent_dir),
             carried, open_mask, 0)

    parent = {start: None}
    frontier = deque([start])
    nodes = 0
    while frontier:
        s = frontier.popleft()
        x, y, d, car, mask, taken = s
        fx, fy = x + DIR_VEC[Dir(d)][0], y + DIR_VEC[Dir(d)][1]
        in_map = 0 <= fx < world.width and 0 <= fy < world.height
        succ = []
        for a in _TURNS:
            nd = (d - 1) % 4 if a == Action.TURN_LEFT else (d + 1) % 4
            succ.append((a, (x, y, nd, car, mask, taken)))
        if in_map:
            front = (fx, fy)
            if front in doors:
                can_enter = bool(mask >> doors[front][0] & 1)
            elif front in keys:
                # a key cell is enterable once the key has been taken
                can_enter = bool(taken >> keys[front][0] & 1)
            else:
                can_enter = bool(walkable[fx, fy])
            if can_enter:
                if goal[fx, fy]:
                    path = [Action.FORWARD]
                    while parent[s] is not None:
                        s, a = parent[s]
                        path.append(a)
                    return path[::-1]
                succ.append((Action.FORWARD, (fx, fy, d, car, mask, taken)))
            if front in keys and car is None and not taken >> keys[front][0] & 1:
                i, color = keys[front]
                succ.append((Action.PICKUP, (x, y, d, color, mask, taken | 1 << i)))
            if front in doors and not mask >> doors[front][0] & 1:
                i, color, _ = doors[front]
                locked = world.state[fx, fy] == DoorState.LOCKED
                if not locked or car == color:
                    succ.append((Action.TOGGLE, (x, y, d, car, mask | 1 << i, taken)))
        for a, ns in succ:
            if ns not in parent:
                parent[ns] = (s, a)
                frontier.append(ns)
                nodes += 1
                if nodes > MAX_NODES:
                    return None
    return None
