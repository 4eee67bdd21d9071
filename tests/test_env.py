import copy
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridexplore.envs import (
    FLOOR_COLOR,
    TASKS,
    Action,
    Color,
    Dir,
    DoorState,
    Env,
    EnvSpec,
    EpisodeOver,
    GridWorld,
    Obj,
    apply_noise,
    generate,
    hide_obstacles,
    normalize_obs,
    observe,
    solve,
    state_id,
    step,
)
from gridexplore.envs import core


# ---------------------------------------------------------------------------
# EnvSpec validation


def test_spec_rejects_unknown_task():
    with pytest.raises(ValueError):
        EnvSpec("Labyrinth")


def test_spec_rejects_bad_view_size():
    with pytest.raises(ValueError):
        EnvSpec("FourRooms", view_size=5)


def test_spec_rejects_negative_sigma():
    with pytest.raises(ValueError):
        EnvSpec("FourRooms", noise_sigma=-0.1)


# ---------------------------------------------------------------------------
# Layout generation


def test_generate_is_deterministic():
    spec = EnvSpec("MultiRoomN4S5")
    a = generate(spec, 42)
    b = generate(spec, 42)
    assert np.array_equal(a.obj, b.obj)
    assert np.array_equal(a.color, b.color)
    assert np.array_equal(a.state, b.state)
    assert a.agent_pos == b.agent_pos and a.agent_dir == b.agent_dir


def test_two_room_layout_structure():
    spec = EnvSpec("MultiRoomN2S4")
    for seed in range(20):
        w = generate(spec, seed)
        assert (w.width, w.height) == (25, 25)
        doors = np.argwhere(w.obj == Obj.DOOR)
        assert len(doors) == 1
        x, y = doors[0]
        assert w.state[x, y] == DoorState.CLOSED
        # rooms of side <= 4 have interiors <= 2x2, so at most 8 open
        # cells besides the goal and the door
        assert np.sum(w.obj == Obj.EMPTY) <= 8
        assert w.max_steps == 40


def test_door_key_layout_structure():
    spec = EnvSpec("DoorKey8")
    for seed in range(20):
        w = generate(spec, seed)
        assert (w.width, w.height) == (8, 8)
        doors = np.argwhere(w.obj == Obj.DOOR)
        assert len(doors) == 1
        dx, dy = doors[0]
        assert w.state[dx, dy] == DoorState.LOCKED
        keys = np.argwhere(w.obj == Obj.KEY)
        assert len(keys) == 1
        kx, _ = keys[0]
        # key and agent on the same side of the dividing wall as each other
        assert kx < dx and w.agent_pos[0] < dx
        assert w.color[kx, keys[0][1]] == w.color[dx, dy]
        assert w.obj[6, 6] == Obj.GOAL
        assert w.max_steps == 640


def test_grid_sizes_match_tasks():
    sizes = {
        "FourRooms": 19,
        "MultiRoomN2S4": 25,
        "MultiRoomN4S5": 25,
        "MultiRoomN6": 25,
        "MultiRoomN30": 45,
        "DoorKey8": 8,
        "DoorKey16": 16,
    }
    for task, n in sizes.items():
        w = generate(EnvSpec(task), 0)
        assert (w.width, w.height) == (n, n)


def test_agent_never_starts_on_wall_or_goal():
    for task in TASKS:
        for seed in range(10):
            w = generate(EnvSpec(task), seed)
            assert w.obj[w.agent_pos] == Obj.EMPTY


# sha256 over every task, the default and an explicit episode length, and
# seeds 0-49: planes, grid size, agent pose, direction and max_steps
_LAYOUT_DIGEST = (
    "769254f6bc9d295672e34b2192a048ea0a47f917a0bc6d85a90353c6dab2626e")


def test_layouts_are_pinned():
    h = hashlib.sha256()
    for task in TASKS:
        for max_steps in (None, 25):
            for seed in range(50):
                w = generate(EnvSpec(task, max_steps=max_steps), seed)
                h.update(np.stack((w.obj, w.color, w.state)).tobytes())
                h.update(np.array([w.width, w.height, *w.agent_pos,
                                   w.agent_dir, w.max_steps],
                                  np.int64).tobytes())
    assert h.hexdigest() == _LAYOUT_DIGEST, (
        "generated layouts changed; every cached run and pinned training "
        "digest depends on them")


# ---------------------------------------------------------------------------
# Step dynamics


def _corridor(max_steps=600):
    w = GridWorld.empty(10, 10, max_steps)
    w.agent_pos = (1, 1)
    w.agent_dir = Dir.EAST
    return w


def test_forward_into_wall_is_identity():
    w = _corridor()
    w.agent_pos = (8, 1)  # wall at x=9
    r, done = step(w, Action.FORWARD)
    assert w.agent_pos == (8, 1)
    assert r == 0.0 and not done


def test_goal_reward_uses_time_penalty():
    w = _corridor(max_steps=600)
    w.set_cell(2, 1, Obj.GOAL, Color.GREEN)
    for _ in range(99):
        step(w, Action.DONE)
    r, done = step(w, Action.FORWARD)
    assert done
    assert r == pytest.approx(1.0 - 0.9 * (100 / 600))
    assert r == pytest.approx(0.85)


def test_timeout_gives_zero_reward():
    w = _corridor(max_steps=5)
    total = 0.0
    for _ in range(5):
        r, done = step(w, Action.DONE)
        total += r
    assert done and total == 0.0
    assert w.step_count == 5


def test_step_after_terminal_raises():
    w = _corridor(max_steps=1)
    step(w, Action.DONE)
    with pytest.raises(EpisodeOver):
        step(w, Action.DONE)


def test_turns_compose_to_identity():
    w = _corridor()
    d0 = w.agent_dir
    step(w, Action.TURN_LEFT)
    step(w, Action.TURN_RIGHT)
    assert w.agent_dir == d0


def test_key_unlocks_matching_door_and_is_kept():
    w = _corridor()
    w.set_cell(2, 1, Obj.KEY, Color.YELLOW)
    w.set_cell(3, 1, Obj.DOOR, Color.YELLOW, DoorState.LOCKED)
    step(w, Action.PICKUP)
    assert w.carried == (int(Obj.KEY), int(Color.YELLOW))
    step(w, Action.FORWARD)
    step(w, Action.TOGGLE)
    assert w.state[3, 1] == DoorState.OPEN
    assert w.carried is not None  # key is not consumed


def test_locked_door_needs_matching_color():
    w = _corridor()
    w.set_cell(2, 1, Obj.DOOR, Color.RED, DoorState.LOCKED)
    w.carried = (int(Obj.KEY), int(Color.BLUE))
    step(w, Action.TOGGLE)
    assert w.state[2, 1] == DoorState.LOCKED


def test_pickup_and_drop_round_trip():
    w = _corridor()
    w.set_cell(2, 1, Obj.BALL, Color.RED)
    step(w, Action.PICKUP)
    assert w.obj[2, 1] == Obj.EMPTY
    step(w, Action.DROP)
    assert w.obj[2, 1] == Obj.BALL and w.carried is None


# ---------------------------------------------------------------------------
# Observation


def test_observe_is_pure():
    w = generate(EnvSpec("FourRooms"), 7)
    spec = EnvSpec("FourRooms")
    a = observe(w, spec)
    b = observe(w, spec)
    assert np.array_equal(a, b)
    assert a.shape == (7, 7, 3) and a.dtype == np.uint8


def test_wall_ahead_hides_cells_behind():
    w = GridWorld.empty(13, 13, 100)
    w.obj[7, 1:-1] = Obj.WALL
    w.agent_pos = (6, 6)
    w.agent_dir = Dir.EAST
    obs = observe(w, EnvSpec("FourRooms"))
    # forward axis is decreasing row index; wall one cell ahead fills row 5
    assert np.all(obs[:, 5, 0] == Obj.WALL)
    assert np.all(obs[:, :5, 0] == Obj.UNSEEN)


def test_agent_anchor_center_bottom():
    w = _corridor()
    w.carried = (int(Obj.KEY), int(Color.RED))
    full = observe(w, EnvSpec("FourRooms", view_size=7))
    small = observe(w, EnvSpec("FourRooms", view_size=3))
    assert full[3, 6, 0] == Obj.KEY
    assert small.shape == (3, 3, 3)
    assert small[1, 2, 0] == Obj.KEY  # center bottom of the 3x3


def test_outside_map_is_unseen():
    w = _corridor()
    w.agent_pos = (1, 1)
    w.agent_dir = Dir.NORTH
    obs = observe(w, EnvSpec("FourRooms"))
    # rows beyond the outer wall are off the map
    assert np.all(obs[:, :4, 0] == Obj.UNSEEN)


def test_view3_matches_view7_crop():
    rng = np.random.default_rng(0)
    for task in ("FourRooms", "DoorKey8", "MultiRoomN4S5"):
        env7 = Env(EnvSpec(task, view_size=7), [11])
        env3 = Env(EnvSpec(task, view_size=3), [11])
        env7.reset()
        env3.reset()
        for _ in range(200):
            a = [Action(rng.integers(7))]
            r7 = env7.step(a)
            r3 = env3.step(a)
            assert np.array_equal(r3.obs, r7.obs[:, 2:5, 4:7])
            if r7.done[0]:
                env7.reset()
                env3.reset()


def _flood_by_cell_lookup(obj, state):
    """The visibility flood before the light mask was precomputed: one
    `_see_behind` call per visited cell."""
    def see_behind(o, st_):
        if o == Obj.WALL or o == Obj.UNSEEN:
            return False
        if o == Obj.DOOR and st_ != DoorState.OPEN:
            return False
        return True

    view = core.VIEW
    mask = np.zeros((view, view), dtype=bool)
    mask[core._ANCHOR] = True
    for j in range(view - 1, -1, -1):
        for i in range(0, view - 1):
            if not mask[i, j] or not see_behind(obj[i, j], state[i, j]):
                continue
            mask[i + 1, j] = True
            if j > 0:
                mask[i + 1, j - 1] = True
                mask[i, j - 1] = True
        for i in range(view - 1, 0, -1):
            if not mask[i, j] or not see_behind(obj[i, j], state[i, j]):
                continue
            mask[i - 1, j] = True
            if j > 0:
                mask[i - 1, j - 1] = True
                mask[i, j - 1] = True
    return mask


# walls, doors and unseen cells drawn often enough to block the light
_WINDOW_CELLS = st.sampled_from([Obj.UNSEEN, Obj.EMPTY, Obj.EMPTY, Obj.WALL,
                                 Obj.WALL, Obj.DOOR, Obj.DOOR, Obj.KEY,
                                 Obj.GOAL, Obj.FLOOR])


@settings(max_examples=300, deadline=None)
@given(obj=st.lists(_WINDOW_CELLS, min_size=49, max_size=49),
       state=st.lists(st.sampled_from(list(DoorState)), min_size=49,
                      max_size=49))
def test_visibility_matches_per_cell_flood(obj, state):
    obj = np.array(obj, dtype=np.uint8).reshape(7, 7)
    state = np.array(state, dtype=np.uint8).reshape(7, 7)
    got = core._visibility(obj, state)
    assert got.dtype == bool
    assert np.array_equal(got, _flood_by_cell_lookup(obj, state))


# ---------------------------------------------------------------------------
# State fingerprint


def test_state_id_round_trip():
    w = generate(EnvSpec("DoorKey8"), 3)
    s0 = state_id(w)
    step(w, Action.TURN_LEFT)
    step(w, Action.TURN_RIGHT)
    assert state_id(w) == s0


def test_state_id_ignores_step_count():
    w = generate(EnvSpec("FourRooms"), 3)
    s0 = state_id(w)
    step(w, Action.DONE)
    assert state_id(w) == s0


def test_toggling_door_changes_state_id():
    w = _corridor()
    w.set_cell(2, 1, Obj.DOOR, Color.RED, DoorState.CLOSED)
    before = copy.deepcopy(w)
    s0 = state_id(w)
    step(w, Action.TOGGLE)
    assert state_id(w) != s0
    # oracle: direct field comparison of the two full states
    assert not np.array_equal(before.state, w.state)


def test_different_agent_positions_differ():
    w = _corridor()
    s0 = state_id(w)
    step(w, Action.FORWARD)
    assert state_id(w) != s0


# ---------------------------------------------------------------------------
# Modifiers


def test_zero_noise_is_exact_identity():
    obs = generate(EnvSpec("FourRooms"), 1)
    o = observe(obs, EnvSpec("FourRooms"))
    rng = np.random.default_rng(0)
    out = apply_noise(normalize_obs(o), 0.0, rng)
    assert np.array_equal(out, normalize_obs(o))
    assert out.dtype == np.float32


def test_noise_rejects_negative_sigma():
    o = np.zeros((3, 3, 3), dtype=np.float32)
    with pytest.raises(ValueError):
        apply_noise(o, -1.0, np.random.default_rng(0))


def test_noise_mean_matches_mu():
    # law-of-large-numbers check on the sampler; its mean mu is 0
    n = 1_000_000
    o = normalize_obs(np.zeros((n // 100, 100, 1), dtype=np.uint8))
    rng = np.random.default_rng(5)
    sigma = 0.1
    out = apply_noise(o, sigma, rng)
    assert abs(float(out.mean())) < 3 * sigma / np.sqrt(n)


def test_noise_is_not_clipped():
    o = normalize_obs(np.zeros((64, 64, 3), dtype=np.uint8))
    out = apply_noise(o, 1.0, np.random.default_rng(0))
    assert (out < 0).any() and (out > 1).any()


def test_normalized_channels_in_unit_range():
    w = generate(EnvSpec("DoorKey16"), 0)
    o = normalize_obs(observe(w, EnvSpec("DoorKey16")))
    assert float(o.min()) >= 0.0 and float(o.max()) <= 1.0


def test_hide_obstacles_noop_without_walls():
    o = np.zeros((3, 3, 3), dtype=np.uint8)
    o[..., 0] = Obj.GOAL
    o[..., 1] = Color.GREEN
    assert np.array_equal(hide_obstacles(o), o)


def test_hide_obstacles_masks_walls_but_not_collisions():
    w = _corridor()
    w.agent_pos = (8, 1)  # wall directly ahead at x=9
    obs = hide_obstacles(observe(w, EnvSpec("FourRooms")))
    assert not np.any(obs[..., 0] == Obj.WALL)
    floorish = (obs[..., 0] == Obj.EMPTY) | (obs[..., 0] == Obj.UNSEEN)
    assert np.all(obs[..., 1][floorish] == FLOOR_COLOR)
    r, done = step(w, Action.FORWARD)
    assert w.agent_pos == (8, 1)  # still blocked


def test_hide_obstacles_is_idempotent():
    w = generate(EnvSpec("MultiRoomN4S5"), 2)
    o = observe(w, EnvSpec("MultiRoomN4S5"))
    once = hide_obstacles(o)
    assert np.array_equal(hide_obstacles(once), once)


# ---------------------------------------------------------------------------
# Wrapper determinism and modifier commutation


def _rollout_states(spec, seed, actions):
    env = Env(spec, [seed])
    res = env.reset()
    states = res.state
    for a in actions:
        res = env.step([a])
        states += res.state
        if res.done[0]:
            states += env.reset().state
    return states


def test_env_is_deterministic():
    rng = np.random.default_rng(9)
    actions = [Action(a) for a in rng.integers(0, 7, size=300)]
    spec = EnvSpec("MultiRoomN2S4")
    e1, e2 = Env(spec, [5]), Env(spec, [5])
    r1, r2 = e1.reset(), e2.reset()
    assert np.array_equal(r1.obs, r2.obs)
    for a in actions:
        r1, r2 = e1.step([a]), e2.step([a])
        assert np.array_equal(r1.obs, r2.obs)
        assert np.array_equal(r1.net_obs, r2.net_obs)
        assert r1.reward == r2.reward and r1.state == r2.state
        if r1.done[0]:
            e1.reset(), e2.reset()


def test_modifiers_do_not_change_state_stream():
    rng = np.random.default_rng(13)
    actions = [Action(a) for a in rng.integers(0, 7, size=400)]
    base = EnvSpec("DoorKey8")
    noisy = EnvSpec("DoorKey8", noise_sigma=0.1)
    hidden = EnvSpec("DoorKey8", invisible_obstacles=True, noise_sigma=0.1)
    small = EnvSpec("DoorKey8", view_size=3)
    ref = _rollout_states(base, 21, actions)
    for spec in (noisy, hidden, small):
        assert _rollout_states(spec, 21, actions) == ref


def test_sigma_zero_pipeline_matches_base():
    env = Env(EnvSpec("FourRooms"), [4])
    res = env.reset()
    assert np.array_equal(res.net_obs, normalize_obs(res.obs))


# ---------------------------------------------------------------------------
# Batched Env against a scalar reference stream


def _list_flood(obj, state):
    """The visibility flood before it was table-driven: one 7x7 window,
    flooded as nested Python lists of bools."""
    view = core.VIEW
    clear = ((obj != Obj.WALL) & (obj != Obj.UNSEEN)
             & ((obj != Obj.DOOR) | (state == DoorState.OPEN))).tolist()
    mask = [[False] * view for _ in range(view)]
    mask[core._ANCHOR[0]][core._ANCHOR[1]] = True
    for j in range(view - 1, -1, -1):
        for i in range(0, view - 1):
            if not mask[i][j] or not clear[i][j]:
                continue
            mask[i + 1][j] = True
            if j > 0:
                mask[i + 1][j - 1] = True
                mask[i][j - 1] = True
        for i in range(view - 1, 0, -1):
            if not mask[i][j] or not clear[i][j]:
                continue
            mask[i - 1][j] = True
            if j > 0:
                mask[i - 1][j - 1] = True
                mask[i][j - 1] = True
    return np.array(mask)


def _scalar_observe(world, view_size):
    """One world's observation, gathered and flooded on its own."""
    ax, ay = world.agent_pos
    offsets = core._OFFSETS[world.agent_dir]
    cx, cy = offsets[..., 0] + ax, offsets[..., 1] + ay
    inside = (cx >= 0) & (cx < world.width) & (cy >= 0) & (cy < world.height)
    cx = np.clip(cx, 0, world.width - 1)
    cy = np.clip(cy, 0, world.height - 1)
    obj = np.where(inside, world.obj[cx, cy], Obj.UNSEEN)
    color = np.where(inside, world.color[cx, cy], 0)
    state = np.where(inside, world.state[cx, cy], 0)
    mask = _list_flood(obj, state)
    obj = np.where(mask, obj, Obj.UNSEEN)
    color = np.where(mask, color, 0)
    state = np.where(mask, state, 0)
    anchor = core._ANCHOR
    if world.carried is not None:
        obj[anchor], color[anchor] = world.carried
        state[anchor] = 0
    else:
        obj[anchor], color[anchor], state[anchor] = Obj.EMPTY, 0, 0
    out = np.stack([obj, color, state], axis=-1).astype(np.uint8)
    if view_size == 3:
        out = out[2:5, 4:7]
    return out


def _scalar_state_id(world):
    """One world's fingerprint, packed cell by cell."""
    carried = world.carried
    parts = [bytes((world.agent_pos[0], world.agent_pos[1],
                    int(world.agent_dir),
                    0 if carried is None else carried[0],
                    0 if carried is None else carried[1] + 1))]
    for x, y in np.argwhere(world.obj == Obj.DOOR):
        parts.append(bytes((int(x), int(y), int(world.state[x, y]))))
    movable = ((world.obj == Obj.KEY) | (world.obj == Obj.BALL)
               | (world.obj == Obj.BOX))
    for x, y in np.argwhere(movable):
        parts.append(bytes((int(x), int(y), int(world.obj[x, y]),
                            int(world.color[x, y]))))
    return b"".join(parts)


class _ScalarWorker:
    """One worker as the scalar Env ran it: its own layout and noise RNGs,
    `layouts.generate`, `core.step`, the list flood, per-worker noise."""

    def __init__(self, spec, seed):
        self.spec = spec
        self.layout_rng = np.random.default_rng(
            np.random.SeedSequence([seed, 0]))
        self.noise_rng = np.random.default_rng(
            np.random.SeedSequence([seed, 1]))

    def _result(self, reward, done):
        spec = self.spec
        obs = _scalar_observe(self.world, spec.view_size)
        if spec.invisible_obstacles:
            obs = hide_obstacles(obs)
        net = apply_noise(normalize_obs(obs), spec.noise_sigma,
                          self.noise_rng)
        return obs, net, reward, done, _scalar_state_id(self.world)

    def reset(self):
        self.world = generate(self.spec,
                              int(self.layout_rng.integers(2**31)))
        return self._result(0.0, False)

    def step(self, action):
        reward, done = step(self.world, Action(action))
        return self._result(reward, done)


def _assert_rows_equal(batch, rows):
    """A batched StepResult equals the scalar rows, bit for bit."""
    assert batch.obs.dtype == np.uint8 and batch.net_obs.dtype == np.float32
    assert len(batch.state) == len(rows)
    for i, (obs, net, reward, done, sid) in enumerate(rows):
        assert batch.obs[i].tobytes() == obs.tobytes()
        assert batch.net_obs[i].tobytes() == net.tobytes()
        assert batch.reward[i] == reward and batch.done[i] == done
        assert batch.state[i] == sid


_ENV_VARIANTS = {
    "clean": {},
    "noise0.3": dict(noise_sigma=0.3),
    "invisible": dict(invisible_obstacles=True),
    "view3": dict(view_size=3),
    # the acceptance gates' setting: all three modifiers at once
    "gate": dict(view_size=3, noise_sigma=0.3, invisible_obstacles=True),
}


@pytest.mark.parametrize("variant", _ENV_VARIANTS)
@pytest.mark.parametrize("task", TASKS)
def test_batched_env_matches_scalar_stream(task, variant):
    # short episodes so every worker resets several times; extra resets
    # of random workers, in random order, cover partial batches
    spec = EnvSpec(task, max_steps=25, **_ENV_VARIANTS[variant])
    seeds = [3, 40, 41]
    env = Env(spec, seeds)
    ref = [_ScalarWorker(spec, seed) for seed in seeds]
    _assert_rows_equal(env.reset(), [w.reset() for w in ref])
    tape = np.random.default_rng(TASKS.index(task))
    for _ in range(120):
        actions = tape.integers(0, 7, size=len(seeds))
        res = env.step(actions)
        _assert_rows_equal(res, [w.step(a) for w, a in zip(ref, actions)])
        again = [i for i in tape.permutation(len(seeds))
                 if res.done[i] or tape.random() < 0.05]
        if again:
            _assert_rows_equal(env.reset(again), [ref[i].reset()
                                                  for i in again])


@pytest.mark.parametrize("open_border", [False, True])
@pytest.mark.parametrize("task,seed", [("DoorKey8", 1),
                                       ("MultiRoomN2S4", 3)])
def test_batched_observe_and_state_id_match_scalar_at_every_pose(
        task, seed, open_border):
    # every walkable cell, facing every way, with and without a key (the
    # DoorKey8 layout has a yellow key on the grid). The layout is the
    # second of two worlds, so a wrong per-world offset reads the empty
    # first one, and its windows are cut by the map edge. An outer wall
    # hides every off-map cell, so the open-border case knocks it out to
    # show whether off-map cells are blanked.
    world = generate(EnvSpec(task), seed)
    if open_border:
        world.obj[[0, -1]] = world.obj[:, [0, -1]] = Obj.EMPTY
    blank = GridWorld.empty(world.width, world.height, world.max_steps)
    planes = np.stack([core._planes(w)[:, 0] for w in (blank, world)], 1)
    worlds = []
    for x in range(world.width):
        for y in range(world.height):
            if not world.is_walkable(x, y):
                continue
            for d in Dir:
                for carried in (None, (int(Obj.KEY), int(Color.YELLOW))):
                    worlds.append(copy.copy(world))
                    worlds[-1].agent_pos, worlds[-1].agent_dir = (x, y), d
                    worlds[-1].carried = carried
    pos = np.array([w.agent_pos for w in worlds])
    cells = core._OFFSETS[[w.agent_dir for w in worlds]] + pos[:, None, None]
    assert np.any((cells < 0) | (cells >= (world.width, world.height)))
    rows, poses = [1] * len(worlds), core.pose_rows(worlds)
    for view_size in (7, 3):
        obs = core.observe_batch(planes, rows, poses, view_size)
        for got, w in zip(obs, worlds):
            assert got.tobytes() == _scalar_observe(w, view_size).tobytes()
    assert core.state_id_batch(planes, rows, poses) == [
        _scalar_state_id(w) for w in worlds]


def test_batched_env_worlds_are_views_of_its_planes():
    env = Env(EnvSpec("DoorKey8"), [1, 2])
    env.reset()
    world = env.worlds[1]
    world.set_cell(2, 2, Obj.BALL, Color.RED)
    assert env.planes[0, 1, 2, 2] == Obj.BALL
    assert env.planes[1, 1, 2, 2] == Color.RED
    assert not np.any(env.planes[0, 0] == Obj.BALL)


def test_batched_env_step_before_reset_raises():
    with pytest.raises(core.EnvError):
        Env(EnvSpec("FourRooms"), [0]).step([0])


@pytest.mark.parametrize("actions", [[2], [2, 2, 2, 2]])
def test_batched_env_step_refuses_a_wrong_number_of_actions(actions):
    env = Env(EnvSpec("FourRooms"), [0, 1, 2])
    env.reset()
    before = env.state_arrays()["agents"]
    with pytest.raises(core.EnvError, match=f"{len(actions)} actions for 3"):
        env.step(actions)
    assert env.state_arrays()["agents"] == before


@pytest.mark.parametrize("workers,bad", [([-1], -1), ([3], 3),
                                         ([1, 1], 1), ([0, 2, 0], 0)])
def test_batched_env_reset_refuses_bad_worker_indices(workers, bad):
    env = Env(EnvSpec("FourRooms"), [0, 1, 2])
    env.reset()
    with pytest.raises(core.EnvError, match=f"worker {bad} "):
        env.reset(workers)
    # a refused reset draws no layout: the streams go on as if it never ran
    fresh = Env(EnvSpec("FourRooms"), [0, 1, 2])
    fresh.reset()
    assert env.reset().state == fresh.reset().state


# ---------------------------------------------------------------------------
# Solvability


def _check_solvable(task, seeds):
    spec = EnvSpec(task)
    for seed in seeds:
        w = generate(spec, seed)
        path = solve(w)
        assert path is not None, f"{task} seed {seed} unsolvable"
        replay = copy.deepcopy(w)
        replay.max_steps = 10**9
        reward = 0.0
        for a in path:
            reward, _ = step(replay, a)
        assert reward > 0, f"{task} seed {seed}: plan does not replay to goal"


@pytest.mark.parametrize("task", TASKS)
def test_solvability_smoke(task):
    _check_solvable(task, range(25))


def _door_key_holding_key(seed):
    """A DoorKey8 layout whose key is taken off the grid into the agent's
    hands; fresh layouts carry nothing. Returns (world, key colour)."""
    w = generate(EnvSpec("DoorKey8"), seed)
    (kx,), (ky,) = (w.obj == Obj.KEY).nonzero()
    color = int(w.color[kx, ky])
    w.clear_cell(kx, ky)
    w.carried = (int(Obj.KEY), color)
    return w, color


@pytest.mark.parametrize("seed", range(5))
def test_solver_opens_the_door_with_a_carried_key(seed):
    w, _ = _door_key_holding_key(seed)
    path = solve(w)
    assert path is not None
    assert Action.PICKUP not in path and path.count(Action.TOGGLE) == 1
    replay = copy.deepcopy(w)
    replay.max_steps = 10**9
    for a in path:
        reward, done = step(replay, a)
    assert done and reward > 0


def test_solver_refuses_a_carried_key_of_the_wrong_color():
    w, color = _door_key_holding_key(0)
    w.carried = (int(Obj.KEY), (color + 1) % len(Color))
    assert solve(w) is None


@pytest.mark.slow
@pytest.mark.parametrize("task", TASKS)
def test_solvability_thousand_seeds(task):
    _check_solvable(task, range(1000))


# ---------------------------------------------------------------------------
# Properties


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    actions=st.lists(st.integers(0, 6), min_size=1, max_size=60),
)
def test_agent_stays_on_walkable_cells(seed, actions):
    w = generate(EnvSpec("MultiRoomN4S5"), seed)
    for a in actions:
        if w.done:
            break
        step(w, Action(a))
        assert w.obj[w.agent_pos] in (Obj.EMPTY, Obj.GOAL) or (
            w.obj[w.agent_pos] == Obj.DOOR
            and w.state[w.agent_pos] == DoorState.OPEN
        )
        assert w.step_count <= w.max_steps


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), task=st.sampled_from(TASKS[:4]))
def test_observation_channels_within_enum_ranges(seed, task):
    w = generate(EnvSpec(task), seed)
    o = observe(w, EnvSpec(task))
    assert o[..., 0].max() <= 10 and o[..., 1].max() <= 5
    assert o[..., 2].max() <= 2
