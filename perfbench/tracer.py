"""Span tracer for the traced run.

`Tracer.install` wraps the public entry points of each module where
their callers look them up (module attributes, class methods). Every
call records one span, kept in memory in flat arrays: name id, parent
span id, start and end in nanoseconds. A few entry points also record
counts (Tensor constructions, negative draws, queue admissions) and one
in CHECK_EVERY calls to `intrinsic_reward` is compared with a
brute-force loop. `layer_metrics` reduces the spans of the warm
iterations to the per-layer metrics; `save` writes the spans out.

Wrapping changes no arithmetic and draws no random numbers, so traced
training rows are bit-identical to untraced ones.
"""
from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

import gridexplore.envs.core as envs_core
import gridexplore.harness.trainer as harness_trainer
import gridexplore.intrinsic as intrinsic
import gridexplore.methods as methods
from gridexplore import baselines
from gridexplore.envs import Env
from gridexplore.harness import ExplorationTracker
from gridexplore.nn import Adam, Tensor
from gridexplore.ppo import ActorCritic, Collector

from checks import brute_force_reward

ROOT = "harness.Trainer.train_iteration"
METHOD_CLASSES = {cls.name: cls for cls in (
    methods.NoIntrinsic, methods.Deir, methods.PlainNovelty,
    methods.ForwardError, methods.InverseDriven, methods.Rnd)}
DISC_METHODS = ("DEIR", "PlainNovelty")
CHECK_EVERY = 97  # one intrinsic_reward call in this many is brute-forced
WARM_FROM = 1  # the first traced iteration is a warm-up

# per-layer metric -> (unit, the end-to-end metric and workload it moves)
_ALL = "every workload"
_NOINT = "most on nointrinsic_multiroom"
_DEIR = "both DEIR workloads"
LAYER_METRICS = {
    "envs.step_us_p50": ("us", f"frames_per_s, cpu_s_per_kframe; {_NOINT} "
                               "and deir_doorkey8_noisy"),
    "envs.step_us_p99": ("us", "frames_per_s; most on deir_doorkey8_noisy"),
    "envs.observe_us_p50": ("us", "frames_per_s; most on deir_doorkey8_noisy"),
    "envs.state_id_us_p50": ("us", f"frames_per_s, cpu_s_per_kframe; {_ALL}"),
    "envs.reset_us_p50": ("us", "frames_per_s on the multiroom workloads, "
                                "not deir_doorkey8_noisy"),
    "envs.resets_per_iter": ("count", "explains envs.reset_us_p50; no move"),
    "envs.busy_s_per_iter": ("s", f"frames_per_s, cpu_s_per_kframe; {_NOINT}"),
    "ppo.act_ms_p50": ("ms", f"frames_per_s; {_NOINT}"),
    "ppo.collect_self_s_per_iter": ("s", f"frames_per_s; {_NOINT}"),
    "ppo.update_s_per_iter": ("s", f"frames_per_s; {_NOINT}"),
    "ppo.update_fwd_s_per_iter": ("s", f"frames_per_s; {_NOINT}"),
    "ppo.update_bwd_s_per_iter": ("s", f"frames_per_s; {_NOINT}"),
    "nn.tensors_per_iter": ("count", f"frames_per_s, peak_rss_mb; {_ALL}, "
                                     "most deir_multiroom"),
    "nn.f64_tensor_frac": ("fraction", f"frames_per_s, peak_rss_mb; {_ALL}"),
    "nn.backward_calls_per_iter": ("count", f"frames_per_s; {_ALL}"),
    "nn.adam_s_per_iter": ("s", f"frames_per_s; {_ALL}"),
    "methods.step_ms_p50": ("ms", "frames_per_s; deir_doorkey8_noisy more "
                                  "than deir_multiroom"),
    "intrinsic.reward_us_p50": ("us", "frames_per_s; deir_doorkey8_noisy "
                                      "more than deir_multiroom"),
    "intrinsic.mem_len_mean": ("count", "frames_per_s; deir_doorkey8_noisy "
                                        "more than deir_multiroom"),
    "methods.update_s_per_iter": ("s", f"frames_per_s; {_DEIR}, "
                                       "forward_multiroom_noisy"),
    "intrinsic.disc_fwd_s_per_iter": ("s", f"frames_per_s; {_DEIR}"),
    "intrinsic.disc_bwd_s_per_iter": ("s", f"frames_per_s; {_DEIR}"),
    "intrinsic.build_batch_s_per_iter": ("s", f"frames_per_s; {_DEIR}"),
    "intrinsic.neg_hit_frac": ("fraction", f"frames_per_s; {_DEIR}"),
    "intrinsic.neg_shortfall_per_iter": ("count", f"frames_per_s; {_DEIR}"),
    "intrinsic.queue_admit_frac": ("fraction", "peak_rss_mb, ckpt_bytes; "
                                               "deir_doorkey8_noisy"),
    "baselines.loss_fwd_s_per_iter": ("s", "frames_per_s; "
                                           "forward_multiroom_noisy only"),
    "baselines.loss_bwd_s_per_iter": ("s", "frames_per_s; "
                                           "forward_multiroom_noisy only"),
    "harness.ckpt_save_s": ("s", f"goes with ckpt_bytes; {_ALL}"),
    "harness.resume_s": ("s", f"goes with ckpt_bytes; {_ALL}"),
    "harness.tracker_s_per_iter": ("s", "frames_per_s; predicted no move"),
    "trace.unattributed_s_per_iter": ("s", "iteration time outside every "
                                           "wrapped entry point"),
    "trace.overhead_frac": ("fraction", "traced over untraced iteration "
                                        "time, minus 1"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patched = []
        self.iteration = -1  # index of the iteration being traced
        self.roots: list[int] = []  # root span id of each iteration
        self._tensors = [0, 0]  # constructed, float64; current iteration
        self.tensor_counts: list[tuple[int, int]] = []
        self.notes = defaultdict(list)  # name -> [(iteration, value)]
        self._reward_calls = 0
        self.reward_mismatches: list[int] = []  # iterations

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _note(self, name, value):
        if self.iteration >= 0:
            self.notes[name].append((self.iteration, value))

    def span(self, fn, name):
        """`fn` wrapped to record one span per call."""
        nid = self._id(name)
        stack, start, end = self._stack, self.start, self.end
        name_id, parent = self.name_id, self.parent
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner).get(attr),
                              attr in vars(owner)))
        setattr(owner, attr, new)

    def _wrap(self, owner, attr, name):
        self._patch(owner, attr, self.span(getattr(owner, attr), name))

    # -- installation ------------------------------------------------------

    def install(self, method_name):
        for owner, attr, name in (
            (Env, "step", "envs.Env.step"),
            (Env, "reset", "envs.Env.reset"),
            (envs_core, "observe", "envs.core.observe"),
            (envs_core, "state_id", "envs.core.state_id"),
            (ActorCritic, "act", "ppo.ActorCritic.act"),
            (Collector, "collect", "ppo.Collector.collect"),
            (harness_trainer, "ppo_update", "harness.trainer.ppo_update"),
            (Tensor, "backward", "nn.Tensor.backward"),
            (Adam, "step", "nn.Adam.step"),
            (ExplorationTracker, "update",
             "harness.ExplorationTracker.update"),
            (methods, "disc_loss", "methods.disc_loss"),
            (baselines.ForwardModel, "loss", "baselines.loss"),
            (baselines.InverseModel, "loss", "baselines.loss"),
            (baselines.RndModel, "loss", "baselines.loss"),
        ):
            self._wrap(owner, attr, name)
        cls = METHOD_CLASSES[method_name]
        for attr in ("step", "h_prev", "on_reset", "update"):
            self._wrap(cls, attr, f"methods.{attr}")
        self._install_counted()
        return self

    def _install_counted(self):
        """Entry points that also record counts or run a check."""
        tracer = self
        root = self.span(harness_trainer.Trainer.train_iteration, ROOT)

        def train_iteration(trainer):
            tracer.iteration = len(tracer.roots)
            tracer.roots.append(len(tracer.start))
            tracer._tensors = [0, 0]
            try:
                return root(trainer)
            finally:
                tracer.tensor_counts.append(tuple(tracer._tensors))
                tracer.iteration = -1

        tensor_init = Tensor.__init__
        f64 = np.dtype(np.float64)

        def init(t, data, _prev=()):
            tensor_init(t, data, _prev)
            counts = tracer._tensors
            counts[0] += 1
            if t.data.dtype == f64:
                counts[1] += 1

        sample = self.span(intrinsic.sample_negative,
                           "intrinsic.sample_negative")

        def sample_negative(q, true_next, rng):
            item = sample(q, true_next, rng)
            tracer._note("neg_hit", item is not None)
            return item

        build = self.span(methods.build_disc_batch, "methods.build_disc_batch")

        def build_disc_batch(positives, q, size, rng):
            batch = build(positives, q, size, rng)
            negatives = int((batch["label"] == 0).sum())
            tracer._note("neg_shortfall", size // 2 - negatives)
            return batch

        admit = self.span(methods.update_queue, "methods.update_queue")

        def update_queue(q, obs, net_obs, r_i):
            before = (q.count, q._start)
            admit(q, obs, net_obs, r_i)
            tracer._note("queue_admit", (q.count, q._start) != before)

        reward = self.span(methods.intrinsic_reward,
                           "methods.intrinsic_reward")

        def intrinsic_reward(e_obs_next, e_traj_t, memory, terminal,
                             epsilon=intrinsic.EPSILON):
            tracer._note("mem_len", memory.count)
            check = (tracer.iteration >= 0
                     and tracer._reward_calls % CHECK_EVERY == 0)
            tracer._reward_calls += 1
            if check:
                mem = (memory.obs.copy(), memory.traj.copy())
            r = reward(e_obs_next, e_traj_t, memory, terminal, epsilon)
            if check and r != brute_force_reward(*mem, e_obs_next, e_traj_t,
                                                 epsilon):
                tracer.reward_mismatches.append(tracer.iteration)
            return r

        self._patch(harness_trainer.Trainer, "train_iteration",
                    train_iteration)
        self._patch(Tensor, "__init__", init)
        self._patch(intrinsic, "sample_negative", sample_negative)
        self._patch(methods, "build_disc_batch", build_disc_batch)
        self._patch(methods, "update_queue", update_queue)
        self._patch(methods, "intrinsic_reward", intrinsic_reward)

    def uninstall(self):
        for owner, attr, old, had in reversed(self._patched):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int32),
            "start_ns": np.asarray(self.start, dtype=np.int64),
            "end_ns": np.asarray(self.end, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, method_name):
        """Per-layer metrics over the warm traced iterations."""
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        n = len(nid)
        dur = (a["end_ns"] - a["start_ns"]) / 1e9
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        # each iteration's spans are its root and the spans up to the
        # next top-level span
        iteration = np.full(n, -1)
        tops = np.flatnonzero(parent == -1)
        for k, r in enumerate(self.roots):
            later = tops[tops > r]
            iteration[r : later[0] if len(later) else n] = k
        warm = iteration >= WARM_FROM
        n_warm = len(self.roots) - WARM_FROM
        if n_warm < 1:
            raise ValueError("no warm traced iterations")
        parent_name = np.where(has_parent, nid[np.maximum(parent, 0)], -1)

        def sel(name, under=None):
            mask = warm & (nid == self._ids.get(name, -1))
            if under is not None:
                mask &= parent_name == self._ids.get(under, -1)
            return mask

        def total(name, under=None, values=dur):
            """Per-iteration sum of `values` over the spans of `name`."""
            return float(values[sel(name, under)].sum()) / n_warm

        def pct(name, q, scale):
            mask = sel(name)
            if not mask.any():
                return 0.0
            return float(np.percentile(dur[mask], q)) * scale

        def notes(name):
            return [v for it, v in self.notes[name] if it >= WARM_FROM]

        def mean(values):
            return float(np.mean(values)) if values else 0.0

        bwd, update = "nn.Tensor.backward", "harness.trainer.ppo_update"
        model_bwd = total(bwd, under="methods.update")
        disc = method_name in DISC_METHODS
        tensors = sum(c for c, _ in self.tensor_counts[WARM_FROM:])
        f64 = sum(f for _, f in self.tensor_counts[WARM_FROM:])
        return {
            "envs.step_us_p50": pct("envs.Env.step", 50, 1e6),
            "envs.step_us_p99": pct("envs.Env.step", 99, 1e6),
            "envs.observe_us_p50": pct("envs.core.observe", 50, 1e6),
            "envs.state_id_us_p50": pct("envs.core.state_id", 50, 1e6),
            "envs.reset_us_p50": pct("envs.Env.reset", 50, 1e6),
            "envs.resets_per_iter": sel("envs.Env.reset").sum() / n_warm,
            "envs.busy_s_per_iter": (total("envs.Env.step")
                                     + total("envs.Env.reset")),
            "ppo.act_ms_p50": pct("ppo.ActorCritic.act", 50, 1e3),
            "ppo.collect_self_s_per_iter": total("ppo.Collector.collect",
                                                 values=self_s),
            "ppo.update_s_per_iter": total(update),
            "ppo.update_fwd_s_per_iter": total(update, values=self_s),
            "ppo.update_bwd_s_per_iter": total(bwd, under=update),
            "nn.tensors_per_iter": tensors / n_warm,
            "nn.f64_tensor_frac": f64 / max(tensors, 1),
            "nn.backward_calls_per_iter": sel(bwd).sum() / n_warm,
            "nn.adam_s_per_iter": total("nn.Adam.step"),
            "methods.step_ms_p50": pct("methods.step", 50, 1e3),
            "intrinsic.reward_us_p50": pct("methods.intrinsic_reward", 50,
                                           1e6),
            "intrinsic.mem_len_mean": mean(notes("mem_len")),
            "methods.update_s_per_iter": total("methods.update"),
            "intrinsic.disc_fwd_s_per_iter": total("methods.disc_loss"),
            "intrinsic.disc_bwd_s_per_iter": model_bwd if disc else 0.0,
            "intrinsic.build_batch_s_per_iter": total(
                "methods.build_disc_batch"),
            "intrinsic.neg_hit_frac": mean(notes("neg_hit")),
            "intrinsic.neg_shortfall_per_iter": (sum(notes("neg_shortfall"))
                                                 / n_warm),
            "intrinsic.queue_admit_frac": mean(notes("queue_admit")),
            "baselines.loss_fwd_s_per_iter": total("baselines.loss"),
            "baselines.loss_bwd_s_per_iter": 0.0 if disc else model_bwd,
            "harness.tracker_s_per_iter": total(
                "harness.ExplorationTracker.update"),
            "trace.unattributed_s_per_iter": total(ROOT, values=self_s),
        }
