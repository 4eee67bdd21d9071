"""The benchmark's workloads: desk-scale training configs taken from the
acceptance gate's runs.

Every workload trains `harness.Trainer` with the gate's desk-scale
networks (embed 16, hidden 32, channels 8/16/16) on 16 workers.
Rollouts are 32 steps, so one iteration is 512 frames: the gate's
512-step rollouts would allow one or two iterations per timed run.
Per-frame work is the same: PPO and the bonus model still train 4
epochs of 512-row minibatches.
"""
from __future__ import annotations

DESK = dict(embed_dim=16, hidden=32, channels=(8, 16, 16), workers=16,
            rollout_steps=32)

WORKLOADS = {
    # gate run c4: the ROADMAP headline, discriminator update dominates
    "deir_multiroom": dict(method="DEIR", task="MultiRoomN2S4"),
    # the gate's NoIntrinsic control: bypasses every bonus layer
    "nointrinsic_multiroom": dict(method="NoIntrinsic", task="MultiRoomN2S4"),
    # c8 task with the c5 noise: long episodes, large memories, noisy queue
    "deir_doorkey8_noisy": dict(method="DEIR", task="DoorKey8",
                                noise_sigma=0.1),
    # gate run c6_forward_noisy: the only workload that runs baselines
    "forward_multiroom_noisy": dict(method="ForwardError",
                                    task="MultiRoomN2S4", noise_sigma=0.1),
}


def make_config(name):
    """ExperimentConfig for a named workload."""
    from gridexplore.harness import ExperimentConfig

    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {', '.join(WORKLOADS)}")
    return ExperimentConfig(**DESK, **WORKLOADS[name])
