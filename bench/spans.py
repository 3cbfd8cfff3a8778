"""Self-time spans around vsloco's public functions, installed from outside.

The tracer replaces each target function (or method) with a wrapper wherever
the object is bound in a loaded ``vsloco`` module, so a call through
``from .rewards import compute_reward_terms`` is caught as well as a call
through ``act.decode_action``. A span's self time is its duration minus the
durations of the spans opened inside it, so the self times of all targets
plus the caller's own time add up to the traced wall time.

Wrappers stay installed until ``uninstall``; ``on`` switches recording, so a
run can alternate traced and untraced blocks without re-patching. An
inactive wrapper costs one extra Python call.
"""

import importlib
import sys
import time

# module.function or module.Class.method, relative to the vsloco package.
TARGETS = (
    "dynamics.step_batch",
    "dynamics.contact_force_law",
    "randomization.sample_observation_noise",
    "randomization.sample_episode",
    "networks.MLP.forward",
    "networks.MLP.backward",
    "networks.Adam.step",
    "ppo.PPOAgent.update",
    "ppo.compute_gae",
    "checkpoint.PolicyBundle.act_sampled",
    "checkpoint.PolicyBundle.value",
    "actuation.decode_action",
    "actuation.compute_torque_randomized",
    "rewards.compute_reward_terms",
    "env.VecLocomotionEnv.step",
    "env.VecLocomotionEnv.observe",
    "env.VecLocomotionEnv.observe_privileged",
)


class Tracer:
    """Per-target self time (seconds) and call counts while ``on``."""

    def __init__(self):
        self.targets = TARGETS
        self.self_s = dict.fromkeys(self.targets, 0.0)
        self.calls = dict.fromkeys(self.targets, 0)
        self.on = False
        self._open = []  # child time accumulated by each open span
        self._patches = []  # (owner, attribute, original object)

    def _wrap(self, name, fn):
        clock = time.perf_counter
        open_spans, self_s, calls = self._open, self.self_s, self.calls

        def span(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[name] += elapsed - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        span.__wrapped__ = fn
        return span

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for name in self.targets:
            module_name, *path = name.split(".")
            module = importlib.import_module(f"vsloco.{module_name}")
            owner = module
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            original = owner.__dict__[attr]
            wrapped = self._wrap(name, original)
            self._patch(owner, attr, wrapped)
            if owner is module:
                for mod_name, other in list(sys.modules.items()):
                    if (mod_name.startswith("vsloco.") and other is not module
                            and getattr(other, attr, None) is original):
                        self._patch(other, attr, wrapped)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.on = False
