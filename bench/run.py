"""vsloco benchmark: PPO iteration time and env-steps/s on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports vsloco from ``src/`` of the checkout this file sits in and drives it
through its public API (``ppo.train``, ``env.VecLocomotionEnv``). With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced blocks and reports the per-layer split and
the workload properties. Readable lines come first; the last line of stdout
is one JSON object. See README.md for the workloads and the metric map.
"""

import os

# One process; BLAS threads pinned to at most two and never above the core
# count. This must happen before numpy loads.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, namedtuple  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from vsloco import env as venv  # noqa: E402
from vsloco import ppo  # noqa: E402
from vsloco.rewards import REWARD_TERMS  # noqa: E402

# Every loop is closed: a step or iteration starts when the previous ended.
# A block is the unit that is timed, and that is traced or not as a whole.
WORKLOADS = {
    # The number users wait on: one PPO iteration (rollout + update).
    "train_hjls_256": {
        "kind": "train", "grouping": "HJLS", "n_envs": 256, "steps_per_rollout": 24,
        "hidden": [512, 256, 128], "epochs": 5, "minibatches": 4,
    },
    # Large batch, no networks: batched dynamics and per-env observation noise.
    "stand_pjs_1024": {
        "kind": "env", "grouping": "PJS", "n_envs": 1024, "actions": "zero",
        "block_steps": 5, "min_steps": 1,
    },
    # Per-call overhead of the evaluation path at N = 1 over a whole episode.
    # Not in BENCHMARK.json: host speed phases move it by more than the
    # largest bound BENCHMARK.json may set (README.md). Run it by hand.
    "single_ijs_1": {
        "kind": "env", "grouping": "IJS", "n_envs": 1, "actions": "uniform",
        "block_steps": 10, "min_steps": 1000,
    },
}

# Sizes small enough for a smoke test; the code path is the same.
TINY = {
    "train_hjls_256": {"n_envs": 8, "steps_per_rollout": 4, "hidden": [16, 16],
                       "epochs": 1, "minibatches": 2},
    "stand_pjs_1024": {"n_envs": 8, "block_steps": 1},
    "single_ijs_1": {"block_steps": 2, "min_steps": 4},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "env_steps_per_s": "1/s",
    "iter_s": "s",
    "peak_rss_mb": "MB",
}

# Set-up is sampled in slots spread over the run, so that its samples see
# the same machine as the blocks do; a slot is at least one sample and
# SETUP_SLOT_S of them.
SETUP_SLOTS = 10
SETUP_SLOT_S = 0.1
MIN_BLOCKS = 2  # so a traced run always has an untraced and a traced block

QUAT_NORM_TOL = 1e-9
REWARD_SUM_TOL = 1e-12
SATURATION_TOL = 1e-9


# timed_s is the time the block's metrics use; wall_s also covers the
# benchmark's own work in the block (actions, checks, counts).
Block = namedtuple("Block", "timed_s wall_s control_steps env_steps traced")


class _Stop(Exception):
    """Raised from a hook to end ``ppo.train`` at an iteration boundary."""


@contextlib.contextmanager
def patched(owner, attr, new):
    original = owner.__dict__[attr]
    setattr(owner, attr, new)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def check_step(env, obs, priv, reward, info):
    """Names of the output checks that one env.step result fails."""
    failed = []
    if not (np.isfinite(obs).all() and np.isfinite(priv).all() and np.isfinite(reward).all()):
        failed.append("finite")
    s = env.state
    if np.any(np.abs(np.linalg.norm(s.base_quat, axis=1) - 1.0) > QUAT_NORM_TOL):
        failed.append("unit_quaternion")
    lo, hi = env.q_limits
    if np.any((s.q < lo) | (s.q > hi)):
        failed.append("joint_limits")
    weighted = info["breakdown"].weighted
    if not np.allclose(reward, sum(weighted[t] for t in REWARD_TERMS),
                       rtol=REWARD_SUM_TOL, atol=REWARD_SUM_TOL):
        failed.append("reward_sum")
    if np.any(info["reasons"] == venv.REASON_CODE["diverged"]) or np.any(s.diverged):
        failed.append("diverged")
    return failed


class Run:
    """Everything one run measures, counts and checks."""

    def __init__(self, trace):
        self.tracer = spans.Tracer().install() if trace else None
        self.inner_step = venv.VecLocomotionEnv.step
        self.setup_s = []
        self.setup_slots = 0
        self.step_s = []  # wall time of each env.step call
        self.blocks = []
        self.update_s = []
        self.attempted = 0
        self.failed = 0
        self.failed_checks = Counter()
        self.env_steps = 0
        self.feet = self.contacts = self.saturated = 0
        self.resets = 0
        self.reasons = np.zeros(len(venv.TERMINATION_REASONS), dtype=np.int64)

    @property
    def traced(self):
        return self.tracer is not None and self.tracer.on

    def start_block(self):
        """Alternate untraced and traced blocks, beginning untraced."""
        if self.tracer is not None:
            self.tracer.on = len(self.blocks) % 2 == 1

    def end_block(self, timed_s, wall_s, control_steps, env_steps):
        self.blocks.append(Block(timed_s, wall_s, control_steps, env_steps, self.traced))
        if self.tracer is not None:
            self.tracer.on = False

    def done(self, started, seconds, steps_done, min_steps):
        return (time.perf_counter() - started >= seconds and steps_done >= min_steps
                and len(self.blocks) >= MIN_BLOCKS)

    def set_up(self, make):
        """One slot of set-up samples; returns the last object made."""
        self.setup_slots += 1
        began = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            made = make()
            t1 = time.perf_counter()
            self.setup_s.append(t1 - t0)
            if t1 - began >= SETUP_SLOT_S:
                return made

    def spread_set_up(self, make, started, seconds):
        """Take the next set-up slot once its share of the run has passed."""
        if self.setup_slots < SETUP_SLOTS and (
            time.perf_counter() - started >= seconds * self.setup_slots / SETUP_SLOTS
        ):
            self.set_up(make)

    def step(self, env, actions):
        """One timed env.step, then its output checks and counts."""
        t0 = time.perf_counter()
        obs, priv, reward, done, info = self.inner_step(env, actions)
        elapsed = time.perf_counter() - t0
        self.step_s.append(elapsed)
        self.attempted += 1
        failed = check_step(env, obs, priv, reward, info)
        if failed:
            self.failed += 1
            self.failed_checks.update(failed)
        self._count(env, done, info)
        return (obs, priv, reward, done, info), elapsed

    def _count(self, env, done, info):
        s = env.state
        flags = s.contact_flags
        f = s.contact_forces
        limit = env.params.friction[:, None] * f[..., 2]
        tangent = np.hypot(f[..., 0], f[..., 1])
        self.env_steps += env.n
        self.feet += flags.size
        self.contacts += int(flags.sum())
        self.saturated += int((flags & (tangent >= (1.0 - SATURATION_TOL) * limit)).sum())
        self.resets += int(done.sum())
        self.reasons += np.bincount(info["reasons"][done], minlength=self.reasons.size)

    def fail(self, where):
        """An exception from the program: one failed operation, run ends."""
        traceback.print_exc(file=sys.stderr)
        self.attempted += 1
        self.failed += 1
        self.failed_checks[f"exception in {where}"] += 1

    def close(self):
        if self.tracer is not None:
            self.tracer.uninstall()


def run_env(spec, seed, seconds, run):
    n, grouping = spec["n_envs"], spec["grouping"]

    def make():
        return venv.VecLocomotionEnv(grouping, n_envs=n, seed=seed)

    env = run.set_up(make)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xAC7)))
    zero = np.zeros((n, env.action_dim))
    started = time.perf_counter()
    steps = 0
    while not run.done(started, seconds, steps, spec["min_steps"]):
        run.start_block()
        wall0 = time.perf_counter()
        timed = 0.0
        for _ in range(spec["block_steps"]):
            actions = zero if spec["actions"] == "zero" else rng.uniform(-1.0, 1.0, zero.shape)
            try:
                _, elapsed = run.step(env, actions)
            except Exception:
                run.fail("VecLocomotionEnv.step")
                return
            timed += elapsed
        steps += spec["block_steps"]
        run.end_block(timed, time.perf_counter() - wall0, spec["block_steps"],
                      n * spec["block_steps"])
        run.spread_set_up(make, started, seconds)


def run_train(spec, seed, seconds, run):
    """ppo.train until ``seconds`` have passed, timed by iteration.

    Set-up samples are calls of ppo.train cut off when its rollout buffer
    exists, taken before the run and between iterations.
    """
    cfg = ppo.TrainConfig(
        n_envs=spec["n_envs"], n_iterations=10**9, steps_per_rollout=spec["steps_per_rollout"],
        hidden=list(spec["hidden"]), epochs=spec["epochs"], minibatches=spec["minibatches"],
        checkpoint_every=0, seed=seed,
    )
    steps_per_iter = spec["steps_per_rollout"]
    env_steps_per_iter = spec["n_envs"] * steps_per_iter
    allocate = ppo.allocate_buffer
    update = ppo.PPOAgent.update
    state = {"probe": False}

    def train():
        try:
            ppo.train(spec["grouping"], cfg, out_dir)
        except _Stop:
            pass

    def probe():
        state["probe"] = True
        try:
            train()
        finally:
            state["probe"] = False

    def allocate_hook(*args):
        buffer = allocate(*args)
        if state["probe"]:
            raise _Stop
        state["started"] = state["iter_start"] = time.perf_counter()
        run.start_block()
        return buffer

    def update_hook(agent, buffer, rng):
        t0 = time.perf_counter()
        stats = update(agent, buffer, rng)
        t1 = time.perf_counter()
        run.update_s.append(t1 - t0)
        run.attempted += 1
        iter_s = t1 - state["iter_start"]
        run.end_block(iter_s, iter_s, steps_per_iter, env_steps_per_iter)
        if run.done(state["started"], seconds, 1, 1):
            raise _Stop
        run.spread_set_up(probe, state["started"], seconds)
        state["iter_start"] = time.perf_counter()
        run.start_block()
        return stats

    def step_hook(env, actions):
        return run.step(env, actions)[0]

    with contextlib.ExitStack() as stack:
        out_dir = stack.enter_context(tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT))
        stack.enter_context(patched(ppo, "allocate_buffer", allocate_hook))
        stack.enter_context(patched(ppo.PPOAgent, "update", update_hook))
        stack.enter_context(patched(venv.VecLocomotionEnv, "step", step_hook))
        run.set_up(probe)
        try:
            train()
        except Exception:
            run.fail("ppo.train")


def _median(values):
    return statistics.median(values) if values else float("nan")


def _median_rate(blocks, traced):
    return _median([b.env_steps / b.timed_s for b in blocks if b.traced == traced])


def end_to_end_metrics(run):
    untraced = [b for b in run.blocks if not b.traced]
    iter_s = _median([b.timed_s for b in untraced])
    return {
        "setup_s": _median(run.setup_s),
        "env_steps_per_s": untraced[0].env_steps / iter_s,
        "iter_s": iter_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(run):
    """Self time per control step of each traced function, and the counts."""
    metrics = {}
    traced = [b for b in run.blocks if b.traced]
    steps = sum(b.control_steps for b in traced)
    wall_s = sum(b.wall_s for b in traced)
    tracer = run.tracer
    for name in tracer.targets:
        metrics[f"{name}.ms_per_step"] = (tracer.self_s[name] / steps * 1e3, "ms")
        metrics[f"{name}.calls_per_step"] = (tracer.calls[name] / steps, "calls")
    remainder = wall_s - sum(tracer.self_s.values())
    metrics["caller.remainder.ms_per_step"] = (remainder / steps * 1e3, "ms")
    metrics["trace.wall_ms_per_step"] = (wall_s / steps * 1e3, "ms")
    overhead = _median_rate(run.blocks, False) - _median_rate(run.blocks, True)
    metrics["trace.overhead_env_steps_per_s"] = (overhead, "1/s")
    per_1k = 1e3 / run.env_steps
    metrics["dynamics.contact_frac"] = (run.contacts / run.feet, "fraction")
    metrics["dynamics.cone_saturated_frac"] = (run.saturated / max(run.contacts, 1), "fraction")
    metrics["env.resets_per_1k_env_steps"] = (run.resets * per_1k, "1/1k_env_steps")
    for name, count in zip(venv.TERMINATION_REASONS, run.reasons):
        metrics[f"env.term.{name}"] = (int(count) * per_1k, "1/1k_env_steps")
    update_s = rollout_s = 0.0
    if run.update_s:  # one block per PPO iteration, ending with its update
        update_s = _median(run.update_s)
        rollout_s = _median([b.timed_s - up for b, up in zip(run.blocks, run.update_s)])
    metrics["ppo.update_s"] = (update_s, "s")
    metrics["ppo.rollout_s"] = (rollout_s, "s")
    metrics["failed_frac"] = (run.failed / run.attempted, "fraction")
    return metrics


def environment():
    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def run_workload(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns (result dict for the JSON line, readable lines)."""
    spec = dict(WORKLOADS[name], **(TINY[name] if tiny else {}))
    run = Run(trace)
    try:
        (run_train if spec["kind"] == "train" else run_env)(spec, seed, seconds, run)
    finally:
        run.close()
    kinds = {b.traced for b in run.blocks}
    if False not in kinds or (trace and True not in kinds):
        raise RuntimeError(f"workload {name} failed before its blocks were measured")
    lines = [f"environment {json.dumps(environment(), sort_keys=True)}",
             f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}"]
    if trace:
        metrics = per_layer_metrics(run)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end_metrics(run).items()}
        lines.append(f"samples setup {len(run.setup_s)} blocks {len(run.blocks)} "
                     f"steps {len(run.step_s)}")
        lines.append(f"step_ms_p99 {np.percentile(run.step_s, 99) * 1e3} ms")
        lines.append(f"failed_frac {run.failed / run.attempted} fraction")
    lines += [f"{k} {v} {unit}" for k, (v, unit) in metrics.items()]
    if run.failed_checks:
        lines.append(f"failed checks {dict(run.failed_checks)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
