"""Row shards of VecLocomotionEnv.step in worker processes (vsloco.shards)."""

import multiprocessing
import os
import select
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest

from vsloco import dynamics as dyn
from vsloco import shards
from vsloco.env import REASON_CODE, EnvConfig, VecLocomotionEnv


@pytest.fixture
def split_rows(monkeypatch):
    """split_rows(n) makes shards.run split a batch of at least n rows into
    n shards, as in a process that may run on n CPUs, run by worker
    processes of the test's own; it starts no more workers than the process
    has CPUs. After the test they are stopped, and none may be left."""
    cpus = len(os.sched_getaffinity(0))
    monkeypatch.setattr(shards, "_WORKERS", {})
    monkeypatch.setattr(shards, "MIN_SHARD_ROWS", 1)

    def split(n):
        if n - 1 > cpus:
            pytest.skip(f"{n - 1} workers need as many CPUs")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    yield split
    shards.close()
    assert multiprocessing.active_children() == []


def _step(env, actions):
    """Copies of everything one env.step gives and leaves: obs, priv,
    reward, done, the info arrays and reward terms, every state field and
    the env's per-row bookkeeping."""
    obs, priv, reward, done, info = env.step(actions)
    out = {"obs": obs, "priv": priv, "reward": reward, "done": done}
    out.update({key: a for key, a in info.items() if isinstance(a, np.ndarray)})
    breakdown = info["breakdown"]
    out["total"] = breakdown.total
    for kind in ("terms", "weighted"):
        out.update({f"{kind} {key}": a for key, a in getattr(breakdown, kind).items()})
    out.update(vars(env.state))
    for key in ("air_time", "last_tau", "active_push", "command"):
        out[key] = getattr(env, key)
    return {key: np.copy(a) for key, a in out.items()}


def _assert_same(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key], equal_nan=True), key


def _env(n, seed, **config):
    """An env whose 0.4 s episodes hold up to two pushes, from about 0.2 s."""
    return VecLocomotionEnv("HJLS", n_envs=n, seed=seed, config=EnvConfig(
        episode_length_s=0.4, push_interval_s=0.2, push_jitter_s=0.05, **config))


def test_sharded_env_is_bit_identical(split_rows):
    # 7 envs in 1, 2 and 3 row shards (7; 3 + 4; 2 + 2 + 3) over 40 control
    # steps with randomization, pushes and resets. Between their steps an
    # env of 11 rows with 8 substeps per step steps through the same
    # workers: a larger block, and a config to send again each time.
    runs = {}
    for n in (1, 2, 3):
        split_rows(n)
        envs = [_env(7, seed=3), _env(11, seed=4, physics_substeps=8)]
        rng = np.random.default_rng(5)
        runs[n] = [_step(env, rng.uniform(-1, 1, (env.n, env.action_dim)))
                   for _ in range(40) for env in envs]
        assert len(shards._WORKERS) == n - 1
    steps = runs[1][::2]
    assert sum(step["done"].sum() for step in steps) > 7
    assert any(step["push_force"].any() for step in steps)
    assert any(step["cone_saturated"].any() for step in steps)  # rows re-solved sliding
    for n in (2, 3):
        for a, b in zip(runs[n], runs[1], strict=True):
            _assert_same(a, b)


def test_sharded_step_computes_kinematics_per_shard(split_rows, monkeypatch):
    # the clamp, the termination and collision tests and the reward's
    # kinematic inputs run in the shards: the caller computes kinematics
    # only for its own 3 rows, never over the batch of 6
    split_rows(2)
    env = _env(6, seed=10)
    fill, sizes = dyn._fill_kinematics, []

    def counted(tree, st):
        sizes.append(st["q"].shape[-1])
        fill(tree, st)

    monkeypatch.setattr(dyn, "_fill_kinematics", counted)
    done = env.step(np.zeros((6, env.action_dim)))[3]
    assert not done.any() and set(sizes) == {3}


def _row_map(inputs, outputs, scale):
    """A row-wise function for shards.run: each output row from its input row."""
    outputs["y"][...] = inputs["x"] ** 2 + inputs["b"].sum(axis=(1, 2))[:, None]
    outputs["z"][...] = inputs["b"] * scale


def test_shard_copies_take_any_memory_layout(split_rows):
    # a transposed input and an F-order output, beside C-order ones, give
    # in two shards what one direct call gives
    split_rows(2)
    rng = np.random.default_rng(11)
    inputs = {"x": rng.normal(size=(5, 7)).T, "b": rng.normal(size=(7, 3, 2))}
    assert inputs["x"].flags.f_contiguous and not inputs["x"].flags.c_contiguous

    def outputs():
        return {"y": np.empty((7, 5), order="F"), "z": np.empty((7, 3, 2))}

    direct, sharded = outputs(), outputs()
    _row_map(inputs, direct, 1.5)
    shards.run(_row_map, inputs, sharded, 1.5)
    assert len(shards._WORKERS) == 1 and sharded["y"].flags.f_contiguous
    _assert_same(sharded, direct)


def _running(pid):
    """Whether process pid exists and is not a zombie (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_shard_workers_do_not_outlive_their_caller(split_rows):
    # CPUs - 1 workers, none left once stopped (split_rows checks that), and
    # none alive 5 s after a caller that stepped a sharded batch was killed:
    # each worker exits on EOF of its pipe
    split_rows(2)
    env = _env(4, seed=6)
    for _ in range(3):
        env.step(np.zeros((4, env.action_dim)))
    assert len(multiprocessing.active_children()) == 1
    script = textwrap.dedent("""
        import os
        import time
        import numpy as np
        from vsloco import shards
        from vsloco.env import VecLocomotionEnv
        shards.MIN_SHARD_ROWS = 1
        os.sched_getaffinity = lambda pid: {0, 1}
        env = VecLocomotionEnv("PJS", n_envs=4)
        env.step(np.zeros((4, env.action_dim)))
        print(*(worker.process.pid for worker in shards._WORKERS.values()), flush=True)
        time.sleep(60)
    """)
    src = os.path.dirname(os.path.dirname(shards.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    caller = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": path}, text=True)
    try:
        assert select.select([caller.stdout], [], [], 60.0)[0], "the caller printed no worker"
        workers = [int(pid) for pid in caller.stdout.readline().split()]
        assert len(workers) == 1 and _running(workers[0])
    finally:
        caller.kill()
        caller.wait(timeout=10)
        caller.stdout.close()
    deadline = time.monotonic() + 5.0
    while _running(workers[0]) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(workers[0])


def test_shard_error_in_a_worker_raises_in_the_caller(split_rows, monkeypatch):
    # env a steps in two shards, its twin b in one. The patch is in place
    # before the workers fork, so they inherit it: a step with row 4 marked
    # (in a's worker's shard, rows 3 to 5 of 6) raises in both, a's with the
    # worker's traceback, and a worker killed between steps makes a's next
    # step raise RuntimeError instead of hanging, while b fails on a mark.
    # After each error the next step forks a new worker and matches b's.
    step_batch = dyn.step_batch

    def failing(tree, st, *args, **kwargs):
        if np.any(st["time"] == -1.0):
            raise ValueError("a marked row")
        return step_batch(tree, st, *args, **kwargs)

    monkeypatch.setattr(dyn, "step_batch", failing)
    a, b = _env(6, seed=7), _env(6, seed=7)
    rng = np.random.default_rng(8)

    def fail(env, n, actions, error, match):
        split_rows(n)
        t = env.state.time[4]
        if error is ValueError:
            env.state.time[4] = -1.0
        with pytest.raises(error, match=match) as raised:
            env.step(actions)
        env.state.time[4] = t
        return raised.value

    def both():
        actions = rng.uniform(-1, 1, (6, a.action_dim))
        split_rows(2)
        stepped = _step(a, actions)
        split_rows(1)
        _assert_same(stepped, _step(b, actions))

    both()
    actions = rng.uniform(-1, 1, (6, a.action_dim))
    assert "in failing" in fail(a, 2, actions, ValueError, "a marked row").__notes__[-1]
    fail(b, 1, actions, ValueError, "a marked row")
    assert shards._WORKERS == {}
    both()
    worker = shards._WORKERS[0]
    worker.process.kill()
    worker.process.join(timeout=10)
    assert not worker.process.is_alive()
    actions = rng.uniform(-1, 1, (6, a.action_dim))
    fail(a, 2, actions, RuntimeError, "exited")
    fail(b, 1, actions, ValueError, "a marked row")
    both()
    assert shards._WORKERS[0] is not worker


def test_non_finite_row_in_a_worker_shard_is_flagged_and_reset(split_rows):
    # a NaN in row 3, in the worker's shard of rows 2 and 3, ends that env
    # as diverged and resets it, and warns of nothing in either process
    split_rows(2)
    env = _env(4, seed=8)
    env.state.qdot[3, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obs, priv, reward, done, info = env.step(np.zeros((4, env.action_dim)))
    assert len(shards._WORKERS) == 1
    assert info["reasons"].tolist()[3] == REASON_CODE["diverged"] and done[3]
    assert reward[3] == 0.0 and not done[:3].any()
    assert np.isfinite(obs).all() and np.isfinite(priv).all()
    assert not env.state.diverged.any() and np.isfinite(env.state.qdot).all()


def test_a_process_on_one_cpu_starts_no_worker(monkeypatch):
    # the shard count is capped by the CPUs the process may run on when a
    # batch would shard, not at import
    monkeypatch.setattr(shards, "_WORKERS", {})
    monkeypatch.setattr(shards, "MIN_SHARD_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    env = _env(4, seed=9)
    env.step(np.zeros((4, env.action_dim)))
    assert shards._WORKERS == {} and multiprocessing.active_children() == []
