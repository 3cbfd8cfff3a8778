"""Checkpoint container round-trips and training loop plumbing."""

import json
import os
import struct

import numpy as np
import pytest

from vsloco.checkpoint import (
    PolicyBundle,
    _collect_arrays,
    load_checkpoint,
    obs_scale_vector,
    priv_scale_vector,
    read_header,
    save_checkpoint,
)
from vsloco.networks import Critic, GaussianActor
from vsloco.ppo import TrainConfig, train


def make_bundle(grouping="PLS", seed=0):
    rng = np.random.default_rng(seed)
    obs_dim = 36 + {"PLS": 16, "FixedP20": 12}[grouping]
    priv_dim = 45 + obs_dim
    adim = obs_dim - 36
    actor = GaussianActor(obs_dim, adim, [32, 16], rng)
    critic = Critic(priv_dim, [32, 16], rng)
    return PolicyBundle(
        grouping, actor, critic, obs_scale_vector(grouping), priv_scale_vector(grouping),
        config={"note": "test"},
    )


def test_checkpoint_round_trip(tmp_path):
    bundle = make_bundle()
    path = tmp_path / "p.ckpt"
    save_checkpoint(str(path), bundle, extra_config={"iteration": 3})
    loaded = load_checkpoint(str(path))
    assert loaded.grouping == "PLS"
    assert loaded.config["iteration"] == 3
    obs = np.random.default_rng(1).normal(0, 1, (5, 52)).astype(np.float32)
    assert np.array_equal(bundle.act_deterministic(obs), loaded.act_deterministic(obs))
    priv = np.random.default_rng(2).normal(0, 1, (5, 97)).astype(np.float32)
    assert np.array_equal(bundle.value(priv), loaded.value(priv))



def test_checkpoint_blob_offset_from_stored_header_length(tmp_path):
    # any valid header formatting loads: the blob starts after the stored length
    bundle = make_bundle()
    path = tmp_path / "p.ckpt"
    save_checkpoint(str(path), bundle)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    payload = json.dumps(header, indent=1).encode("utf-8")
    assert len(payload) != hlen
    path.write_bytes(raw[:8] + struct.pack("<Q", len(payload)) + payload + raw[16 + hlen:])
    loaded = _collect_arrays(load_checkpoint(str(path)))
    original = _collect_arrays(bundle)
    assert [name for name, _ in loaded] == [name for name, _ in original]
    for (name, a), (_, b) in zip(original, loaded):
        assert np.array_equal(a, b), name

def test_checkpoint_header_self_describing(tmp_path):
    bundle = make_bundle()
    path = str(tmp_path / "p.ckpt")
    save_checkpoint(path, bundle)
    header = read_header(path)
    assert header["format_version"] == 1
    assert header["grouping"] == "PLS"
    names = {e["name"] for e in header["arrays"]}
    assert {"actor.W0", "actor.log_std", "critic.W0", "obs_scale", "priv_scale"} <= names
    for entry in header["arrays"]:
        assert entry["dtype"] == "<f4"  # little-endian float32 contract


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="magic"):
        read_header(str(path))


def test_scale_vectors_match_dims():
    assert obs_scale_vector("PLS").shape == (52,)
    assert priv_scale_vector("PLS").shape == (97,)
    assert obs_scale_vector("IJS").shape == (60,)


def test_train_micro_run(tmp_path):
    cfg = TrainConfig(
        n_envs=4, n_iterations=3, steps_per_rollout=8, hidden=[32, 16],
        checkpoint_every=2, seed=1,
    )
    bundle, metrics_path, ckpt_path = train("PLS", cfg, str(tmp_path))
    assert os.path.exists(metrics_path)
    assert os.path.exists(ckpt_path)
    assert os.path.exists(str(tmp_path / "policy_PLS_it000002.ckpt"))
    with open(metrics_path) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 4  # header + 3 iterations
    loaded = load_checkpoint(ckpt_path)
    assert loaded.grouping == "PLS"
    assert loaded.config["train"]["n_envs"] == 4


def test_train_determinism_micro(tmp_path):
    cfg = TrainConfig(
        n_envs=4, n_iterations=2, steps_per_rollout=6, hidden=[16], seed=3,
        checkpoint_every=0,
    )
    _, m1, _ = train("PLS", cfg, str(tmp_path / "a"))
    _, m2, _ = train("PLS", cfg, str(tmp_path / "b"))
    with open(m1) as f1, open(m2) as f2:
        assert f1.read() == f2.read()


def test_fixed_gain_run_logs_constant_kp(tmp_path):
    cfg = TrainConfig(
        n_envs=4, n_iterations=2, steps_per_rollout=6, hidden=[16], seed=5,
        checkpoint_every=0,
    )
    _, metrics_path, _ = train("FixedP20", cfg, str(tmp_path))
    import csv

    with open(metrics_path) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert float(row["mean_kp_hip"]) == 20.0
        assert float(row["mean_kp_thigh"]) == 20.0
        assert float(row["mean_kp_knee"]) == 20.0