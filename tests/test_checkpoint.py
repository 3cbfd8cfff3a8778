"""Checkpoint container round-trips and training loop plumbing."""

import csv
import json
import os
import re
import struct

import numpy as np
import pytest

from vsloco import networks
from vsloco.checkpoint import (
    MAGIC,
    PolicyBundle,
    _collect_arrays,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from vsloco.actuation import GROUPINGS, action_dim
from vsloco.env import TERMINATION_REASONS, EnvConfig, VecLocomotionEnv, input_scales
from vsloco.networks import MLP, GaussianActor
from vsloco.ppo import WALL_TIME_COLUMNS, TrainConfig, train
from vsloco.randomization import IDENTITY_ROWS, DomainRandomizationConfig
from vsloco.rewards import WEIGHTS


def make_bundle(grouping="PLS", seed=0):
    rng = np.random.default_rng(seed)
    obs_dim = 36 + {"PLS": 16, "FixedP20": 12}[grouping]
    priv_dim = 45 + obs_dim
    adim = obs_dim - 36
    actor = GaussianActor(MLP([obs_dim, 32, 16, adim], rng, out_gain=0.01),
                          np.zeros(adim, dtype=np.float32))
    critic = MLP([priv_dim, 32, 16, 1], rng)
    return PolicyBundle(grouping, actor, critic, *input_scales(grouping))


def test_checkpoint_round_trip(tmp_path):
    bundle = make_bundle()
    path = tmp_path / "p.ckpt"
    save_checkpoint(str(path), bundle, config={"note": "test", "iteration": 3})
    loaded = load_checkpoint(str(path))
    assert loaded.grouping == "PLS"
    assert read_header(str(path))["config"] == {"note": "test", "iteration": 3}
    obs = np.random.default_rng(1).normal(0, 1, (5, 52)).astype(np.float32)
    assert np.array_equal(bundle.act_deterministic(obs), loaded.act_deterministic(obs))
    priv = np.random.default_rng(2).normal(0, 1, (5, 97)).astype(np.float32)
    assert np.array_equal(bundle.value(priv), loaded.value(priv))


def test_checkpoint_loads_without_initializing_nets(tmp_path, monkeypatch):
    # the nets are built from the stored arrays: no orthogonal init runs
    bundle = make_bundle()
    path = tmp_path / "p.ckpt"
    save_checkpoint(str(path), bundle)

    def no_init(*args, **kwargs):
        raise AssertionError("load_checkpoint ran an orthogonal init")

    monkeypatch.setattr(networks, "orthogonal", no_init)
    loaded = load_checkpoint(str(path))
    assert loaded.actor.mlp.sizes == bundle.actor.mlp.sizes
    assert loaded.critic.sizes == bundle.critic.sizes
    for (name, a), (_, b) in zip(_collect_arrays(bundle), _collect_arrays(loaded)):
        assert np.array_equal(a, b), name


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


def test_a_task_tag_that_is_no_grouping_round_trips(tmp_path):
    # a bundle keeps its task's tag as given; only the locomotion env
    # requires a stiffness grouping
    rng = np.random.default_rng(0)
    actor = GaussianActor(MLP([1, 4, 1], rng, out_gain=0.01), np.zeros(1, dtype=np.float32))
    bundle = PolicyBundle("bandit", actor, MLP([1, 4, 1], rng), np.ones(1), np.ones(1))
    path = str(tmp_path / "bandit.ckpt")
    save_checkpoint(path, bundle)
    assert read_header(path)["grouping"] == "bandit"
    assert load_checkpoint(path).grouping == "bandit"
    with pytest.raises(ValueError, match="unknown grouping 'bandit'"):
        VecLocomotionEnv("bandit")


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


@pytest.mark.parametrize("rest", [
    # a 7-byte JSON header behind a length that overstates it: 2**40 bytes
    # cannot be read at all, and a read of 10**6 would return the 7 that exist
    struct.pack("<Q", 2**40) + b'{"a":1}',
    struct.pack("<Q", 10**6) + b'{"a":1}',
    b"\x07\x00",  # the file ends inside the header length
], ids=["declares-2**40", "declares-10**6", "cut-length"])
def test_checkpoint_rejects_truncated_header(tmp_path, rest):
    path = tmp_path / "short.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", 1) + rest)
    for read in (read_header, load_checkpoint):
        with pytest.raises(ValueError, match="header"):
            read(str(path))


def test_checkpoint_rejects_arrays_that_end_early(tmp_path):
    # a file cut 10 bytes short has a whole header, but its last array,
    # priv_scale, ends past the file
    path = tmp_path / "cut.ckpt"
    save_checkpoint(str(path), make_bundle())
    path.write_bytes(path.read_bytes()[:-10])
    assert read_header(str(path))["arrays"][-1]["name"] == "priv_scale"
    with pytest.raises(ValueError, match=re.escape(f"{path}: array priv_scale spans bytes")):
        load_checkpoint(str(path))


def write_checkpoint(path, payload, blob=b""):
    """A checkpoint file with the given header bytes and array bytes."""
    path.write_bytes(MAGIC + struct.pack("<IQ", 1, len(payload)) + payload + blob)


def with_header(edit):
    """A maker that rewrites a checkpoint's header by edit(header), keeping its array bytes."""
    def make(path):
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16:16 + hlen])
        edit(header)
        write_checkpoint(path, json.dumps(header).encode("utf-8"), raw[16 + hlen:])
    return make


def with_entry(name, **changes):
    """A maker that changes the header entry of the array name."""
    return with_header(lambda header: next(e for e in header["arrays"]
                                           if e["name"] == name).update(changes))


@pytest.mark.parametrize("make, message", [
    (lambda path: write_checkpoint(path, b'{"a":1}'), "lacks 'arrays'"),
    (lambda path: write_checkpoint(path, b"[]"), "header is not a JSON object"),
    (lambda path: write_checkpoint(path, b'{"a":"\xff"}'), "header is not UTF-8 JSON"),
    (with_header(lambda h: h.update(arrays=[e for e in h["arrays"]
                                            if e["name"] != "actor.log_std"])),
     "lacks 'actor.log_std'"),
    (lambda path: path.write_bytes(MAGIC + struct.pack("<IQ", 2, 2) + b"{}"),
     "unsupported checkpoint format version 2"),
], ids=["no-arrays-key", "json-list", "not-utf-8", "no-log-std", "version-2"])
def test_checkpoint_refuses_a_malformed_header_by_name(tmp_path, make, message):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(str(path), make_bundle())
    make(path)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*{re.escape(message)}"):
        load_checkpoint(str(path))


def small_bundle(actor_sizes, critic_sizes=(5, 4, 1)):
    rng = np.random.default_rng(0)
    actor = GaussianActor(MLP(actor_sizes, rng), np.zeros(actor_sizes[-1], dtype=np.float32))
    return PolicyBundle("bandit", actor, MLP(critic_sizes, rng),
                        np.ones(actor_sizes[0]), np.ones(critic_sizes[0]))


@pytest.mark.parametrize("sizes, make, message", [
    # unchecked, a [3, 4, 4, 2] actor under a [3, 4, 2] header would load as a [3, 4, 4] net
    ((3, 4, 4, 2), with_header(lambda h: h.update(actor_sizes=[3, 4, 2])),
     "array actor.W1 has shape [4, 4], but the header's sizes call for [2, 4]"),
    # unchecked, a 4 x 4 actor.W1 declared 2 x 8 would fail inside matmul, unnamed
    ((3, 4, 4, 2), with_entry("actor.W1", shape=[2, 8]),
     "array actor.W1 has shape [2, 8], but the header's sizes call for [4, 4]"),
    ((3, 4, 2), with_header(lambda h: h["arrays"].append(
        {"name": "actor.W2", "shape": [2, 2], "dtype": "<f4", "offset": 0})),
     "array actor.W2 is not one the header's sizes call for"),
    ((3, 4, 2), with_entry("actor.log_std", shape=[1]),
     "array actor.log_std has shape [1], but the header's sizes call for [2]"),
    ((3, 4, 2), with_entry("obs_scale", shape=[2]),
     "array obs_scale has shape [2], but the header's sizes call for [3]"),
    ((3, 4, 2), with_entry("priv_scale", shape=[4]),
     "array priv_scale has shape [4], but the header's sizes call for [5]"),
    ((3, 4, 2), with_header(lambda h: h.update(critic_sizes=[5, 4, 3])),
     "critic_sizes must end in 1"),
    ((3, 4, 2), with_header(lambda h: h.update(actor_sizes=[3])),
     "actor_sizes must list two or more positive integers"),
    ((3, 4, 2), with_header(lambda h: h.update(critic_sizes=[5, 4.0, 1])),
     "critic_sizes must list two or more positive integers"),
    # unchecked, the float32 bytes of actor.W0 would load as other float64 numbers
    ((3, 4, 2), with_entry("actor.W0", dtype="<f8"),
     "array actor.W0 must be '<f4' at an integer offset, got '<f8' at 0"),
    ((3, 4, 2), with_entry("actor.W0", offset="0"),
     "array actor.W0 must be '<f4' at an integer offset, got '<f4' at '0'"),
], ids=["extra-layer", "reshaped-W1", "unexpected-array", "log-std-width", "obs-scale-width",
        "priv-scale-width", "critic-output", "one-size", "float-size", "f8-dtype", "str-offset"])
def test_checkpoint_refuses_layers_the_header_does_not_call_for(tmp_path, sizes, make, message):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(str(path), small_bundle(sizes))
    load_checkpoint(str(path))  # loads as saved
    make(path)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {re.escape(message)}"):
        load_checkpoint(str(path))


def test_checkpoint_bytes_follow_the_documented_layout(tmp_path):
    # a file assembled by hand from the layout in the module docstring: it
    # loads, and save_checkpoint writes exactly its bytes for the same arrays
    rng = np.random.default_rng(4)

    def f32(*shape):
        return rng.normal(0, 1, shape).astype(np.float32)

    sizes = {"actor": [3, 4, 2], "critic": [5, 4, 1]}
    layers = {net: [(f32(n_out, n_in), f32(n_out)) for n_in, n_out in zip(s, s[1:])]
              for net, s in sizes.items()}

    def named_layers(net):
        return [(f"{net}.{kind}{k}", a) for k, pair in enumerate(layers[net])
                for kind, a in zip("Wb", pair)]

    log_std, obs_scale, priv_scale = f32(2), f32(3), f32(5)
    named = (named_layers("actor") + [("actor.log_std", log_std)] + named_layers("critic")
             + [("obs_scale", obs_scale), ("priv_scale", priv_scale)])
    offsets = np.cumsum([0] + [a.nbytes for _, a in named])
    config = {"iteration": 7, "train": {"seed": 0}}
    header = {"format_version": 1, "grouping": "PLS", "actor_sizes": sizes["actor"],
              "critic_sizes": sizes["critic"], "config": config,
              "arrays": [{"name": name, "shape": list(a.shape), "dtype": "<f4",
                          "offset": int(offset)} for (name, a), offset in zip(named, offsets)]}
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    expected = (b"VSLC" + struct.pack("<I", 1) + struct.pack("<Q", len(payload)) + payload
                + b"".join(a.astype("<f4").tobytes() for _, a in named))
    hand = tmp_path / "hand.ckpt"
    hand.write_bytes(expected)
    loaded = load_checkpoint(str(hand))
    assert loaded.grouping == "PLS" and read_header(str(hand))["config"] == config
    assert [name for name, _ in _collect_arrays(loaded)] == [name for name, _ in named]
    for (name, a), (_, b) in zip(_collect_arrays(loaded), named, strict=True):
        assert a.dtype == np.float32 and np.array_equal(a, b), name

    def mlp(net):
        return MLP.from_arrays(*zip(*layers[net]))

    bundle = PolicyBundle("PLS", GaussianActor(mlp("actor"), log_std), mlp("critic"),
                          obs_scale, priv_scale)
    for source in (bundle, loaded):
        written = tmp_path / "written.ckpt"
        save_checkpoint(str(written), source, config=config)
        assert written.read_bytes() == expected


def obs_scale_vector(grouping):
    """The actor's input scales, written out by hand: the oracle of the
    scales that env.input_scales derives from the layout tables."""
    adim = action_dim(grouping)
    return np.concatenate(
        [
            [2.0, 2.0, 0.25],  # command
            np.full(3, 2.0),  # linear velocity
            np.full(3, 0.25),  # angular velocity
            np.ones(3),  # projected gravity
            np.full(12, 0.05),  # joint velocities
            np.ones(12),  # joint positions
            np.ones(adim),  # previous action
        ]
    ).astype(np.float32)


def priv_scale_vector(grouping):
    return np.concatenate(
        [
            np.ones(36),  # kp/kd/motor scales
            [1.0],  # friction
            np.full(5, 0.25),  # mass deltas
            np.full(3, 0.01),  # push force
            obs_scale_vector(grouping),
        ]
    ).astype(np.float32)


def test_scale_vectors_match_dims():
    assert [scale.shape for scale in input_scales("PLS")] == [(52,), (97,)]
    assert input_scales("IJS")[0].shape == (60,)


@pytest.mark.parametrize("grouping", GROUPINGS)
def test_input_scales_match_the_hand_written_vectors(grouping):
    config = EnvConfig(randomization=DomainRandomizationConfig(IDENTITY_ROWS))
    env = VecLocomotionEnv(grouping, n_envs=1, config=config)
    obs_scale, priv_scale = input_scales(grouping)
    for derived, oracle, dim in ((obs_scale, obs_scale_vector(grouping), env.obs_dim),
                                 (priv_scale, priv_scale_vector(grouping), env.priv_dim)):
        assert derived.dtype == np.float32 and derived.shape == (dim,)
        assert derived.tobytes() == oracle.tobytes()


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
    assert load_checkpoint(ckpt_path).grouping == "PLS"
    assert read_header(ckpt_path)["config"]["train"]["n_envs"] == 4


def test_train_determinism_micro(tmp_path):
    cfg = TrainConfig(
        n_envs=4, n_iterations=2, steps_per_rollout=6, hidden=[16], seed=3,
        checkpoint_every=0,
    )
    _, m1, _ = train("PLS", cfg, str(tmp_path / "a"))
    _, m2, _ = train("PLS", cfg, str(tmp_path / "b"))
    with open(m1, newline="") as f1, open(m2, newline="") as f2:
        rows1, rows2 = list(csv.reader(f1)), list(csv.reader(f2))
    assert rows1[0] == rows2[0] and len(rows1) == len(rows2) == 3
    # every cell the same, byte for byte, but the wall times
    kept = [i for i, name in enumerate(rows1[0]) if name not in WALL_TIME_COLUMNS]
    assert len(kept) == len(rows1[0]) - len(WALL_TIME_COLUMNS)
    for a, b in zip(rows1, rows2):
        assert [a[i] for i in kept] == [b[i] for i in kept]


def test_metrics_log_wall_time(tmp_path):
    cfg = TrainConfig(
        n_envs=4, n_iterations=2, steps_per_rollout=6, hidden=[16], seed=2,
        checkpoint_every=0,
    )
    _, metrics_path, _ = train("PLS", cfg, str(tmp_path))
    with open(metrics_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        rollout_s, update_s, rate = (float(row[name]) for name in WALL_TIME_COLUMNS)
        assert all(np.isfinite(v) and v > 0.0 for v in (rollout_s, update_s, rate))
        assert rate == 4 * 6 / rollout_s


def test_fixed_gain_run_logs_constant_kp(tmp_path):
    cfg = TrainConfig(
        n_envs=4, n_iterations=2, steps_per_rollout=6, hidden=[16], seed=5,
        checkpoint_every=0,
    )
    _, metrics_path, _ = train("FixedP20", cfg, str(tmp_path))
    with open(metrics_path) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert float(row["mean_kp_hip"]) == 20.0
        assert float(row["mean_kp_thigh"]) == 20.0
        assert float(row["mean_kp_knee"]) == 20.0


def test_metrics_log_terminations_by_reason(tmp_path, monkeypatch):
    # a micro run in which one env ends on illegal contact in iteration 1;
    # the contact and cone-saturation shares match a count of the flags the
    # state holds after each env step
    cfg = TrainConfig(
        n_envs=4, n_iterations=3, steps_per_rollout=8, hidden=[16], seed=1,
        checkpoint_every=0,
    )
    counts = []  # (feet in contact, feet saturated) after each env step
    step = VecLocomotionEnv.step

    def counting_step(env, actions):
        out = step(env, actions)
        counts.append((env.state.contact_flags.sum(), env.state.cone_saturated.sum()))
        return out

    monkeypatch.setattr(VecLocomotionEnv, "step", counting_step)
    _, metrics_path, _ = train("PLS", cfg, str(tmp_path))
    with open(metrics_path) as fh:
        rows = list(csv.DictReader(fh))
    reasons = [f"term_{reason}_per_env_step" for reason in TERMINATION_REASONS[1:]]
    per_termination = WEIGHTS["termination"] * 0.02  # weight x control dt
    for row in rows:
        total = float(row["terminations_per_env_step"])
        values = [total] + [float(row[name]) for name in reasons]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert sum(values[1:]) == pytest.approx(total, rel=1e-12, abs=0)
        assert float(row["rew_termination"]) == pytest.approx(per_termination * total, abs=1e-15)
    assert sum(float(row["terminations_per_env_step"]) for row in rows) > 0
    foot_steps = 4 * 8 * 4  # envs x steps x feet
    shares = np.reshape(counts, (3, 8, 2)).sum(axis=1) / foot_steps
    for row, (contact, saturated) in zip(rows, shares):
        assert float(row["contact_frac"]) == contact
        assert float(row["cone_saturated_frac"]) == saturated
    assert 0 < shares[:, 0].min() and shares[:, 1].max() < 1
