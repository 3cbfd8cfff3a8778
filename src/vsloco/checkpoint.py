"""Self-describing policy checkpoint container.

Layout: magic ``VSLC`` + u32 format version + u64 header length + UTF-8 JSON
header + concatenated little-endian float32 arrays. The header carries the
grouping tag, layer shapes, observation scales, a config snapshot, and one
entry per array (name, shape, byte offset), so a file is loadable without
any out-of-band knowledge. Writes are atomic (temp file + rename).
"""

import json
import os
import struct
import tempfile

import numpy as np

from . import networks as nets

MAGIC = b"VSLC"
FORMAT_VERSION = 1


class PolicyBundle:
    """Actor/critic pair plus the fixed input scaling used in training. Inputs
    are rounded to float32 before they are scaled, as the rollout buffer stores
    them, so the rollout's log-probs are the PPO update's bit for bit. grouping
    tags the policy's task as given: a stiffness grouping, or any other name."""

    def __init__(self, grouping, actor, critic, obs_scale, priv_scale, config=None):
        self.grouping = grouping
        self.actor = actor
        self.critic = critic
        self.obs_scale = np.asarray(obs_scale, dtype=np.float32)
        self.priv_scale = np.asarray(priv_scale, dtype=np.float32)
        self.config = config or {}

    def act_deterministic(self, obs):
        obs = np.asarray(obs, dtype=np.float32) * self.obs_scale
        return np.clip(self.actor.mean_action(obs), -1.0, 1.0)

    def act_sampled(self, obs, rng):
        return self.actor.sample(np.asarray(obs, dtype=np.float32) * self.obs_scale, rng)

    def value(self, priv):
        return self.critic.value(np.asarray(priv, dtype=np.float32) * self.priv_scale)


def _collect_arrays(bundle: PolicyBundle):
    arrays = []
    for k, (W, b) in enumerate(zip(bundle.actor.mlp.W, bundle.actor.mlp.b)):
        arrays.append((f"actor.W{k}", W))
        arrays.append((f"actor.b{k}", b))
    arrays.append(("actor.log_std", bundle.actor.log_std))
    for k, (W, b) in enumerate(zip(bundle.critic.mlp.W, bundle.critic.mlp.b)):
        arrays.append((f"critic.W{k}", W))
        arrays.append((f"critic.b{k}", b))
    arrays.append(("obs_scale", bundle.obs_scale))
    arrays.append(("priv_scale", bundle.priv_scale))
    return arrays


def save_checkpoint(path, bundle: PolicyBundle, extra_config=None):
    arrays = _collect_arrays(bundle)
    entries = []
    offset = 0
    blobs = []
    for name, arr in arrays:
        blob = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "dtype": "<f4",
                        "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format_version": FORMAT_VERSION,
        "grouping": bundle.grouping,
        "actor_sizes": bundle.actor.mlp.sizes,
        "critic_sizes": bundle.critic.mlp.sizes,
        "config": dict(bundle.config, **(extra_config or {})),
        "arrays": entries,
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", FORMAT_VERSION))
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_header(fh, path):
    """Parse the header at the start of an open checkpoint; leaves ``fh`` at
    the first array byte."""
    prefix = fh.read(16)  # magic, u32 format version, u64 header length
    if prefix[:4] != MAGIC:
        raise ValueError(f"{path} is not a policy checkpoint (bad magic)")
    if len(prefix) < 16:
        raise ValueError(f"{path}: the checkpoint ends before its header length")
    version, hlen = struct.unpack("<IQ", prefix[4:])
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version}")
    # read no more than the file holds: the length is not trusted
    raw = fh.read(min(hlen, os.fstat(fh.fileno()).st_size - fh.tell()))
    if len(raw) != hlen:
        raise ValueError(f"{path}: the checkpoint header declares {hlen} bytes, "
                         f"but only {len(raw)} follow")
    return json.loads(raw.decode("utf-8"))


def read_header(path) -> dict:
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def load_checkpoint(path) -> PolicyBundle:
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        data = fh.read()
    arrays = {}
    for entry in header["arrays"]:
        count, offset = int(np.prod(entry["shape"])), entry["offset"]
        end = offset + count * np.dtype(entry["dtype"]).itemsize
        if not 0 <= offset <= end <= len(data):
            raise ValueError(f"{path}: array {entry['name']} spans bytes {offset} to {end} after "
                             f"the header, but {len(data)} follow it")
        arr = np.frombuffer(data, dtype=entry["dtype"], count=count, offset=offset)
        arrays[entry["name"]] = arr.reshape(entry["shape"]).astype(np.float32)

    def layers(net, sizes):  # the stored weights and biases of a net, layer by layer
        return ([arrays[f"{net}.W{k}"] for k in range(len(sizes) - 1)],
                [arrays[f"{net}.b{k}"] for k in range(len(sizes) - 1)])

    actor = nets.GaussianActor.from_arrays(*layers("actor", header["actor_sizes"]),
                                           arrays["actor.log_std"])
    critic = nets.Critic.from_arrays(*layers("critic", header["critic_sizes"]))
    return PolicyBundle(
        header["grouping"], actor, critic, arrays["obs_scale"], arrays["priv_scale"],
        config=header.get("config", {}),
    )
