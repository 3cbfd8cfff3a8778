"""Self-describing policy checkpoint container.

Layout: magic ``VSLC`` + u32 format version + u64 header length + UTF-8 JSON
header (``sort_keys``) + concatenated little-endian float32 arrays, in the
order ``actor.W0``, ``actor.b0``, ``actor.W1``, ... (layer by layer),
``actor.log_std``, ``critic.W0``, ``critic.b0``, ..., ``obs_scale``,
``priv_scale``. The header carries the grouping tag, the layer sizes of the
actor's ``MLP`` and of the critic, itself an ``MLP``, the caller's config
snapshot (which lives only there: ``read_header`` returns it), and one entry
per array (name, shape, dtype, byte offset), so a file is loadable without
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
    """A ``GaussianActor``, a critic ``MLP`` with one output, and the fixed input
    scaling used in training. Inputs are rounded to float32 before they are
    scaled, as the rollout buffer stores them, so the rollout's log-probs are
    the PPO update's bit for bit. grouping tags the policy's task as given: a
    stiffness grouping, or any other name. The training config is not held
    here; it is written to a checkpoint's header only."""

    def __init__(self, grouping, actor, critic, obs_scale, priv_scale):
        self.grouping = grouping
        self.actor = actor
        self.critic = critic
        self.obs_scale = np.asarray(obs_scale, dtype=np.float32)
        self.priv_scale = np.asarray(priv_scale, dtype=np.float32)

    def act_deterministic(self, obs):
        obs = np.asarray(obs, dtype=np.float32) * self.obs_scale
        return np.clip(self.actor.mean_action(obs), -1.0, 1.0)

    def act_sampled(self, obs, rng):
        return self.actor.sample(np.asarray(obs, dtype=np.float32) * self.obs_scale, rng)

    def value(self, priv):
        return self.critic.forward(np.asarray(priv, dtype=np.float32) * self.priv_scale)[0][:, 0]


def _collect_arrays(bundle: PolicyBundle):
    arrays = []
    for net_name, net in (("actor", bundle.actor.mlp), ("critic", bundle.critic)):
        for k, (W, b) in enumerate(zip(net.W, net.b)):
            arrays += [(f"{net_name}.W{k}", W), (f"{net_name}.b{k}", b)]
        if net_name == "actor":
            arrays.append(("actor.log_std", bundle.actor.log_std))
    return arrays + [("obs_scale", bundle.obs_scale), ("priv_scale", bundle.priv_scale)]


def save_checkpoint(path, bundle: PolicyBundle, config=None):
    """Write bundle to path, with config (a JSON-able dict) in the header."""
    blobs, entries, offset = [], [], 0
    for name, arr in _collect_arrays(bundle):
        blobs.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        entries.append({"name": name, "shape": list(arr.shape), "dtype": "<f4", "offset": offset})
        offset += len(blobs[-1])
    header = {
        "format_version": FORMAT_VERSION,
        "grouping": bundle.grouping,
        "actor_sizes": bundle.actor.mlp.sizes,
        "critic_sizes": bundle.critic.sizes,
        "config": config or {},
        "arrays": entries,
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(payload)) + payload)
            fh.writelines(blobs)
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
        raise ValueError(f"{path}: unsupported checkpoint format version {version}")
    # read no more than the file holds: the length is not trusted
    raw = fh.read(min(hlen, os.fstat(fh.fileno()).st_size - fh.tell()))
    if len(raw) != hlen:
        raise ValueError(f"{path}: the checkpoint header declares {hlen} bytes, "
                         f"but only {len(raw)} follow")
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError and JSONDecodeError alike
        raise ValueError(f"{path}: the checkpoint header is not UTF-8 JSON: {err}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: the checkpoint header is not a JSON object")
    return header


def read_header(path) -> dict:
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def _expected_shapes(header, path):
    """{name: shape} of every array the header's layer sizes call for."""
    shapes = {}
    for net in ("actor", "critic"):
        sizes = header[f"{net}_sizes"]
        if not (isinstance(sizes, list) and len(sizes) >= 2
                and all(type(n) is int and n > 0 for n in sizes)):
            raise ValueError(f"{path}: {net}_sizes must list two or more positive integers, "
                             f"got {sizes!r}")
        for k in range(len(sizes) - 1):
            shapes[f"{net}.W{k}"], shapes[f"{net}.b{k}"] = (sizes[k + 1], sizes[k]), (sizes[k + 1],)
    actor, critic = header["actor_sizes"], header["critic_sizes"]
    if critic[-1] != 1:
        raise ValueError(f"{path}: critic_sizes must end in 1, the value, got {critic!r}")
    return {**shapes, "actor.log_std": (actor[-1],), "obs_scale": (actor[0],),
            "priv_scale": (critic[0],)}


def load_checkpoint(path) -> PolicyBundle:
    """The policy stored at path. Refuses, naming the file, a header that lacks
    a key, an array that is not '<f4' or whose shape the header's layer sizes
    do not call for, and an array that runs past the end of the file."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        data = fh.read()
    arrays = {}

    def mlp(net):  # the net from its stored weights and biases, layer by layer
        layers = range(len(header[f"{net}_sizes"]) - 1)
        return nets.MLP.from_arrays(*([arrays[f"{net}.{kind}{k}"] for k in layers]
                                      for kind in "Wb"))

    try:
        entries = header["arrays"]
        expected = _expected_shapes(header, path)
        for entry in entries:
            name, stored, dtype, offset = (entry[k] for k in ("name", "shape", "dtype", "offset"))
            if name not in expected:
                raise ValueError(f"{path}: array {name} is not one the header's sizes call for")
            shape = expected[name]
            if stored != list(shape):
                raise ValueError(f"{path}: array {name} has shape {stored}, but the header's "
                                 f"sizes call for {list(shape)}")
            if dtype != "<f4" or type(offset) is not int:
                raise ValueError(f"{path}: array {name} must be '<f4' at an integer offset, "
                                 f"got {dtype!r} at {offset!r}")
            count = int(np.prod(shape))
            end = offset + 4 * count
            if not 0 <= offset <= end <= len(data):
                raise ValueError(f"{path}: array {name} spans bytes {offset} to {end} after "
                                 f"the header, but {len(data)} follow it")
            arr = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
            arrays[name] = arr.reshape(shape).astype(np.float32)
        actor = nets.GaussianActor(mlp("actor"), arrays["actor.log_std"])
        return PolicyBundle(header["grouping"], actor, mlp("critic"), arrays["obs_scale"],
                            arrays["priv_scale"])
    except KeyError as err:  # a key the header lacks, or an array the file lacks
        raise ValueError(f"{path}: the checkpoint lacks {err.args[0]!r}") from None
