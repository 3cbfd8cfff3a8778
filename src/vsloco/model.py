"""Articulated model description: bodies, joints, and the quadruped builder.

A ``KinematicTree`` is a base plus branches that are serial chains of equal
length (the quadruped: a trunk and four 3-joint legs). It checks that layout
when it is made and holds the arrays the batched dynamics engine reads. All
robot constants come from a YAML model file (see ``configs/model.yaml``),
never from code.
"""

import functools
import importlib.resources
from dataclasses import dataclass, field

import numpy as np
import yaml

LEG_NAMES = ("FR", "FL", "RR", "RL")


@dataclass
class SpatialInertia:
    """Mass, com offset (body frame) and rotational inertia about the com."""

    mass: float
    com_offset: np.ndarray
    rotational_inertia: np.ndarray

    def __post_init__(self):
        self.com_offset = np.asarray(self.com_offset, dtype=float)
        self.rotational_inertia = np.asarray(self.rotational_inertia, dtype=float)
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        eigvals = np.linalg.eigvalsh(self.rotational_inertia)
        if np.any(eigvals <= 0):
            raise ValueError("rotational_inertia must be positive definite")


@dataclass
class JointSpec:
    """Revolute joint about +-e_x, +-e_y or +-e_z, placed in the parent body frame."""

    axis: np.ndarray
    origin_in_parent: np.ndarray
    position_limit: tuple
    torque_limit: float

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        self.origin_in_parent = np.asarray(self.origin_in_parent, dtype=float)
        if self.axis.shape != (3,) or sorted(np.abs(self.axis)) != [0.0, 0.0, 1.0]:
            raise ValueError(f"joint axis must be +-e_x, +-e_y or +-e_z, got {self.axis}")
        lo, hi = self.position_limit
        if not lo < hi:
            raise ValueError(f"position_limit min must be < max, got {self.position_limit}")
        if not self.torque_limit > 0:
            raise ValueError("torque limit must be positive")


@dataclass
class Body:
    inertia: SpatialInertia
    parent: int  # -1 = world (fixed base) or the floating root's parent slot
    # collision spheres: list of (offset_in_body_frame, radius)
    collision_spheres: list = field(default_factory=list)


@dataclass
class KinematicTree:
    """Rigid-body model: a base plus branches that are serial chains.

    ``floating`` trees treat body 0 as a 6-DoF base; each further body b is
    driven by ``joints[b-1]``. Fixed-base trees attach body b via
    ``joints[b]`` (parent -1 meaning the world). The branches are serial
    chains of equal length d, listed chain by chain: a chain's first body
    hangs off the base (the world for a fixed base), each further body off
    the one before. A tree with feet has one on the last body of each chain,
    in chain order. Each joint turns about a coordinate axis, and a slot's
    joints turn about the same one in every chain, with either sign.
    Construction rejects any other layout.

    It also builds the constants the dynamics engine reads, in its layout:
    components first, then the body or joint axes, then an axis of length 1
    that broadcasts over the envs. Body constants are indexed by body:
    ``com`` (3, B, 1), ``inertia`` (3, 3, B, 1). Joint constants are
    indexed by (slot, chain), the layout of the engine's chain views:
    ``joint_origin`` (3, d, n_br, 1) and the axis signs ``axis_sign``
    (d, n_br, 1); ``axis_index`` holds each slot's axis, 0, 1 or 2.
    """

    bodies: list
    joints: list
    floating: bool
    foot_body_indices: tuple = ()
    foot_offsets: np.ndarray = None
    gravity: float = 9.81
    contact: dict = field(default_factory=dict)
    default_pose: np.ndarray = None

    def __post_init__(self):
        B, nj = len(self.bodies), len(self.joints)
        start = 1 if self.floating else 0  # the first jointed body
        root = start - 1  # parent of each chain's first body: the base, or the world
        if nj != B - start:
            raise ValueError("need exactly one joint per non-root body")
        parents = [body.parent for body in self.bodies]
        n_br = parents[start:].count(root)
        d = nj // n_br if n_br else 0
        chains = [-1] * start + [root if k == 0 else start + i * d + k - 1
                                 for i in range(n_br) for k in range(d)]
        if parents != chains:
            raise ValueError("branches must be serial chains of equal length, "
                             "listed branch by branch")
        feet = np.asarray(self.foot_body_indices, dtype=int)
        if feet.size and not np.array_equal(feet, start + d - 1 + d * np.arange(n_br)):
            raise ValueError("a tree with feet needs one foot on the last body of each branch, "
                             "in branch order")
        if self.foot_offsets is not None:
            self.foot_offsets = np.asarray(self.foot_offsets, dtype=float)

        def engine(rows, joints=False):  # (k, components...) -> (components..., k, 1)
            x = np.moveaxis(np.asarray(rows, dtype=float), 0, -1)[..., None]
            if joints:  # k = n_br * d joints chain by chain -> (d, n_br)
                x = x.reshape(x.shape[:-2] + (n_br, d, 1)).swapaxes(-3, -2)
            return x

        axes = np.array([j.axis for j in self.joints]).reshape(n_br, d, 3)
        index = np.abs(axes).argmax(-1)  # (n_br, d)
        if (index != index[:1]).any():
            raise ValueError("a slot's joints must turn about the same axis in every branch")
        self.mass = np.array([b.inertia.mass for b in self.bodies])
        self.com = engine([b.inertia.com_offset for b in self.bodies])
        self.inertia = engine([b.inertia.rotational_inertia for b in self.bodies])
        self.joint_origin = engine(np.reshape([j.origin_in_parent for j in self.joints], (nj, 3)),
                                   joints=True)
        self.axis_index = tuple(int(k) for k in index[0]) if n_br else ()
        self.axis_sign = axes.sum(-1).T[..., None]
        self.n_base, self.n_branches, self.branch_size = 6 * start, n_br, d

    @property
    def n_bodies(self):
        return len(self.bodies)

    @property
    def n_joints(self):
        return len(self.joints)

    @property
    def nv(self):
        return (6 if self.floating else 0) + self.n_joints

    @property
    def position_limits(self):
        lo = np.array([j.position_limit[0] for j in self.joints])
        hi = np.array([j.position_limit[1] for j in self.joints])
        return lo, hi

    @property
    def torque_limits(self):
        return np.array([j.torque_limit for j in self.joints])


def _diag(values):
    return np.diag(np.asarray(values, dtype=float))


@functools.cache
def _read_model_config():
    ref = importlib.resources.files("vsloco.configs") / "model.yaml"
    return yaml.safe_load(ref.read_text())


def build_quadruped() -> KinematicTree:
    """Construct the 12-DoF floating-base quadruped of the packaged model YAML.

    The YAML is parsed once per process, on the first call, so an edit to
    ``model.yaml`` shows only in a new process (forked workers inherit the
    parse of their parent). Each call builds a tree of its own: it copies
    every value it keeps from the parse, so editing one tree changes neither
    the parse nor the next tree.

    Body order: trunk, then (FR, FL, RR, RL) x (hip, thigh, calf). Joint j
    drives body j+1, so joints follow the same leg-major order.
    """
    cfg = _read_model_config()
    trunk = cfg["trunk"]
    legs = cfg["legs"]
    joints_cfg = cfg["joints"]

    sx_sy = {"FR": (1, -1), "FL": (1, 1), "RR": (-1, -1), "RL": (-1, 1)}
    hx, hy = legs["hip_position"]
    lims = joints_cfg["position_limits"]

    tsx, tsy, tsz = trunk["size"]
    corners = [
        np.array([sx * tsx / 2, sy * tsy / 2, sz * tsz / 2])
        for sx in (-1, 1)
        for sy in (-1, 1)
        for sz in (-1, 1)
    ]
    bodies = [
        Body(
            inertia=SpatialInertia(trunk["mass"], trunk["com_offset"], _diag(trunk["inertia"])),
            parent=-1,
            collision_spheres=[(c, 0.0) for c in corners],
        )
    ]
    joints = []
    hip_r = cfg["contact"]["hip_collision_radius"]
    foot_bodies = []
    for leg in LEG_NAMES:
        sx, sy = sx_sy[leg]
        # link, com in its body frame, joint axis, joint origin in the parent, limit
        rows = (
            ("hip", [0.0, sy * legs["hip"]["com_lateral"], 0.0], [1.0, 0.0, 0.0],
             [sx * hx, sy * hy, 0.0], "hip"),
            ("thigh", [0.0, 0.0, -legs["thigh"]["com_drop"]], [0.0, 1.0, 0.0],
             [0.0, sy * legs["hip_abduction_offset"], 0.0], "thigh"),
            ("calf", [0.0, 0.0, -legs["calf"]["com_drop"]], [0.0, 1.0, 0.0],
             [0.0, 0.0, -legs["thigh_length"]], "knee"),
        )
        for k, (link, com, axis, origin, limit) in enumerate(rows):
            # the hip's collision sphere sits at its com
            spheres = [(np.array(com), hip_r)] if k == 0 else []
            bodies.append(Body(
                inertia=SpatialInertia(legs[link]["mass"], com, _diag(legs[link]["inertia"])),
                parent=len(bodies) - 1 if k else 0,
                collision_spheres=spheres,
            ))
            joints.append(JointSpec(axis, origin, tuple(lims[limit]), joints_cfg["torque_limit"]))
        foot_bodies.append(len(bodies) - 1)

    default_pose = np.tile(np.asarray(joints_cfg["default_pose"], dtype=float), 4)
    return KinematicTree(
        bodies=bodies,
        joints=joints,
        floating=True,
        foot_body_indices=tuple(foot_bodies),
        foot_offsets=np.tile([0.0, 0.0, -legs["calf_length"]], (4, 1)),
        gravity=float(cfg["gravity"]),
        contact=dict(cfg["contact"]),
        default_pose=default_pose,
    )
