"""Articulated model description: bodies, joints, and the quadruped builder.

A ``KinematicTree`` is a base plus branches that are serial chains of equal
length (the quadruped: a trunk and four 3-joint legs). It checks that layout
when it is made and holds the arrays the batched dynamics engine reads. All
robot constants come from a YAML model file (see ``configs/model.yaml``),
never from code.
"""

import importlib.resources
from dataclasses import dataclass, field

import numpy as np
import yaml

from .rotations import skew

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
    """Revolute joint: unit axis and placement in the parent body frame."""

    axis: np.ndarray
    origin_in_parent: np.ndarray
    position_limit: tuple
    torque_limit: float

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        self.origin_in_parent = np.asarray(self.origin_in_parent, dtype=float)
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-9:
            raise ValueError("joint axis must be a unit vector")
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
    in chain order. Construction rejects any other layout.

    It also builds the arrays the dynamics engine reads: the stacked body and
    joint constants; ``levels``, slot k of every chain as (bodies, joints,
    parents, rooted), so the recursions take one vectorized step per depth;
    and the chain masks (d, d), the same on every chain: ``moves[s, t]`` = 1
    when joint s moves joint t's body, which on a chain is s <= t, and
    ``moved_by[s, t]`` = 1 when joint t moves joint s's body, t < s.
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

        self.mass = np.array([b.inertia.mass for b in self.bodies])
        self.com = np.stack([b.inertia.com_offset for b in self.bodies])
        self.inertia = np.stack([b.inertia.rotational_inertia for b in self.bodies])
        self.joint_axis = np.stack([j.axis for j in self.joints]) if nj else np.zeros((0, 3))
        self.joint_origin = (
            np.stack([j.origin_in_parent for j in self.joints]) if nj else np.zeros((0, 3))
        )
        self.axis_skew = skew(self.joint_axis)
        self.axis_skew_sq = self.axis_skew @ self.axis_skew
        self.n_base, self.n_branches, self.branch_size = 6 * start, n_br, d
        self.moves = np.triu(np.ones((d, d)))
        self.moved_by = np.tril(np.ones((d, d)), -1)
        # slot 0's parents are n_br copies of the root: an index array, as a
        # slice cannot repeat an index
        self.levels = [
            (slice(start + k, B, d), slice(k, nj, d),
             slice(start + k - 1, B, d) if k else np.full(n_br, root), k == 0 and not self.floating)
            for k in range(d)
        ]

    @property
    def n_bodies(self):
        return len(self.bodies)

    @property
    def n_joints(self):
        return len(self.joints)

    @property
    def nv(self):
        return (6 if self.floating else 0) + self.n_joints

    def joint_of_body(self, b):
        """Index of the joint driving body b, or -1 for the floating root."""
        return b - 1 if self.floating else b

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


def load_model_config():
    """Load the packaged robot model YAML."""
    ref = importlib.resources.files("vsloco.configs") / "model.yaml"
    return yaml.safe_load(ref.read_text())


def build_quadruped(cfg=None) -> KinematicTree:
    """Construct the 12-DoF floating-base quadruped from a model config dict.

    Body order: trunk, then (FR, FL, RR, RL) x (hip, thigh, calf). Joint j
    drives body j+1, so joints follow the same leg-major order.
    """
    if cfg is None:
        cfg = load_model_config()
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
    hip_r = cfg["contact"].get("hip_collision_radius", 0.04)
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
        gravity=float(cfg.get("gravity", 9.81)),
        contact=dict(cfg["contact"]),
        default_pose=default_pose,
    )


def pendulum_tree(mass=1.0, length=1.0, gravity=9.81, inertia_eps=1e-12, axis=(0.0, 1.0, 0.0)):
    """Fixed-base point-mass pendulum hanging along -z at q = 0 (test model)."""
    body = Body(SpatialInertia(mass, [0.0, 0.0, -length], np.eye(3) * inertia_eps), parent=-1)
    joint = JointSpec(list(axis), [0.0, 0.0, 0.0], (-100.0, 100.0), 1e6)
    return KinematicTree(bodies=[body], joints=[joint], floating=False, gravity=gravity)


def double_pendulum_tree(m1=1.0, m2=0.7, l1=0.6, l2=0.4, gravity=9.81):
    """Fixed-base two-link chain of point masses (energy-oracle test model)."""
    b1 = Body(SpatialInertia(m1, [0.0, 0.0, -l1], np.eye(3) * 1e-12), parent=-1)
    b2 = Body(SpatialInertia(m2, [0.0, 0.0, -l2], np.eye(3) * 1e-12), parent=0)
    j1 = JointSpec([0.0, 1.0, 0.0], [0.0, 0.0, 0.0], (-100, 100), 1e6)
    j2 = JointSpec([0.0, 1.0, 0.0], [0.0, 0.0, -l1], (-100, 100), 1e6)
    return KinematicTree(bodies=[b1, b2], joints=[j1, j2], floating=False, gravity=gravity)


def floating_box_tree(mass=2.0, inertia_diag=(0.02, 0.04, 0.05), gravity=9.81):
    """Single free-floating rigid body (momentum/free-fall test model)."""
    body = Body(SpatialInertia(mass, [0.0, 0.0, 0.0], _diag(inertia_diag)), parent=-1)
    return KinematicTree(bodies=[body], joints=[], floating=True, gravity=gravity)
