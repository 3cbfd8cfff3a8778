"""Articulated model description: bodies, joints, and the quadruped builder.

The dynamics engine consumes a compiled, array-based view of the tree; the
dataclasses here are the user-facing description. All robot constants come
from a YAML model file (see ``configs/model.yaml``), never from code.
"""

import importlib.resources
from dataclasses import dataclass, field

import numpy as np
import yaml

from .rotations import skew

LEG_NAMES = ("FR", "FL", "RR", "RL")
N_JOINTS = 12
N_FEET = 4


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
    parent_body: int
    origin_in_parent: np.ndarray
    position_limit: tuple
    velocity_limit: float
    torque_limit: float
    joint_kind: str = "revolute"
    name: str = ""

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        self.origin_in_parent = np.asarray(self.origin_in_parent, dtype=float)
        if self.joint_kind != "revolute":
            raise ValueError(f"unsupported joint kind {self.joint_kind!r}")
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-9:
            raise ValueError("joint axis must be a unit vector")
        lo, hi = self.position_limit
        if not lo < hi:
            raise ValueError(f"position_limit min must be < max, got {self.position_limit}")
        if not self.velocity_limit > 0 or not self.torque_limit > 0:
            raise ValueError("velocity and torque limits must be positive")


@dataclass
class Body:
    inertia: SpatialInertia
    parent: int  # -1 = world (fixed base) or the floating root's parent slot
    # collision spheres: list of (offset_in_body_frame, radius)
    collision_spheres: list = field(default_factory=list)
    name: str = ""


@dataclass
class KinematicTree:
    """Tree-structured rigid-body model.

    ``floating`` trees treat body 0 as a 6-DoF base; each further body b is
    driven by ``joints[b-1]``. Fixed-base trees attach body b via
    ``joints[b]`` (parent -1 meaning the world).
    """

    bodies: list
    joints: list
    floating: bool
    foot_body_indices: tuple = ()
    foot_offsets: np.ndarray = None
    collision_body_indices: tuple = ()
    gravity: float = 9.81
    contact: dict = field(default_factory=dict)
    default_pose: np.ndarray = None

    def __post_init__(self):
        offset = 1 if self.floating else 0
        if len(self.joints) != len(self.bodies) - offset:
            raise ValueError("need exactly one joint per non-root body")
        for b, body in enumerate(self.bodies):
            if body.parent >= b:
                raise ValueError("bodies must be topologically ordered (parent < child)")
        if self.foot_offsets is not None:
            self.foot_offsets = np.asarray(self.foot_offsets, dtype=float)
        self._compiled = None

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
    def total_mass(self):
        return float(sum(body.inertia.mass for body in self.bodies))

    @property
    def position_limits(self):
        lo = np.array([j.position_limit[0] for j in self.joints])
        hi = np.array([j.position_limit[1] for j in self.joints])
        return lo, hi

    @property
    def torque_limits(self):
        return np.array([j.torque_limit for j in self.joints])

    def compiled(self):
        if self._compiled is None:
            self._compiled = CompiledTree(self)
        return self._compiled


class CompiledTree:
    """Array view of a KinematicTree used by the batched dynamics engine."""

    def __init__(self, tree: KinematicTree):
        B, nj = tree.n_bodies, tree.n_joints
        self.tree = tree
        self.floating = tree.floating
        self.n_bodies = B
        self.n_joints = nj
        self.nv = tree.nv
        self.parent = np.array([b.parent for b in tree.bodies], dtype=int)
        self.mass = np.array([b.inertia.mass for b in tree.bodies])
        self.com = np.stack([b.inertia.com_offset for b in tree.bodies])
        self.inertia = np.stack([b.inertia.rotational_inertia for b in tree.bodies])
        self.joint_axis = np.stack([j.axis for j in tree.joints]) if nj else np.zeros((0, 3))
        self.joint_origin = (
            np.stack([j.origin_in_parent for j in tree.joints]) if nj else np.zeros((0, 3))
        )
        self.axis_skew = skew(self.joint_axis)
        self.axis_skew_sq = self.axis_skew @ self.axis_skew
        self._compile_branches(tree)
        # jointed bodies grouped by tree depth so recursions batch per level;
        # a level is rooted (parents -1, the world) only at depth 0
        depth = np.zeros(B, dtype=int)
        for b in range(B):
            depth[b] = 0 if self.parent[b] < 0 else depth[self.parent[b]] + 1
        start = 1 if tree.floating else 0
        self.levels = []
        for d in sorted(set(depth[start:])) if B > start else []:
            bodies = np.flatnonzero((depth == d) & (np.arange(B) >= start))
            joints = np.array([tree.joint_of_body(b) for b in bodies])
            self.levels.append(
                (_index(bodies), _index(joints), _index(self.parent[bodies]), bool(d == 0))
            )

    def _compile_branches(self, tree):
        """The branches: the subtrees hanging off the floating base (off the
        world for a fixed base). A branch's joints move only its own bodies,
        so the mass matrix over [base, branch 0, branch 1, ...] is
        block-arrow. The blocks are batched over branches as reshapes of the
        body, joint and velocity axes, so the branches must have equal sizes
        and their bodies must be listed branch by branch; a foot, if the tree
        has any, must sit on each branch, in branch order."""
        B = self.n_bodies
        root = 0 if tree.floating else -1
        self.n_base = 6 if tree.floating else 0
        self.body_branch = np.full(B, -1)  # -1: the floating base
        self.body_slot = np.zeros(B, dtype=int)  # index within its branch
        n_br = 0
        for b in range(B):
            if b == root:
                continue
            if self.parent[b] == root:
                n_br += 1
                self.body_branch[b] = n_br - 1
            else:
                self.body_branch[b] = self.body_branch[self.parent[b]]
                self.body_slot[b] = (self.body_branch[:b] == self.body_branch[b]).sum()
        jointed = self.body_branch[self.body_branch >= 0]
        d = jointed.size // n_br if n_br else 0
        if not np.array_equal(jointed, np.repeat(np.arange(n_br), d)):
            raise ValueError("branches must have equal sizes and be listed branch by branch")
        self.n_branches, self.branch_size = n_br, d
        # branch_mask[i, k, s] = 1 when joint s of branch i moves its body k
        self.branch_mask = np.zeros((n_br, d, d))
        for b in range(B):
            cur = b
            while cur != root:
                self.branch_mask[self.body_branch[b], self.body_slot[b], self.body_slot[cur]] = 1.0
                cur = self.parent[cur]
        # over joint pairs (s, t) of a branch: s moves t's body (s is t or an
        # ancestor of t), and t strictly moves s's body
        self.moves = np.ascontiguousarray(self.branch_mask.swapaxes(-1, -2))
        self.moved_by = self.branch_mask - np.eye(d)
        feet = np.asarray(tree.foot_body_indices, dtype=int)
        if feet.size and not np.array_equal(self.body_branch[feet], np.arange(n_br)):
            raise ValueError("a tree with feet needs one foot on each branch, in branch order")
        # foot_mask[i, s] = 1 when joint s of branch i moves the branch's foot
        self.foot_mask = self.branch_mask[np.arange(feet.size), self.body_slot[feet]]


def _index(idx):
    """idx as a slice when it is an increasing arithmetic sequence of valid
    indices, so that indexing with it gives views, not copies; else the
    array itself (a world parent, -1, stays an array)."""
    step = idx[1] - idx[0] if idx.size > 1 else 1
    if idx[0] >= 0 and step > 0 and np.array_equal(idx, np.arange(idx[0], idx[-1] + 1, step)):
        return slice(int(idx[0]), int(idx[-1]) + 1, int(step))
    return idx


def _diag(values):
    return np.diag(np.asarray(values, dtype=float))


def load_model_config(path=None):
    """Load the robot model YAML (packaged default when path is None)."""
    if path is None:
        ref = importlib.resources.files("vsloco.configs") / "model.yaml"
        text = ref.read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    return yaml.safe_load(text)


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
    ab_off = legs["hip_abduction_offset"]
    l_thigh = legs["thigh_length"]
    l_calf = legs["calf_length"]
    lims = joints_cfg["position_limits"]
    vel_lim = joints_cfg["velocity_limit"]
    tau_lim = joints_cfg["torque_limit"]

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
            name="trunk",
        )
    ]
    joints = []
    hip_r = cfg["contact"].get("hip_collision_radius", 0.04)
    foot_bodies = []
    for leg in LEG_NAMES:
        sx, sy = sx_sy[leg]
        hip_parent = 0
        hip = legs["hip"]
        bodies.append(
            Body(
                inertia=SpatialInertia(
                    hip["mass"], [0.0, sy * hip["com_lateral"], 0.0], _diag(hip["inertia"])
                ),
                parent=hip_parent,
                collision_spheres=[(np.array([0.0, sy * hip["com_lateral"], 0.0]), hip_r)],
                name=f"{leg}_hip",
            )
        )
        joints.append(
            JointSpec(
                axis=[1.0, 0.0, 0.0],
                parent_body=hip_parent,
                origin_in_parent=[sx * hx, sy * hy, 0.0],
                position_limit=tuple(lims["hip"]),
                velocity_limit=vel_lim,
                torque_limit=tau_lim,
                name=f"{leg}_hip",
            )
        )
        thigh_parent = len(bodies) - 1
        thigh = legs["thigh"]
        bodies.append(
            Body(
                inertia=SpatialInertia(
                    thigh["mass"], [0.0, 0.0, -thigh["com_drop"]], _diag(thigh["inertia"])
                ),
                parent=thigh_parent,
                name=f"{leg}_thigh",
            )
        )
        joints.append(
            JointSpec(
                axis=[0.0, 1.0, 0.0],
                parent_body=thigh_parent,
                origin_in_parent=[0.0, sy * ab_off, 0.0],
                position_limit=tuple(lims["thigh"]),
                velocity_limit=vel_lim,
                torque_limit=tau_lim,
                name=f"{leg}_thigh",
            )
        )
        calf_parent = len(bodies) - 1
        calf = legs["calf"]
        bodies.append(
            Body(
                inertia=SpatialInertia(
                    calf["mass"], [0.0, 0.0, -calf["com_drop"]], _diag(calf["inertia"])
                ),
                parent=calf_parent,
                name=f"{leg}_calf",
            )
        )
        joints.append(
            JointSpec(
                axis=[0.0, 1.0, 0.0],
                parent_body=calf_parent,
                origin_in_parent=[0.0, 0.0, -l_thigh],
                position_limit=tuple(lims["knee"]),
                velocity_limit=vel_lim,
                torque_limit=tau_lim,
                name=f"{leg}_knee",
            )
        )
        foot_bodies.append(len(bodies) - 1)

    default_pose = np.tile(np.asarray(joints_cfg["default_pose"], dtype=float), 4)
    tree = KinematicTree(
        bodies=bodies,
        joints=joints,
        floating=True,
        foot_body_indices=tuple(foot_bodies),
        foot_offsets=np.tile([0.0, 0.0, -l_calf], (4, 1)),
        collision_body_indices=(0, 1, 4, 7, 10),
        gravity=float(cfg.get("gravity", 9.81)),
        contact=dict(cfg["contact"]),
        default_pose=default_pose,
    )
    if tree.n_joints != N_JOINTS or len(tree.foot_body_indices) != N_FEET:
        raise ValueError("quadruped must have 12 actuated joints and 4 feet")
    return tree


def pendulum_tree(mass=1.0, length=1.0, gravity=9.81, inertia_eps=1e-12, axis=(0.0, 1.0, 0.0)):
    """Fixed-base point-mass pendulum hanging along -z at q = 0 (test model)."""
    body = Body(
        inertia=SpatialInertia(mass, [0.0, 0.0, -length], np.eye(3) * inertia_eps),
        parent=-1,
        name="bob",
    )
    joint = JointSpec(
        axis=list(axis),
        parent_body=-1,
        origin_in_parent=[0.0, 0.0, 0.0],
        position_limit=(-100.0, 100.0),
        velocity_limit=1e6,
        torque_limit=1e6,
        name="pivot",
    )
    return KinematicTree(bodies=[body], joints=[joint], floating=False, gravity=gravity)


def double_pendulum_tree(m1=1.0, m2=0.7, l1=0.6, l2=0.4, gravity=9.81):
    """Fixed-base two-link chain of point masses (energy-oracle test model)."""
    b1 = Body(SpatialInertia(m1, [0.0, 0.0, -l1], np.eye(3) * 1e-12), parent=-1, name="link1")
    b2 = Body(SpatialInertia(m2, [0.0, 0.0, -l2], np.eye(3) * 1e-12), parent=0, name="link2")
    j1 = JointSpec([0.0, 1.0, 0.0], -1, [0.0, 0.0, 0.0], (-100, 100), 1e6, 1e6, name="j1")
    j2 = JointSpec([0.0, 1.0, 0.0], 0, [0.0, 0.0, -l1], (-100, 100), 1e6, 1e6, name="j2")
    return KinematicTree(bodies=[b1, b2], joints=[j1, j2], floating=False, gravity=gravity)


def floating_box_tree(mass=2.0, inertia_diag=(0.02, 0.04, 0.05), gravity=9.81):
    """Single free-floating rigid body (momentum/free-fall test model)."""
    body = Body(SpatialInertia(mass, [0.0, 0.0, 0.0], _diag(inertia_diag)), parent=-1, name="box")
    return KinematicTree(bodies=[body], joints=[], floating=True, gravity=gravity)
