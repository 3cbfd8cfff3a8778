"""The packaged robot model: one parse per process, a tree of its own per build."""

import numpy as np
import yaml

from vsloco import model
from vsloco.env import VecLocomotionEnv
from vsloco.model import build_quadruped


def test_model_yaml_is_parsed_once_per_process(monkeypatch):
    calls, safe_load = [], yaml.safe_load

    def counting_load(text):
        calls.append(text)
        return safe_load(text)

    monkeypatch.setattr(yaml, "safe_load", counting_load)
    model._read_model_config.cache_clear()
    try:
        for _ in range(3):
            VecLocomotionEnv("PJS", n_envs=2)
    finally:
        model._read_model_config.cache_clear()
    assert len(calls) == 1


def tree_arrays(tree):
    """Every value of a tree that an edit could reach, copied."""
    return {
        "contact": dict(tree.contact),
        "default_pose": tree.default_pose.copy(),
        "com_offset": [b.inertia.com_offset.copy() for b in tree.bodies],
        "rotational_inertia": [b.inertia.rotational_inertia.copy() for b in tree.bodies],
        "origin_in_parent": [j.origin_in_parent.copy() for j in tree.joints],
        "axis": [j.axis.copy() for j in tree.joints],
    }


def test_edits_to_a_built_tree_do_not_reach_the_next():
    tree = build_quadruped()
    pristine = tree_arrays(tree)
    tree.contact["friction"] = -1.0
    tree.contact["hip_collision_radius"] = 9.0
    tree.default_pose[:] = 9.0
    for body in tree.bodies:
        body.inertia.com_offset[:] = 9.0
        body.inertia.rotational_inertia[:] = 9.0
    for joint in tree.joints:
        joint.origin_in_parent[:] = 9.0
        joint.axis[:] = 9.0
    fresh = tree_arrays(build_quadruped())
    assert fresh["contact"] == pristine["contact"]
    for key in ("default_pose", "com_offset", "rotational_inertia", "origin_in_parent", "axis"):
        assert np.array_equal(fresh[key], pristine[key]), key
