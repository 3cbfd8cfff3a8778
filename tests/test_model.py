"""The packaged robot model: one parse per process, a fresh dict per call."""

import yaml

from vsloco import model
from vsloco.env import VecLocomotionEnv
from vsloco.model import build_quadruped, load_model_config


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


def test_edited_config_changes_neither_the_next_nor_the_tree():
    cfg = load_model_config()
    mass = cfg["trunk"]["mass"]
    cfg["trunk"]["mass"] = 2 * mass
    cfg["contact"]["friction"] = -1.0
    cfg["joints"]["default_pose"][0] = 9.0
    fresh = load_model_config()
    assert fresh["trunk"]["mass"] == mass
    assert fresh["contact"]["friction"] != -1.0
    assert fresh["joints"]["default_pose"][0] != 9.0
    tree = build_quadruped()
    assert tree.mass[0] == mass
    assert tree.contact["friction"] != -1.0
    assert tree.default_pose[0] != 9.0
