"""Run configuration: defaults, JSON files, and dotted-path overrides.

A configuration is a plain nested dict.  Every key must already exist
in :data:`DEFAULTS`; unknown keys are rejected by their dotted name so
typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import copy
import json
import math

from .errors import ValidationError
from .graphmodel import DisorderModel, TreeSpec

__all__ = [
    "DEFAULTS",
    "load_config",
    "apply_override",
    "make_spec",
    "make_disorder",
]

DEFAULTS = {
    "K": 2,
    "L": 1.0,
    "depth": 12,
    "alpha": math.pi / 2,
    "disorder": {
        "lambda": 0.0,
        "dist": "uniform",
        "master_seed": 1,
    },
    "bands": {
        "n_max": 3,
    },
    "fixed_point": {
        "e_min": 0.2,
        "e_max": 7.7,
        "n_points": 200,
        "eta": 0.0,
    },
    "density": {
        "e_min": 0.05,
        "e_max": 8.5,
        "n_points": 400,
        "eta": 1e-3,
        "replica": 0,
        "seed_mode": "fixed_point",
        "extrapolate": False,
        "eta_ladder": [1e-1, 1e-2, 1e-3, 1e-4],
    },
    "lyapunov": {
        "E": 2.0,
        "etas": [1e-1, 1e-2, 1e-3],
        "lambdas": [0.0, 0.05, 0.1],
        "n": 4000,
        "source": "pool",
        "burn_in": 200,
    },
    "fluctuation": {
        "E": 2.0,
        "eta": 0.01,
        "a": 0.25,
        "n": 10000,
        "lambdas": [0.05, 0.1],
        "source": "direct",
        "burn_in": 200,
    },
    "stability": {
        "lambdas": [0.2, 0.1, 0.05, 0.02],
        "etas": [1e-3],
        "e_min": 1.5,
        "e_max": 2.5,
        "eps": 0.1,
        "n": 2000,
    },
    "recursion": {
        "n": 1000,
        "E": 2.0,
        "eta": 1e-2,
        "seed_mode": "disk_zero",
    },
}


def _merge(base: dict, incoming: dict, prefix: str = ""):
    for key, val in incoming.items():
        dotted = f"{prefix}{key}"
        if key not in base:
            raise ValidationError(f"unknown configuration key {dotted!r}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ValidationError(f"configuration key {dotted!r} must be a table")
            _merge(base[key], val, dotted + ".")
        else:
            base[key] = _coerce(dotted, base[key], val)


def _coerce(dotted: str, default, val):
    if isinstance(default, bool):
        if not isinstance(val, bool):
            raise ValidationError(f"configuration key {dotted!r} must be a boolean")
        return val
    # a JSON number, not a bool, which isinstance would count as an int
    if isinstance(default, float) and type(val) in (int, float):
        return float(val)
    if isinstance(default, int) and isinstance(val, float) and val.is_integer():
        return int(val)
    if isinstance(default, list):
        if not isinstance(val, list):
            raise ValidationError(f"configuration key {dotted!r} must be a list")
        if not val:
            # every list is a grid of points, and an empty grid has no output
            raise ValidationError(f"configuration key {dotted!r} must list at least one number")
        if not all(type(v) in (int, float) for v in val):
            raise ValidationError(f"configuration key {dotted!r} must list numbers")
        return [float(v) for v in val]
    if type(default) is not type(val):
        raise ValidationError(
            f"configuration key {dotted!r} expects {type(default).__name__}, "
            f"got {type(val).__name__}"
        )
    return val


def load_config(path: str = None) -> dict:
    """Defaults merged with an optional JSON configuration file."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path) as fh:
                incoming = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read configuration file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"configuration file is not valid JSON: {exc}") from exc
        if not isinstance(incoming, dict):
            raise ValidationError("configuration file must hold a JSON object")
        _merge(cfg, incoming)
    return cfg


def apply_override(cfg: dict, assignment: str):
    """Apply one ``dotted.path=value`` override in place.

    The value is parsed as JSON, falling back to a bare string, and the
    path must name an existing leaf.
    """
    if "=" not in assignment:
        raise ValidationError(f"override {assignment!r} is not of the form key=value")
    path, _, raw = assignment.partition("=")
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw
    _set_leaf(cfg, path.strip(), val)


def _set_leaf(cfg: dict, path: str, val):
    """Set the existing leaf at the dotted ``path`` to ``val``, coerced to its type."""
    keys = path.split(".")
    node = cfg
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ValidationError(f"unknown configuration key {path!r}")
        node = node[k]
    leaf = keys[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ValidationError(f"unknown configuration key {path!r}")
    if isinstance(node[leaf], dict):
        raise ValidationError(f"configuration key {path!r} is a table, not a leaf")
    node[leaf] = _coerce(path, node[leaf], val)


def make_spec(cfg: dict) -> TreeSpec:
    """TreeSpec from the geometry and root-condition keys."""
    return TreeSpec(K=cfg["K"], L=cfg["L"], depth=cfg["depth"], alpha=cfg["alpha"])


def make_disorder(cfg: dict) -> DisorderModel:
    """DisorderModel from the disorder section."""
    d = cfg["disorder"]
    return DisorderModel(lam=d["lambda"], dist=d["dist"], master_seed=d["master_seed"])
