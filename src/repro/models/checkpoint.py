"""Checkpoint I/O: save/load models as portable ``.npz`` files.

A deployment needs the trained **parameters** plus the LUT encoder's
calibrated bin edges, which are data statistics rather than parameters.

Format: a flat NumPy ``.npz`` with ``param/<name>`` entries and ``meta/...``
entries for the config — no pickle, no custom binary, loadable anywhere
NumPy runs.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .config import ModelConfig
from .tgn import TGNN
from .time_encoding import LUTTimeEncoder

__all__ = ["save_model", "load_model"]


def save_model(model: TGNN, path: str) -> None:
    """Serialise config + parameters (+ LUT calibration) to ``path``."""
    payload: dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        payload[f"param/{name}"] = value
    cfg_json = json.dumps(dataclasses.asdict(model.cfg))
    payload["meta/config"] = np.frombuffer(cfg_json.encode(), dtype=np.uint8)
    if isinstance(model.time_encoder, LUTTimeEncoder):
        payload["meta/lut_edges"] = model.time_encoder.edges
        payload["meta/lut_calibrated"] = np.array(
            [model.time_encoder.calibrated], dtype=bool)
    np.savez(path, **payload)


def load_model(path: str) -> TGNN:
    """Reconstruct a model saved by :func:`save_model`."""
    data = np.load(path, allow_pickle=False)
    cfg_json = bytes(data["meta/config"]).decode()
    raw = json.loads(cfg_json)
    # dataclasses.asdict keeps tuples as lists; ModelConfig has none today,
    # but guard the pruning_budget null round-trip explicitly.
    cfg = ModelConfig(**raw)
    model = TGNN(cfg)
    state = {key[len("param/"):]: data[key]
             for key in data.files if key.startswith("param/")}
    model.load_state_dict(state)
    if isinstance(model.time_encoder, LUTTimeEncoder) \
            and "meta/lut_edges" in data.files:
        model.time_encoder.edges = data["meta/lut_edges"]
        model.time_encoder.calibrated = bool(data["meta/lut_calibrated"][0])
    model.prepare_inference()
    return model
