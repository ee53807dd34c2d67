"""Checkpoint I/O: save/load models and runtimes as portable ``.npz`` files.

A deployment needs two artifacts: the trained **parameters** (plus the LUT
encoder's calibrated bin edges, which are data statistics rather than
parameters) and, optionally, the warm **runtime state** (vertex memory,
mailbox, neighbor table) so inference can resume mid-stream.

Format: a flat NumPy ``.npz`` with ``param/<name>`` entries, ``meta/...``
entries for the config, and ``state/...`` entries for runtime state — no
pickle, no custom binary, loadable anywhere NumPy runs.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .config import ModelConfig
from .tgn import TGNN, ModelRuntime
from .time_encoding import LUTTimeEncoder

__all__ = ["save_model", "load_model", "save_runtime", "load_runtime"]


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


def save_runtime(rt: ModelRuntime, path: str) -> None:
    """Serialise vertex state + neighbor table (resume-able stream state)."""
    np.savez(path,
             **{f"state/{k}": v for k, v in rt.state.snapshot().items()},
             **{f"nbr/{k}": v
                for k, v in rt.sampler.table.snapshot().items()})


def load_runtime(model: TGNN, num_nodes: int, path: str) -> ModelRuntime:
    """Rebuild a runtime saved by :func:`save_runtime` for ``model``."""
    data = np.load(path, allow_pickle=False)

    class _Graphish:
        pass

    g = _Graphish()
    g.num_nodes = num_nodes
    rt = model.new_runtime(g)  # type: ignore[arg-type]
    rt.state.restore({k[len("state/"):]: data[k]
                      for k in data.files if k.startswith("state/")})
    rt.sampler.table.restore({k[len("nbr/"):]: data[k]
                              for k in data.files if k.startswith("nbr/")})
    return rt
