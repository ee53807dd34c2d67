"""Checkpoint I/O: save/load models as portable ``.npz`` files.

A deployment needs the trained **parameters** plus the LUT encoder's
calibrated bin edges, which are data statistics rather than parameters.

Format: a flat NumPy ``.npz`` with ``param/<name>`` entries and ``meta/...``
entries — no pickle, no custom binary, loadable anywhere NumPy runs:

* ``meta/format``: the format version, :data:`FORMAT` (2).  A file without
  it is version 1, whose ``meta/config`` also carried the
  ``memory_updater`` choice; :func:`load_model` migrates it in one step,
  dropping ``"gru"`` (the one updater) and refusing ``"rnn"``;
* ``meta/config``: the :class:`ModelConfig` fields as UTF-8 JSON;
* ``meta/lut_edges`` and ``meta/lut_calibrated``: the LUT calibration,
  stored only for a LUT model.

A file :func:`load_model` cannot turn into a model — not an archive, no
config, a newer format, a config or parameter set that does not fit — is
one ``ValueError`` naming the file.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .config import ModelConfig
from .tgn import TGNN
from .time_encoding import LUTTimeEncoder

__all__ = ["save_model", "load_model", "FORMAT"]

FORMAT = 2


def save_model(model: TGNN, path: str) -> None:
    """Serialise config + parameters (+ LUT calibration) to ``path``."""
    payload: dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        payload[f"param/{name}"] = value
    payload["meta/format"] = np.array(FORMAT)
    cfg_json = json.dumps(dataclasses.asdict(model.cfg))
    payload["meta/config"] = np.frombuffer(cfg_json.encode(), dtype=np.uint8)
    if isinstance(model.time_encoder, LUTTimeEncoder):
        payload["meta/lut_edges"] = model.time_encoder.edges
        payload["meta/lut_calibrated"] = np.array(
            [model.time_encoder.calibrated], dtype=bool)
    np.savez(path, **payload)


def _config(data, path: str) -> ModelConfig:
    """The file's config, migrated to :data:`FORMAT`."""
    if "meta/config" not in data.files:
        raise ValueError(f"{path}: not a model checkpoint (no meta/config)")
    raw = json.loads(bytes(data["meta/config"]).decode())
    version = int(data["meta/format"]) if "meta/format" in data.files else 1
    if version > FORMAT:
        raise ValueError(f"{path}: checkpoint format {version} is newer "
                         f"than this reader's {FORMAT}")
    if version == 1:
        updater = raw.pop("memory_updater", "gru")
        if updater != "gru":
            raise ValueError(f"{path}: the {updater!r} memory updater is "
                             f"gone; only 'gru' checkpoints load")
    try:
        return ModelConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: config does not fit ModelConfig "
                         f"({exc})") from None


def load_model(path: str) -> TGNN:
    """Reconstruct a model saved by :func:`save_model` (any format up to
    :data:`FORMAT`)."""
    data = np.load(path, allow_pickle=False)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not a model checkpoint (one array, not "
                         f"an .npz archive)")
    with data:
        model = TGNN(_config(data, path))
        state = {key[len("param/"):]: data[key]
                 for key in data.files if key.startswith("param/")}
        try:
            model.load_state_dict(state)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: parameters do not match the model "
                             f"({exc.args[0]})") from None
        if isinstance(model.time_encoder, LUTTimeEncoder) \
                and "meta/lut_edges" in data.files:
            model.time_encoder.edges = data["meta/lut_edges"]
            model.time_encoder.calibrated = bool(
                data["meta/lut_calibrated"][0])
    model.prepare_inference()
    return model
