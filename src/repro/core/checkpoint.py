"""Checkpointing: persist trained parameters and training state.

Long full-batch runs on large graphs (the paper's OGBN-Papers takes
~90 s *per epoch* on its 6-machine cluster) need restartability. A
checkpoint stores the server-side parameters, the iteration counter, the
model/EC configuration fingerprints and the run history, in a single
``.npz`` archive.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.faults.config import FaultConfig
from repro.obs.config import ObsConfig

__all__ = [
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "restore_trainer",
]

# Bumped whenever a config field goes: an older file is refused by
# version rather than translated field by field.
_FORMAT_VERSION = 4


class CheckpointError(ValueError):
    """A checkpoint file is truncated, corrupt or otherwise unusable.

    Every deserialization failure surfaces as this one exception (with
    the offending path in the message) so callers — the CLI, crash
    recovery — can handle "bad checkpoint" without pattern-matching on
    zipfile/numpy/json internals.
    """


def _load_ec_config(fields: dict) -> ECGraphConfig:
    """Rebuild the config; ``asdict`` flattened the nested sub-configs."""
    obs = fields.get("obs")
    if isinstance(obs, dict):
        fields["obs"] = ObsConfig(**obs)
    faults = fields.get("faults")
    if isinstance(faults, dict):
        fields["faults"] = FaultConfig.from_dict(faults)
    return ECGraphConfig(**fields)


def save_checkpoint(
    trainer: ECGraphTrainer,
    path: str | Path,
    epoch: int,
    extra: dict | None = None,
) -> None:
    """Write the trainer's current parameters and metadata to ``path``.

    The write is atomic *and durable*: the archive is built in a
    temporary file in the same directory, fsynced, and moved into place
    with :func:`os.replace`, after which the containing directory is
    fsynced too — so neither a crash mid-save nor a power loss right
    after the rename can leave a truncated or missing checkpoint behind;
    the previous checkpoint (if any) survives intact.

    Args:
        trainer: A set-up trainer (its servers hold the parameters).
        path: Target ``.npz`` file; parent directories are created.
        epoch: Number of completed training iterations.
        extra: Optional JSON-serializable metadata to carry along.
    """
    trainer.setup()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: dict[str, np.ndarray] = {
        "format_version": np.int64(_FORMAT_VERSION),
        "epoch": np.int64(epoch),
        "model_config_json": np.str_(json.dumps(asdict(trainer.model_config))),
        "ec_config_json": np.str_(json.dumps(asdict(trainer.config))),
        "extra_json": np.str_(json.dumps(extra or {})),
        "param_names": np.array(
            trainer.servers.parameter_names(), dtype=np.str_
        ),
    }
    for name in trainer.servers.parameter_names():
        payload[f"param/{name}"] = trainer.servers.get(name)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
        _fsync_directory(path.parent)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry (the rename) to stable storage.

    Best-effort: some filesystems refuse to fsync a directory handle;
    the data file itself is already synced, so that is not fatal.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint into a plain dict.

    Returns keys: ``epoch``, ``model_config``, ``ec_config``, ``extra``
    and ``params`` (name -> array).

    Raises:
        FileNotFoundError: ``path`` does not exist.
        CheckpointError: the file is truncated, corrupt, from an
            unsupported format version, or missing required entries.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            version = int(archive["format_version"])
            if version != _FORMAT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint version {version} in {path} "
                    f"(expected {_FORMAT_VERSION})"
                )
            names = [str(n) for n in archive["param_names"]]
            return {
                "epoch": int(archive["epoch"]),
                "model_config": ModelConfig(
                    **json.loads(str(archive["model_config_json"]))
                ),
                "ec_config": _load_ec_config(
                    json.loads(str(archive["ec_config_json"]))
                ),
                "extra": json.loads(str(archive["extra_json"])),
                "params": {name: archive[f"param/{name}"] for name in names},
            }
    except CheckpointError:
        raise
    except (
        zipfile.BadZipFile,
        OSError,
        EOFError,
        KeyError,
        TypeError,
        ValueError,
        json.JSONDecodeError,
    ) as exc:
        raise CheckpointError(
            f"corrupt or truncated checkpoint {path}: {exc}"
        ) from None


def restore_trainer(trainer: ECGraphTrainer, path: str | Path) -> int:
    """Load checkpointed parameters into ``trainer``; returns the epoch.

    The trainer's model configuration must match the checkpoint's —
    mismatched architectures fail loudly instead of silently truncating.
    """
    state = load_checkpoint(path)
    if state["model_config"] != trainer.model_config:
        raise ValueError(
            "checkpoint model config does not match the trainer: "
            f"{state['model_config']} vs {trainer.model_config}"
        )
    trainer.setup()
    for name, value in state["params"].items():
        trainer.servers.set(name, value)
    return state["epoch"]
