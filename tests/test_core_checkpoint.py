"""Unit tests for checkpointing."""

import json

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.checkpoint import (
    CheckpointError,
    load_checkpoint,
    restore_trainer,
    save_checkpoint,
)
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer


def _trainer(graph, layers=2, seed=3):
    return ECGraphTrainer(
        graph, ModelConfig(num_layers=layers, hidden_dim=8),
        ClusterSpec(num_workers=2),
        ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=seed),
    )


class TestRoundTrip:
    def test_params_and_metadata_preserved(self, small_graph, tmp_path):
        trainer = _trainer(small_graph)
        for t in range(5):
            trainer.run_epoch(t)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path, epoch=5, extra={"note": "unit"})
        state = load_checkpoint(path)
        assert state["epoch"] == 5
        assert state["extra"] == {"note": "unit"}
        assert state["model_config"] == trainer.model_config
        assert state["ec_config"] == trainer.config
        for name in trainer.servers.parameter_names():
            np.testing.assert_array_equal(
                state["params"][name], trainer.servers.get(name)
            )

    def test_restore_resumes_identically(self, small_graph, tmp_path):
        reference = _trainer(small_graph)
        for t in range(8):
            reference.run_epoch(t)

        first_half = _trainer(small_graph)
        for t in range(4):
            first_half.run_epoch(t)
        path = tmp_path / "mid.npz"
        save_checkpoint(first_half, path, epoch=4)

        resumed = _trainer(small_graph)
        epoch = restore_trainer(resumed, path)
        assert epoch == 4
        losses = [resumed.run_epoch(t).loss for t in range(4, 8)]
        # The optimizer state (Adam moments) is not checkpointed, so the
        # trajectory differs, but the restored parameters must be exactly
        # the mid-run ones: loss right after restore is close to the
        # reference run's epoch-4 loss.
        reference_loss = None
        probe = _trainer(small_graph)
        restore_trainer(probe, path)
        reference_loss = probe.run_epoch(4).loss
        assert losses[0] == pytest.approx(reference_loss)

    def test_creates_parent_dirs(self, small_graph, tmp_path):
        trainer = _trainer(small_graph)
        trainer.run_epoch(0)
        path = tmp_path / "deep" / "dir" / "c.npz"
        save_checkpoint(trainer, path, epoch=1)
        assert path.exists()


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "missing.npz")

    def test_architecture_mismatch_rejected(self, small_graph, tmp_path):
        trainer = _trainer(small_graph, layers=2)
        trainer.run_epoch(0)
        path = tmp_path / "l2.npz"
        save_checkpoint(trainer, path, epoch=1)
        other = _trainer(small_graph, layers=3)
        with pytest.raises(ValueError, match="model config"):
            restore_trainer(other, path)

    @pytest.mark.parametrize("version", [1, 42])
    def test_bad_version_rejected(self, small_graph, tmp_path, version):
        trainer = _trainer(small_graph)
        trainer.run_epoch(0)
        path = tmp_path / "v.npz"
        save_checkpoint(trainer, path, epoch=1)
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["format_version"] = np.int64(version)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_version_2_refused_by_version(self, small_graph, tmp_path):
        """A version-2 file still names the retired options (optimizer,
        weight_decay, the fault-tolerance fields): its version refuses
        it before any field is read."""
        trainer = _trainer(small_graph)
        trainer.run_epoch(0)
        path = tmp_path / "v2.npz"
        save_checkpoint(trainer, path, epoch=1)
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        fields = json.loads(str(payload["ec_config_json"]))
        fields.update(optimizer="adam", weight_decay=0.0)
        fields["faults"].update(max_retries=3, reset_residuals=True)
        payload["ec_config_json"] = np.str_(json.dumps(fields))
        payload["format_version"] = np.int64(2)
        np.savez_compressed(path, **payload)
        with pytest.raises(
            CheckpointError, match="unsupported checkpoint version 2"
        ):
            load_checkpoint(path)

    def test_version_3_refused_by_version(self, small_graph, tmp_path):
        """A version-3 file still records the retired ``ModelConfig``
        fields ``activation`` and ``use_bias``: its version refuses it
        before any field is read."""
        trainer = _trainer(small_graph)
        trainer.run_epoch(0)
        path = tmp_path / "v3.npz"
        save_checkpoint(trainer, path, epoch=1)
        with np.load(path) as archive:
            payload = {k: archive[k] for k in archive.files}
        fields = json.loads(str(payload["model_config_json"]))
        fields.update(activation="relu", use_bias=True)
        payload["model_config_json"] = np.str_(json.dumps(fields))
        payload["format_version"] = np.int64(3)
        np.savez_compressed(path, **payload)
        with pytest.raises(
            CheckpointError, match="unsupported checkpoint version 3"
        ):
            load_checkpoint(path)

    def test_truncated_file_raises_checkpoint_error(
        self, small_graph, tmp_path
    ):
        trainer = _trainer(small_graph)
        trainer.run_epoch(0)
        path = tmp_path / "trunc.npz"
        save_checkpoint(trainer, path, epoch=1)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path)

    def test_garbage_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path)

    def test_missing_entries_raise_checkpoint_error(
        self, small_graph, tmp_path
    ):
        trainer = _trainer(small_graph)
        trainer.run_epoch(0)
        path = tmp_path / "partial.npz"
        save_checkpoint(trainer, path, epoch=1)
        with np.load(path) as archive:
            payload = {
                k: archive[k] for k in archive.files if k != "param_names"
            }
        np.savez_compressed(path, **payload)
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path)

    def test_checkpoint_error_is_a_value_error(self):
        assert issubclass(CheckpointError, ValueError)


def _rewrite_ec_config(path, **extra_fields):
    """Re-save ``path`` with extra keys in its ``ec_config_json``."""
    with np.load(path) as archive:
        payload = {k: archive[k] for k in archive.files}
    fields = json.loads(str(payload["ec_config_json"]))
    fields.update(extra_fields)
    payload["ec_config_json"] = np.str_(json.dumps(fields))
    np.savez_compressed(path, **payload)


class TestRetiredConfigFields:
    """Config fields retire by format version: an older file is refused
    whole, and in a current-version file an unknown field or an invalid
    value is corruption."""

    @pytest.mark.parametrize("field", ["fp_bits", "bp_bits"])
    def test_width_off_the_ladder_is_corrupt(
        self, small_graph, tmp_path, field
    ):
        """A width outside ``SUPPORTED_BITS`` fails config validation, so
        a checkpoint holding one loads like any other invalid config."""
        trainer = _trainer(small_graph)
        trainer.run_epoch(0)
        path = tmp_path / f"old-{field}.npz"
        save_checkpoint(trainer, path, epoch=1)
        _rewrite_ec_config(path, **{field: 3})
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    def test_other_unknown_field_is_still_corrupt(
        self, small_graph, tmp_path
    ):
        trainer = _trainer(small_graph)
        trainer.run_epoch(0)
        path = tmp_path / "bad.npz"
        save_checkpoint(trainer, path, epoch=1)
        _rewrite_ec_config(path, not_a_field=1)
        with pytest.raises(CheckpointError, match="not_a_field"):
            load_checkpoint(path)

    def test_other_unknown_obs_field_is_still_corrupt(
        self, small_graph, tmp_path
    ):
        trainer = _trainer(small_graph)
        trainer.run_epoch(0)
        path = tmp_path / "bad-obs.npz"
        save_checkpoint(trainer, path, epoch=1)
        _rewrite_ec_config(
            path, obs={"enabled": True, "max_spans": 1234, "sampling": True}
        )
        with pytest.raises(CheckpointError, match="sampling"):
            load_checkpoint(path)


class TestAtomicSave:
    def test_failed_save_preserves_previous_checkpoint(
        self, small_graph, tmp_path, monkeypatch
    ):
        trainer = _trainer(small_graph)
        trainer.run_epoch(0)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(trainer, path, epoch=1)
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", boom)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(trainer, path, epoch=2)
        # The old checkpoint survives byte-for-byte; no temp litter.
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        assert load_checkpoint(path)["epoch"] == 1

    def test_no_temp_files_left_on_success(self, small_graph, tmp_path):
        trainer = _trainer(small_graph)
        trainer.run_epoch(0)
        path = tmp_path / "clean.npz"
        save_checkpoint(trainer, path, epoch=1)
        assert list(tmp_path.iterdir()) == [path]
