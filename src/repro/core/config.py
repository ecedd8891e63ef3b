"""Configuration objects for EC-Graph training runs."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.compression.quantization import SUPPORTED_BITS
from repro.core.bit_tuner import (
    DEFAULT_LOWER_THRESHOLD,
    DEFAULT_RAISE_THRESHOLD,
)
from repro.faults.config import FAULTS_DISABLED, FaultConfig
from repro.obs.config import OBS_DISABLED, ObsConfig

__all__ = ["ModelConfig", "ECGraphConfig"]

_FP_MODES = ("raw", "compress", "reqec", "delayed")
_BP_MODES = ("raw", "compress", "resec", "delayed")
_GRANULARITIES = ("vertex", "matrix", "element")
_EXECUTION_MODES = ("sync", "multiprocess")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of the GNN being trained: every hidden layer is ReLU
    after a learned bias, as in the paper.

    Attributes:
        num_layers: ``L``; the paper sweeps 2-4.
        hidden_dim: Width of every hidden layer (16 for the citation
            graphs, 256 for the OGBN graphs in the paper).
        model: ``gcn`` (symmetric normalization) or ``sage`` (row
            normalization / mean aggregator).
    """

    num_layers: int = 2
    hidden_dim: int = 16
    model: str = "gcn"

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.model not in ("gcn", "sage"):
            raise ValueError(f"unknown model {self.model!r}")

    def layer_dims(self, input_dim: int, num_classes: int) -> list[int]:
        """Dimensions ``[d0, hidden, ..., hidden, num_classes]``."""
        return [input_dim] + [self.hidden_dim] * (self.num_layers - 1) + [
            num_classes
        ]


@dataclass(frozen=True)
class ECGraphConfig:
    """Every knob of the EC-Graph training pipeline.

    The defaults reproduce the paper's EC-Graph configuration: ReqEC-FP
    with the adaptive Bit-Tuner in the forward direction and ResEC-BP in
    the backward direction, ``T_tr = 10``, vertex-wise selection.

    Attributes:
        fp_mode: Forward halo exchange: ``raw`` (Non-cp), ``compress``
            (Cp-fp), ``reqec`` (ReqEC-FP) or ``delayed`` (DistGNN-style
            partial aggregation).
        bp_mode: Backward halo exchange: ``raw``, ``compress`` (Cp-bp),
            ``resec`` (ResEC-BP) or ``delayed``.
        fp_bits / bp_bits: Initial quantization widths ``B``, one of
            ``SUPPORTED_BITS`` (1, 2, 4, 8, 16).
        adaptive_bits: Enable the Bit-Tuner (only meaningful with
            ``fp_mode == "reqec"``).
        trend_period: ``T_tr`` — exact embeddings + changing rate shipped
            every this many iterations.
        selector_granularity: ``vertex`` (paper default), ``matrix`` or
            ``element``.
        tuner_raise / tuner_lower: Bit-Tuner thresholds on the predicted
            proportion (paper: 0.6 / 0.4).
        cache_first_hop: Cache remote 1-hop neighbour *features* at setup
            (the paper's first basic optimization).
        transform_first: Compute ``X W`` before aggregating when the input
            dimension exceeds the output (the paper's second basic
            optimization, borrowed from DGL).
        learning_rate: The servers' Adam step size (the one training
            hyperparameter; Adam's betas and epsilon are constants).
        execution: ``"sync"`` runs every worker inline in this process
            (the historical simulation); ``"multiprocess"`` runs worker
            kernels in real OS processes over shared-memory embedding /
            gradient stores (see ``docs/execution.md``). Loss curves and
            traffic accounting are bit-identical between the two.
        seed: Seed for parameter initialization and sampling.
        obs: Telemetry configuration (:class:`~repro.obs.ObsConfig`);
            disabled by default so instrumented hot paths stay free.
        faults: Fault-injection schedule and tolerance policy
            (:class:`~repro.faults.FaultConfig`); disabled by default,
            in which case training is bit-identical to a fault-free
            build.
    """

    fp_mode: str = "reqec"
    bp_mode: str = "resec"
    fp_bits: int = 4
    bp_bits: int = 4
    adaptive_bits: bool = True
    trend_period: int = 10
    selector_granularity: str = "vertex"
    tuner_raise: float = DEFAULT_RAISE_THRESHOLD
    tuner_lower: float = DEFAULT_LOWER_THRESHOLD
    cache_first_hop: bool = True
    transform_first: bool = True
    learning_rate: float = 0.01
    execution: str = "sync"
    seed: int = 0
    obs: ObsConfig = OBS_DISABLED
    faults: FaultConfig = FAULTS_DISABLED

    def __post_init__(self):
        if self.fp_mode not in _FP_MODES:
            raise ValueError(f"fp_mode must be one of {_FP_MODES}")
        if self.bp_mode not in _BP_MODES:
            raise ValueError(f"bp_mode must be one of {_BP_MODES}")
        if self.fp_bits not in SUPPORTED_BITS:
            raise ValueError(
                f"fp_bits must be in {SUPPORTED_BITS}, got {self.fp_bits}"
            )
        if self.bp_bits not in SUPPORTED_BITS:
            raise ValueError(
                f"bp_bits must be in {SUPPORTED_BITS}, got {self.bp_bits}"
            )
        if self.selector_granularity not in _GRANULARITIES:
            raise ValueError(
                f"selector_granularity must be one of {_GRANULARITIES}"
            )
        if self.trend_period < 2:
            raise ValueError("trend_period must be >= 2")
        if not 0.0 <= self.tuner_lower < self.tuner_raise <= 1.0:
            raise ValueError("need 0 <= tuner_lower < tuner_raise <= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.execution not in _EXECUTION_MODES:
            raise ValueError(f"execution must be one of {_EXECUTION_MODES}")
        if self.execution == "multiprocess" and self.faults.elastic:
            raise ValueError(
                "execution='multiprocess' does not support elastic "
                "membership yet: partition adoption rebinds worker state "
                "that forked processes have already snapshotted. Use "
                "execution='sync' for elastic runs."
            )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    # Convenience presets matching the paper's named configurations.
    def as_non_cp(self) -> "ECGraphConfig":
        """Non-cp: raw float messages in both directions."""
        return replace(self, fp_mode="raw", bp_mode="raw")

    def as_cp_only(self) -> "ECGraphConfig":
        """Cp-fp/Cp-bp: compression without compensation."""
        return replace(
            self, fp_mode="compress", bp_mode="compress", adaptive_bits=False
        )
