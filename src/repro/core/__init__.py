"""EC-Graph core: the paper's contribution.

Configuration, GCN math, halo-exchange policies (including ReqEC-FP with
the adaptive Bit-Tuner and ResEC-BP), worker state and the distributed
trainer (the NAC is :class:`repro.engine.transport.HaloTransport`; the
architectures are :mod:`repro.engine.backends` objects).
"""

from repro.core.bit_tuner import BitTuner
from repro.core.checkpoint import (
    CheckpointError,
    load_checkpoint,
    restore_trainer,
    save_checkpoint,
)
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.messages import ChannelKey, ChannelMessage, RawPolicy
from repro.core.models import GNNParameters, build_parameters
from repro.core.policies import (
    CompressPolicy,
    DelayedPolicy,
    Float16Policy,
    OneBitPolicy,
    TopKPolicy,
)
from repro.core.reqec_fp import (
    SELECT_AVERAGE,
    SELECT_COMPRESSED,
    SELECT_PREDICTED,
    ReqECPolicy,
)
from repro.core.resec_bp import ResECPolicy
from repro.core.results import ConvergenceRun, EpochResult
from repro.core.trainer import ECGraphTrainer
from repro.core.worker import WorkerState, build_worker_states

__all__ = [
    "BitTuner",
    "ECGraphConfig",
    "ModelConfig",
    "ChannelKey",
    "ChannelMessage",
    "RawPolicy",
    "GNNParameters",
    "build_parameters",
    "CompressPolicy",
    "DelayedPolicy",
    "Float16Policy",
    "OneBitPolicy",
    "TopKPolicy",
    "SELECT_AVERAGE",
    "SELECT_COMPRESSED",
    "SELECT_PREDICTED",
    "ReqECPolicy",
    "ResECPolicy",
    "CheckpointError",
    "ConvergenceRun",
    "EpochResult",
    "ECGraphTrainer",
    "load_checkpoint",
    "restore_trainer",
    "save_checkpoint",
    "WorkerState",
    "build_worker_states",
]
