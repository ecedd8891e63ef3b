"""Byte totals and final losses of every halo-exchange policy, pinned.

Each of the eight policies runs as the forward policy (ResEC-BP as the
backward one) for a few epochs on the small planted-partition graph.
The constants were recorded when each policy still sized its messages
with its own arithmetic; every message now charges the length of its
``cluster/serialize.py`` frame, so these totals are what pins the two
to the byte. The losses pin that decoding the frames changed no value.
"""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.messages import RawPolicy
from repro.core.policies import (
    CompressPolicy,
    DelayedPolicy,
    Float16Policy,
    OneBitPolicy,
    TopKPolicy,
)
from repro.core.trainer import ECGraphTrainer

EPOCHS = 8
RAW = ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=1)

# name -> (run kwargs, total_bytes(), last epoch's loss)
PINNED = {
    "raw": (lambda: {"fp_policy": RawPolicy()},
            174496, 0.8752018332481384),
    "compress2": (lambda: {"fp_policy": CompressPolicy(2)},
                  98656, 0.9285888075828551),
    "float16": (lambda: {"fp_policy": Float16Policy()},
                132768, 0.8752049386501312),
    "topk2": (lambda: {"fp_policy": TopKPolicy(k=2)},
              132768, 0.8846518278121949),
    "onebit": (lambda: {"fp_policy": OneBitPolicy()},
               94416, 1.031054651737213),
    "delayed": (lambda: {"fp_policy": DelayedPolicy()},
                117888, 0.9098909080028534),
    # T_tr = 3 over 8 epochs: quant, exact and selector frames all ship.
    "reqec": (lambda: {"config": ECGraphConfig(
        fp_mode="reqec", bp_mode="raw", fp_bits=2, trend_period=3, seed=1,
    )}, 131482, 0.8924645841121672),
    "resec": (lambda: {"config": ECGraphConfig(
        fp_mode="raw", bp_mode="resec", bp_bits=2, seed=1,
    )}, 123128, 0.8810301661491394),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_byte_total_and_loss_are_pinned(small_graph, name):
    make, total_bytes, loss = PINNED[name]
    kwargs = make()
    config = kwargs.pop("config", RAW)
    run = ECGraphTrainer(
        small_graph, ModelConfig(num_layers=3, hidden_dim=8),
        ClusterSpec(num_workers=3), config, **kwargs,
    ).train(EPOCHS)
    assert run.total_bytes() == total_bytes
    assert repr(run.epochs[-1].loss) == repr(loss)
