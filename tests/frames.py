"""What a policy's message carries, read back from its wire frame.

A ``ChannelMessage`` holds only its frame; :func:`payload` decodes it
with the ``cluster/serialize.py`` decoder of its kind, so a test can
look at the rows, flags and selections a policy shipped. The arrays are
views of the frame's buffers.
"""

from __future__ import annotations

from repro.cluster.serialize import (
    decode_exact,
    decode_quantized,
    decode_raw,
    decode_selector,
)

__all__ = ["payload"]

_DECODERS = {
    "raw": decode_raw,
    "quant": decode_quantized,
    "exact": decode_exact,
    "selector": decode_selector,
}


def payload(message):
    """``message``'s frame decoded: raw rows, a ``QuantizedMatrix``,
    exact ``(rows, has_base)`` or selector ``(selection, subset,
    predicted count)``."""
    return _DECODERS[message.kind](message.frame)
