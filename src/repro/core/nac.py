"""The 1-hop Neighbor Access Controller (paper Fig. 2a).

The NAC mediates every halo exchange: local neighbours come out of shared
memory for free, remote neighbours go through an exchange policy, the
traffic meter and the compute clocks.

Since the staged-engine refactor the exchange machinery itself lives in
:class:`repro.engine.transport.HaloTransport` — one transport layer
serving the sequential and threaded paths in both directions
through per-channel :class:`~repro.engine.transport.ChannelSession`
plans. ``NeighborAccessController`` is the compatibility name for that
transport: constructing one is exactly constructing a
:class:`HaloTransport` (same arguments, same accounting, same
fault-tolerance behaviour), and existing callers — the benches, the
robustness suite, direct users of ``exchange``/``reverse_exchange`` —
keep working unchanged. See ``docs/engine.md`` for the transport's
design notes (thread fan-out, degradation ladder).
"""

from __future__ import annotations

from repro.engine.transport import ChannelSession, HaloTransport

__all__ = ["NeighborAccessController"]

# Historical private alias: the per-channel plan used to be ``_Channel``.
_Channel = ChannelSession


class NeighborAccessController(HaloTransport):
    """Runs one halo exchange across all worker pairs.

    When a :class:`~repro.faults.FaultInjector` is attached (see
    :attr:`injector`), every delivery can drop, corrupt or stall; the
    NAC retransmits with exponential backoff — retry bytes hit the
    traffic meter and backoff stalls the requester, so the modelled
    epoch time reflects the faults — and when retries are exhausted it
    *degrades* instead of aborting: the requester substitutes the
    ReqEC-FP predicted candidate, its last successfully received rows
    for the channel, or zeros (partial aggregation), in that order.

    Args:
        threads: Fan the independent channels of one exchange out over
            this many threads; ``0``/``1`` keeps the sequential loop.
    """
