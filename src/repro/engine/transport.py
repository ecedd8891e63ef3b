"""The unified halo transport: one code path for every exchange.

This is the paper's 1-hop Neighbor Access Controller (Fig. 2a): local
neighbours come out of shared memory for free, remote neighbours go
through an exchange policy, the traffic meter and the compute clocks.
Forward and reverse exchanges share one transport layer:

* :class:`ChannelSession` materializes one planned (responder,
  requester) channel — the rows it serves, where the decoded rows land
  (forward scatter into halo slots, or reverse accumulation into the
  owner's local rows) — so the runner loops are direction-agnostic;
* :class:`HaloTransport` plans the sessions in the canonical order
  (requesters ascending, then halo-slot insertion order; reverse:
  consumers ascending, then their owners) and drives them through the
  one runner.

Fault retry (:meth:`HaloTransport._deliver`), policy failure
notification, stale-halo degradation and policy-time charging therefore
exist exactly once, shared by both directions. Channel order, float
scatter/accumulation order and the fault RNG's (epoch, layer, responder,
requester, attempt) fate keys are pinned by the golden runs.

The transport owns no buffers: the engine passes the halo tails of its
layer workspaces as ``out=`` (:mod:`repro.engine.workspace`); without it
a call gets fresh zeroed arrays. A tail still holds last iteration's
rows, so it is zero-filled exactly when this exchange can leave a slot
unwritten — a sampled subset, or an attached fault injector (which
elastic membership requires) — and degradation sees zeros as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.cluster.engine import ClusterRuntime
from repro.core.messages import ChannelKey, ChannelMessage, ExchangePolicy
from repro.core.worker import WorkerState
from repro.faults.config import MAX_RETRIES
from repro.faults.injector import FATE_CORRUPT, FATE_DELAY, FATE_DROP
from repro.obs.tracing import monotonic_now

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

__all__ = ["ChannelSession", "HaloTransport"]

# Frame kinds whose policy calls are codec work (quantization, selector
# scoring and reconstruction): charged at 1 / CODEC_SPEEDUP of their wall
# time, emulating the paper's C++ compression kernels (see
# docs/simulation.md). ``exact`` and ``raw`` calls are copies, charged
# as measured.
_CODEC_KINDS = frozenset({"quant", "selector"})
CODEC_SPEEDUP = 20.0


@dataclass
class ChannelSession:
    """One planned (responder, requester) channel of a halo exchange.

    A session binds the channel key to the rows the responder serves and
    to the scatter target on the receiving side. Forward sessions write
    ``outputs[consumer][slots] = rows``; reverse sessions accumulate
    ``outputs[consumer] += rows`` at ``accumulate_rows`` (the owner's
    local row ids), preserving the float addition order of the planned
    sequence.
    """

    key: ChannelKey
    served: np.ndarray
    slots: np.ndarray | None = None
    rows_mask: np.ndarray | None = None
    accumulate_rows: np.ndarray | None = None

    @property
    def responder(self) -> int:
        return self.key.responder

    @property
    def consumer(self) -> int:
        return self.key.requester

    @property
    def reverse(self) -> bool:
        return self.accumulate_rows is not None

    def scatter(self, outputs: list[np.ndarray], rows: np.ndarray) -> None:
        """Place decoded ``rows`` into the consumer's output matrix."""
        if self.accumulate_rows is not None:
            np.add.at(outputs[self.consumer], self.accumulate_rows, rows)
        elif self.rows_mask is None:
            outputs[self.consumer][self.slots] = rows
        else:
            outputs[self.consumer][self.slots[self.rows_mask]] = rows


class HaloTransport:
    """Runs halo exchanges — forward and reverse — across worker pairs.

    When a :class:`~repro.faults.FaultInjector` is attached (see
    :attr:`injector`), every delivery can drop, corrupt or stall; the
    transport retransmits with exponential backoff — retry bytes hit the
    traffic meter and backoff stalls the requester, so the modelled
    epoch time reflects the faults — and when retries are exhausted it
    *degrades* instead of aborting: forward channels substitute the
    ReqEC-FP predicted candidate, the last successfully received rows,
    or zeros (partial aggregation), in that order; reverse channels
    contribute zero and let error-feedback policies fold the loss into
    their residuals.
    """

    def __init__(
        self,
        runtime: ClusterRuntime,
        workers: list[WorkerState],
    ) -> None:
        self.runtime = runtime
        self.workers = workers
        self.telemetry = runtime.telemetry
        # FaultInjector, attached by the trainer when faults are
        # enabled; None keeps the exchange loop on the fault-free path.
        self.injector: FaultInjector | None = None
        self._last_proportions: dict[tuple[int, int], float] = {}
        # Last successfully received rows per channel, the stale-halo
        # fallback of last resort. Populated only under fault injection.
        self._halo_cache: dict[ChannelKey, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def exchange(
        self,
        layer: int,
        t: int,
        rows_of: Callable[[WorkerState], np.ndarray],
        policy: ExchangePolicy,
        category: str,
        dim: int,
        out: list[np.ndarray],
        subset: dict[tuple[int, int], np.ndarray] | None = None,
    ) -> list[np.ndarray]:
        """Fetch remote rows for every worker; returns halo matrices.

        Args:
            layer: Layer id baked into the channel keys.
            t: Iteration number (policies schedule on it).
            rows_of: Maps a *responding* worker's state to the local
                matrix whose rows are being served (e.g. its ``H^{l-1}``).
            policy: The exchange policy for this direction.
            category: Traffic category for the meter.
            dim: Row width of the exchanged rows.
            out: One persistent ``(num_halo, dim)`` float32 target per
                worker (workspace halo tails).
            subset: Optional per-(responder, requester) boolean masks
                over the channel's full vertex list (sampling mode);
                channels not present exchange all rows.

        Returns:
            ``out``, rows scattered into each worker's halo ordering.
            Vertices outside a subset keep 0.
        """
        if subset is not None or self.injector is not None:
            for halo in out:
                halo.fill(0.0)
        self._last_proportions.clear()
        obs = self.telemetry
        with obs.span("halo_exchange", layer=layer, category=category):
            sessions = self._plan_forward(layer, rows_of, subset)
            self._run(sessions, out, t, policy, category, dim)
        return out

    def reverse_exchange(
        self,
        layer: int,
        t: int,
        halo_rows_of: Callable[[WorkerState], np.ndarray],
        policy: ExchangePolicy,
        category: str,
        dim: int,
        out: list[np.ndarray],
    ) -> list[np.ndarray]:
        """Push halo-partial gradients back to their owners and sum them.

        The mirror of :meth:`exchange`, needed by models with asymmetric
        aggregation (GAT): each worker computed *partial* gradients for
        the remote vertices it consumed; the owners must receive and sum
        those partials. The paper describes this as fetching "embedding
        gradients from out-neighbors" in the backward pass.

        Args:
            halo_rows_of: Maps a worker's state to its ``(num_halo, dim)``
                partial-gradient matrix (halo ordering).
            out: One persistent ``(num_local, dim)`` float32 accumulator
                per worker (always zero-filled).

        Returns:
            ``out``: per worker, the sum of the partials every consumer
            computed for that worker's vertices.
        """
        for rows in out:
            rows.fill(0.0)
        obs = self.telemetry
        with obs.span("halo_exchange", layer=layer, category=category,
                      direction="reverse"):
            sessions = self._plan_reverse(layer, halo_rows_of)
            self._run(sessions, out, t, policy, category, dim)
        return out

    def last_proportions(self) -> dict[tuple[int, int], float]:
        """Predicted-selection proportions observed in the last exchange.

        Keyed by (responder, requester); feeds the Bit-Tuner once per
        iteration, after the final forward layer (Algorithm 3).
        """
        return dict(self._last_proportions)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan_forward(
        self,
        layer: int,
        rows_of: Callable[[WorkerState], np.ndarray],
        subset: dict[tuple[int, int], np.ndarray] | None,
    ) -> Iterator[ChannelSession]:
        """Yield this round's sessions in the canonical order.

        The order — requesters ascending, then each requester's owners in
        halo-slot insertion order — is pinned by the golden runs. Served
        rows are gathered as each session is reached, so the runner
        holds one channel's copy at a time, not the exchange's.
        """
        for requester in self.workers:
            i = requester.worker_id
            # halo_slots insertion order IS the bit-pinned channel plan;
            # sorting would reorder float scatters and break the goldens.
            for owner, slots in requester.halo_slots.items():
                rows_mask = None
                if subset is not None:
                    rows_mask = subset.get((owner, i))
                    if rows_mask is not None and not rows_mask.any():
                        continue
                responder = self.workers[owner]
                serve_rows = responder.serves[i]
                source = rows_of(responder)
                if rows_mask is None:
                    served = source[serve_rows]
                else:
                    served = source[serve_rows[rows_mask]]
                yield ChannelSession(
                    key=ChannelKey(layer=layer, responder=owner, requester=i),
                    served=served,
                    slots=slots,
                    rows_mask=rows_mask,
                )

    def _plan_reverse(
        self,
        layer: int,
        halo_rows_of: Callable[[WorkerState], np.ndarray],
    ) -> Iterator[ChannelSession]:
        """Reverse sessions: consumers ascending, owners in slot order.

        Channel direction flips — the consumer responds with its halo
        partials and the owner "requests" them — so the key is
        ``ChannelKey(layer, responder=consumer, requester=owner)`` and
        the scatter accumulates into the owner's served local rows.
        """
        for consumer in self.workers:
            i = consumer.worker_id
            if not consumer.halo_slots:
                # No remote neighbours (or an empty post-membership
                # slot): nothing to push, and the backend may not have
                # partials for this worker at all.
                continue
            partials = halo_rows_of(consumer)
            # halo_slots insertion order IS the bit-pinned channel plan;
            # sorting would reorder reverse accumulation and break the
            # goldens.
            for owner, slots in consumer.halo_slots.items():
                owner_state = self.workers[owner]
                yield ChannelSession(
                    key=ChannelKey(layer=layer, responder=i, requester=owner),
                    served=partials[slots],
                    accumulate_rows=owner_state.serves[i],
                )

    # ------------------------------------------------------------------
    # Runner
    # ------------------------------------------------------------------
    def _run(
        self,
        sessions: Iterator[ChannelSession],
        outputs: list[np.ndarray],
        t: int,
        policy: ExchangePolicy,
        category: str,
        dim: int,
    ) -> None:
        obs = self.telemetry
        for ch in sessions:
            responder, consumer = ch.responder, ch.consumer
            with obs.span("encode", responder=responder, requester=consumer):
                start = monotonic_now()
                message = policy.respond(
                    ch.key, ch.served, t, rows_mask=ch.rows_mask
                )
                respond_wall = monotonic_now() - start
            self._charge_call(responder, respond_wall, message.kind)

            delivered = self._deliver(
                ch.key, message, responder, consumer, category
            )
            if obs.enabled:
                obs.metrics.inc(
                    "halo_rows", ch.served.shape[0], category=category
                )
                obs.metrics.observe(
                    "message_bytes", message.nbytes, category=category
                )

            if not delivered:
                self._degrade(ch, message, outputs, t, policy, category, dim)
                continue

            with obs.span("decode", responder=responder, requester=consumer):
                start = monotonic_now()
                rows = policy.receive(ch.key, message, t)
                receive_wall = monotonic_now() - start
            self._charge_call(consumer, receive_wall, message.kind)

            ch.scatter(outputs, rows)
            obs.ledger.record_rows(
                ch.key, category, ch.served.shape[0], ch.served.size
            )
            if (
                not ch.reverse
                and ch.rows_mask is None
                and self.injector is not None
            ):
                self._halo_cache[ch.key] = np.array(rows, copy=True)
            share = policy.predicted_share(message)
            if share is not None:
                self._last_proportions[(ch.responder, ch.consumer)] = share

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    def _deliver(
        self,
        key: ChannelKey,
        message: ChannelMessage,
        src: int,
        dst: int,
        category: str,
    ) -> bool:
        """Attempt delivery with retransmission; returns success.

        Every attempt — including failed ones, whose bytes were on the
        wire before the loss — is charged to the traffic meter. Each
        failed attempt stalls the receiving worker for the network's
        loss-detection timeout (the RTO a reliable RPC layer waits
        before declaring the message dead), retransmissions add the
        retry policy's exponential backoff on top, and late deliveries
        stall for the configured delay.
        """
        ledger = self.telemetry.ledger
        # The meter says whether it charged the bytes (intra-machine
        # frames are free), so the ledger reconciles against it exactly.
        metered = self.runtime.send_worker_to_worker(
            src, dst, message.nbytes, category
        )
        ledger.record_frame(
            key, category, message.nbytes, metered, kind=message.kind
        )
        injector = self.injector
        if injector is None:
            return True
        obs = self.telemetry
        timeout = self.runtime.spec.network.loss_detection_seconds(
            message.nbytes
        )
        fate = injector.message_fate(key.layer, src, dst, category, 0)
        attempt = 0
        while fate in (FATE_DROP, FATE_CORRUPT):
            if obs.enabled:
                obs.metrics.inc(
                    "fault_message_failures", category=category, fate=fate
                )
            self.runtime.add_stall(dst, timeout)
            attempt += 1
            if attempt > MAX_RETRIES:
                return False
            injector.counters.retries += 1
            injector.counters.retry_bytes += message.nbytes
            self.runtime.add_stall(dst, injector.backoff_seconds(attempt))
            self.runtime.send_worker_to_worker(
                src, dst, message.nbytes, category
            )
            ledger.record_frame(
                key, category, message.nbytes, metered, retry=True,
                kind=message.kind,
            )
            if obs.enabled:
                obs.metrics.inc("fault_retries", category=category)
            fate = injector.message_fate(key.layer, src, dst, category, attempt)
        if fate == FATE_DELAY:
            self.runtime.add_stall(dst, injector.config.delay_seconds)
            if obs.enabled:
                obs.metrics.inc("fault_delays", category=category)
        return True

    def _degrade(
        self,
        ch: ChannelSession,
        message: ChannelMessage,
        outputs: list[np.ndarray],
        t: int,
        policy: ExchangePolicy,
        category: str,
        dim: int,
    ) -> None:
        """Handle an undeliverable message on either direction.

        Forward channels substitute stale rows (:meth:`_degraded_rows`);
        reverse channels contribute zero this iteration — lost partial
        gradients are folded into the channel residual by error-feedback
        policies so they re-ship next iteration.
        """
        self._notify_failure(policy, ch.key, message, rows_mask=ch.rows_mask)
        if ch.reverse:
            self.injector.counters.degraded_zero += 1
            self.telemetry.ledger.record_degraded(ch.key, category, "zero")
            if self.telemetry.enabled:
                self.telemetry.metrics.inc(
                    "fault_degraded", kind="zero", category=category
                )
            return
        rows = self._degraded_rows(
            policy, ch.key, t, ch.served.shape[0], dim, category
        )
        if rows is None:
            return  # zeros: partial aggregation
        ch.scatter(outputs, rows)

    def _notify_failure(
        self,
        policy: ExchangePolicy,
        key: ChannelKey,
        message: ChannelMessage,
        rows_mask: np.ndarray | None = None,
    ) -> None:
        """Tell a stateful policy its message never arrived.

        ReqEC-FP rolls back an unacknowledged trend snapshot so both
        ends stay in sync; ResEC-BP folds the lost gradient into the
        channel residual so error feedback re-ships it next iteration
        (the handler returns True when it compensated that way).
        """
        if policy.on_delivery_failure(key, message, rows_mask=rows_mask):
            self.injector.counters.residual_compensations += 1
            if self.telemetry.enabled:
                self.telemetry.metrics.inc("fault_residual_compensations")

    def _degraded_rows(
        self,
        policy: ExchangePolicy,
        key: ChannelKey,
        t: int,
        num_rows: int,
        dim: int,
        category: str,
    ) -> np.ndarray | None:
        """Stale-halo substitute for an undeliverable forward message.

        Preference order: the ReqEC-FP *predicted* candidate (requester
        trend state needs no payload at all), then the channel's last
        successfully received rows, then None (the halo slots keep
        their zeros — DistGNN-style partial aggregation).
        """
        counters = self.injector.counters
        obs = self.telemetry
        rows = policy.fallback_rows(key, t)
        if rows is not None and rows.shape == (num_rows, dim):
            counters.degraded_predicted += 1
            obs.ledger.record_degraded(key, category, "predicted")
            if obs.enabled:
                obs.metrics.inc("fault_degraded", kind="predicted")
            return rows
        cached = self._halo_cache.get(key)
        if cached is not None and cached.shape == (num_rows, dim):
            counters.degraded_cached += 1
            obs.ledger.record_degraded(key, category, "cached")
            if obs.enabled:
                obs.metrics.inc("fault_degraded", kind="cached")
            return cached
        counters.degraded_zero += 1
        obs.ledger.record_degraded(key, category, "zero")
        if obs.enabled:
            obs.metrics.inc("fault_degraded", kind="zero")
        return None

    def invalidate_worker(self, worker: int) -> None:
        """Drop cached halo rows touching ``worker`` (crash recovery)."""
        stale = [
            key for key in self._halo_cache
            if worker in (key.responder, key.requester)
        ]
        for key in stale:
            del self._halo_cache[key]

    def rebuild(self, changed: object = None) -> None:
        """Reset per-channel caches after a membership change.

        Sessions are planned fresh from the worker states on every
        exchange, so the plans need no rebuilding — but the stale-halo
        cache and the last proportions describe channels that may no
        longer exist. ``changed`` is accepted for symmetry with the
        policy hooks; the caches are cheap enough to drop wholesale.
        """
        del changed
        self._halo_cache.clear()
        self._last_proportions.clear()

    # ------------------------------------------------------------------
    def _charge_call(self, worker: int, wall_seconds: float, kind: str) -> None:
        """Charge one ``respond``/``receive`` call to ``worker``'s compute
        clock: codec frames (:data:`_CODEC_KINDS`) at ``1 / CODEC_SPEEDUP``
        of the measured wall time, every other frame at face value."""
        if kind in _CODEC_KINDS:
            wall_seconds /= CODEC_SPEEDUP
        self.runtime.add_compute(worker, wall_seconds)
