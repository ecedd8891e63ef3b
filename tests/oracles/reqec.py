"""``ReqECPolicy.respond``/``receive`` from before the boundary frame
stopped shipping ``M_cr``: the responder puts the rows AND ``M_cr`` on
the wire (header + the rows' bytes twice) and the requester stores what
it is handed. Everything else (``_predict``, ``_select``, payload
building, fault hooks) is inherited, so a run through this class is the
parent run."""

import numpy as np


def _make_reference_reqec_policy():
    from repro.core.messages import ChannelKey, ChannelMessage
    from repro.compression.quantization import (
        MATRIX_PREFIX_BYTES as _HEADER_BYTES,
    )
    from repro.core.reqec_fp import (
        ReqECPolicy,
        TrendState,
        is_trend_boundary,
    )

    class _ReferenceReqECPolicy(ReqECPolicy):
        def respond(
            self,
            key: ChannelKey,
            rows: np.ndarray,
            t: int,
            rows_mask: np.ndarray | None = None,
        ) -> ChannelMessage:
            if rows_mask is not None:
                raise NotImplementedError(
                    "ReqEC-FP keeps dense per-channel trend state; sampled "
                    "training uses the compression or ResEC policies instead"
                )
            rows = np.ascontiguousarray(rows, dtype=np.float32)
            state = self._responder_trend.get(key)

            if is_trend_boundary(t, self.trend_period):
                # One snapshot serves the trend state of both ends and the
                # payload; read-only, so an in-place write raises instead of
                # corrupting the other end.
                h_last = rows.copy()
                if state is not None and state.h_last.shape == rows.shape:
                    m_cr = np.subtract(rows, state.h_last)
                    m_cr /= self.trend_period
                else:
                    m_cr = np.zeros_like(rows)
                h_last.setflags(write=False)
                m_cr.setflags(write=False)
                self._responder_trend[key] = TrendState(
                    h_last=h_last, m_cr=m_cr, boundary_t=t
                )
                return ChannelMessage(
                    kind="exact", payload=(h_last, m_cr),
                    nbytes=_HEADER_BYTES + 2 * rows.nbytes,
                )

            bits = self.tuner.bits(key.pair)
            quantizer = self._quantizer(bits)

            if state is None:
                # No trend snapshot yet (first trend group): compressed only.
                quantized = quantizer.encode(rows)
                if self.health is not None:
                    self.health.record_selection(
                        key.pair, (rows.shape[0], 0, 0), bits, t
                    )
                return ChannelMessage(
                    kind="quant", payload=quantized,
                    nbytes=quantized.payload_bytes(),
                    meta={"proportion": 0.0},
                )

            h_pdt = self._predict(state, t % self.trend_period + 1)
            # Quantize exactly once: the bucket ids score the compressed
            # candidate AND — sliced at the non-predicted rows — form the
            # subset payload, since ids depend only on (value, lo, hi, bits).
            ids, reps, lo, hi = quantizer.encode_ids(rows)
            h_cps = np.take(reps, ids).reshape(rows.shape)

            selection, proportion = self._select(rows, h_cps, h_pdt)
            subset, nbytes = self._build_compressed_payload(
                rows, selection, quantizer, ids, reps, lo, hi
            )
            if self.health is not None:
                counts = np.bincount(selection.ravel(), minlength=3)
                self.health.record_selection(key.pair, counts, bits, t)
            return ChannelMessage(
                kind="selector", payload=(selection, subset, proportion),
                nbytes=nbytes,
                meta={"proportion": proportion},
            )

        def receive(
            self, key: ChannelKey, message: ChannelMessage, t: int
        ) -> np.ndarray:
            if message.kind == "exact":
                # The responder's read-only snapshot (see respond): shared,
                # not copied — the halo scatter copies out of it.
                rows, m_cr = message.payload
                self._requester_trend[key] = TrendState(
                    h_last=rows, m_cr=m_cr, boundary_t=t
                )
                return rows

            if message.kind == "quant":
                return message.payload.decode()

            selection, quantized, _ = message.payload
            state = self._requester_trend.get(key)
            if state is None:
                raise RuntimeError(
                    f"channel {key} received a selector message before any "
                    "exact trend snapshot"
                )
            h_pdt = self._predict(state, t % self.trend_period + 1)
            return self._reconstruct(selection, quantized, h_pdt)

    return _ReferenceReqECPolicy
