"""Worker stand-ins that bind a ``ReqECPolicy`` outside a trainer.

``ReqECPolicy`` keys its trend tables by owner, over the serve plans of
the live worker list it is bound to (``bind_plan``); of a worker it
reads only ``serves`` and ``sub.local_vertices``. :func:`bind` gives a
unit test's policy owners that serve exactly the channels it drives.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

__all__ = ["bind"]


def bind(policy, channels: dict[tuple[int, int], int], *, lossy=True):
    """Bind ``policy`` to owners serving ``channels`` — ``{(responder,
    requester): rows}`` — each channel its own rows (none shared), and
    return it. ``lossy`` is ``bind_plan``'s: the tables keep the prior
    snapshot a lost boundary falls back to."""
    workers = [
        SimpleNamespace(serves={}, sub=None)
        for _ in range(1 + max(max(pair) for pair in channels))
    ]
    for (responder, requester), rows in channels.items():
        serves = workers[responder].serves
        start = sum(served.size for served in serves.values())
        serves[requester] = np.arange(start, start + rows)
    for worker in workers:
        size = sum(served.size for served in worker.serves.values())
        worker.sub = SimpleNamespace(local_vertices=np.arange(size))
    policy.bind_plan(workers, lossy=lossy)
    return policy
