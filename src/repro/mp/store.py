"""SharedStore: named shared-memory arrays with headers and teardown.

One store owns a set of named float/int arrays, each backed by its own
``multiprocessing.shared_memory`` segment. The creating process (the
supervisor) allocates the segments and is the only one that unlinks
them; worker processes attach read-write views by name. Every segment
carries a small header:

    magic ``ECGS`` | version | dtype string | ndim | shape[4] | generation

so an attaching process can validate it is mapping what the supervisor
described (a stale name from a crashed earlier run fails loudly instead
of aliasing garbage). The ``generation`` word is written as 0 and not
read.

Teardown rules (the part that keeps ``/dev/shm`` clean):

* ``close()`` is idempotent — double-close is a no-op, never an error;
* the creator registers an ``atexit`` hook so segments are unlinked
  even when the owning process dies by exception or interrupt;
* attachers never unlink and never touch Python's ``resource_tracker``
  (registration is suppressed while mapping) — a worker killed with
  SIGKILL therefore leaves no residue and no spurious tracker unlink
  of a live segment.
"""

from __future__ import annotations

import atexit
import secrets
import struct
import weakref
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = ["SharedStore", "disarm_inherited_stores"]

# Creator-mode stores alive in this process. A forked child inherits the
# supervisor's creator store (and its atexit close->unlink hook) by
# address-space copy; worker_main calls :func:`disarm_inherited_stores`
# first thing so a child exiting never unlinks segments the supervisor
# is still serving.
_CREATOR_STORES: "weakref.WeakSet[SharedStore]" = weakref.WeakSet()


def disarm_inherited_stores() -> int:
    """Neutralize creator stores inherited across a ``fork``.

    Must be called at the top of a forked worker's main function —
    before any exit path — so the child's ``atexit``/``__del__`` hooks
    cannot unlink shared segments that the creating (parent) process
    still owns. Returns the number of stores disarmed.
    """
    count = 0
    for store in list(_CREATOR_STORES):
        store.disarm()
        count += 1
    return count

_MAGIC = b"ECGS"
_VERSION = 1
# magic 4s | version u16 | dtype 8s | ndim u16 | shape 4*u64 | generation u64
_HEADER = struct.Struct("<4sH8sH4QQ")
HEADER_BYTES = _HEADER.size


def _encode_header(dtype: np.dtype, shape: tuple[int, ...]) -> bytes:
    if len(shape) > 4:
        raise ValueError("SharedStore arrays support at most 4 dimensions")
    dts = np.dtype(dtype).str.encode("ascii")
    if len(dts) > 8:
        raise ValueError(f"dtype string too long: {dts!r}")
    padded = list(shape) + [0] * (4 - len(shape))
    return _HEADER.pack(_MAGIC, _VERSION, dts.ljust(8, b"\0"),
                        len(shape), *padded, 0)


def _decode_header(buf: memoryview) -> tuple[np.dtype, tuple[int, ...]]:
    magic, version, dts, ndim, *rest = _HEADER.unpack(bytes(buf[:HEADER_BYTES]))
    if magic != _MAGIC:
        raise ValueError("shared segment is not a SharedStore array "
                         f"(bad magic {magic!r})")
    if version != _VERSION:
        raise ValueError(f"SharedStore header version {version} != {_VERSION}")
    shape = tuple(int(d) for d in rest[:ndim])
    return np.dtype(dts.rstrip(b"\0").decode("ascii")), shape


class SharedStore:
    """A set of named shared-memory numpy arrays (creator or attacher).

    Args:
        token: Run-unique segment-name prefix. ``None`` (creator mode
            default) draws a fresh random token.
        create: Creator mode allocates and later unlinks the segments;
            attach mode (``create=False``) maps existing ones by name.
    """

    def __init__(self, token: str | None = None, create: bool = True) -> None:
        self.token = token or f"ecg{secrets.token_hex(4)}"
        self.create = create
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._views: dict[str, np.ndarray] = {}
        # Released (unlinked) segments, unmapped when the store closes.
        self._retired: list[shared_memory.SharedMemory] = []
        self._closed = False
        self._atexit_registered = False
        if create:
            _CREATOR_STORES.add(self)

    # ------------------------------------------------------------------
    def _segment_name(self, name: str) -> str:
        slug = name.replace("/", "-")
        return f"{self.token}-{slug}"

    def allocate(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype | type = np.float32,
    ) -> np.ndarray:
        """Create one named array (creator mode); returns its view."""
        if not self.create:
            raise RuntimeError("attach-mode stores cannot allocate")
        if self._closed:
            raise RuntimeError("store is closed")
        if name in self._segments:
            raise ValueError(f"array {name!r} already allocated")
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        shm = shared_memory.SharedMemory(
            name=self._segment_name(name), create=True,
            size=HEADER_BYTES + max(nbytes, 1),
        )
        shm.buf[:HEADER_BYTES] = _encode_header(dtype, tuple(shape))
        self._segments[name] = shm
        # A new segment reads as zeros; not writing them keeps its pages
        # out of this process until something here touches them.
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf,
                          offset=HEADER_BYTES)
        self._views[name] = view
        if not self._atexit_registered:
            atexit.register(self.close)
            self._atexit_registered = True
        return view

    def attach(self, name: str) -> np.ndarray:
        """Map one existing array by name (attach mode); returns its view."""
        if self._closed:
            raise RuntimeError("store is closed")
        if name in self._views:
            return self._views[name]
        if self.create:
            shm = shared_memory.SharedMemory(name=self._segment_name(name))
        else:
            shm = self._attach_untracked(self._segment_name(name))
        dtype, shape = _decode_header(shm.buf)
        self._segments[name] = shm
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf,
                          offset=HEADER_BYTES)
        self._views[name] = view
        return view

    @staticmethod
    def _attach_untracked(segment_name: str) -> shared_memory.SharedMemory:
        # The supervisor owns the segment's lifetime, and forked workers
        # share its resource-tracker process, whose cache is a *set*: if
        # attachers registered too, their register/unregister pairs would
        # cancel the creator's single entry and the final unlink would
        # double-unregister (tracker KeyError noise). Python 3.13 adds
        # ``track=False`` for exactly this; until then, suppress
        # registration around the map.
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=segment_name)
        finally:
            resource_tracker.register = original

    def release(self, name: str) -> None:
        """Drop one array so its name can be allocated again (a re-plan
        superseding a block). Creator mode unlinks the segment at once;
        the mapping is kept until the store closes, because a numpy view
        does not pin it and one may still be held elsewhere."""
        self._views.pop(name, None)
        shm = self._segments.pop(name, None)
        if shm is None:
            return
        if self.create:
            shm.unlink()
        self._retired.append(shm)

    # ------------------------------------------------------------------
    def view(self, name: str) -> np.ndarray:
        """Zero-copy numpy view of a mapped array."""
        if self._closed:
            raise RuntimeError("store is closed")
        return self._views[name]

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def names(self) -> list[str]:
        return list(self._views)

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the mappings; creator mode also unlinks. Idempotent."""
        self._shut(unlink=self.create)

    def disarm(self) -> None:
        """Forget the segments without unlinking them.

        Used in forked children that inherited a creator store: the
        mappings are released (child address space only) but the
        segments stay live for the parent. Afterwards the store behaves
        as closed.
        """
        self._shut(unlink=False)

    def _shut(self, unlink: bool) -> None:
        if self._closed:
            return
        self._closed = True
        # Views alias the segment buffers; drop them before closing so
        # SharedMemory.close() doesn't fail on exported pointers.
        self._views.clear()
        retired, self._retired = self._retired, []
        for shm in retired + [shm for _, shm in sorted(self._segments.items())]:
            try:
                shm.close()
            except Exception:
                pass
        if unlink:
            for _, shm in sorted(self._segments.items()):
                try:
                    shm.unlink()
                except Exception:
                    pass
        self._segments.clear()
        if self._atexit_registered:
            try:
                atexit.unregister(self.close)
            except Exception:
                pass
            self._atexit_registered = False

    def __enter__(self) -> "SharedStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
