"""Save/load attributed graphs as ``.npz`` archives.

In the paper, workers load their subgraphs from NFS after partitioning;
here examples use this format to cache generated datasets between runs.

Wire format: a zip archive of npy members carrying a magic marker
(``ECGRAPH``) and a format version, so a foreign npz — or a truncated
copy of a real one — fails with a :class:`ValueError` that names the
problem instead of a ``KeyError`` deep in the loader. Archives written
with ``compress=False`` store members uncompressed (zip ``STORED``), in
which case ``load_graph(path, mmap_mode="r")`` maps the big arrays
straight off disk instead of reading them into memory — each STORED
member is a plain npy file at a fixed byte offset inside the zip.
"""

from __future__ import annotations

import json
import struct
import zipfile
from pathlib import Path

import numpy as np

from repro.graph.attributed import AttributedGraph
from repro.graph.csr import CSRGraph

__all__ = ["save_graph", "load_graph"]

_MAGIC = "ECGRAPH"
_FORMAT_VERSION = 1

# Members every archive must carry; anything missing means a truncated
# or foreign file, and the loader says so instead of KeyError-ing.
_REQUIRED = (
    "format_version", "indptr", "indices", "features", "labels",
    "train_mask", "val_mask", "test_mask", "num_classes", "name",
    "meta_json",
)
# The large members worth memory-mapping (per-vertex / per-edge data).
_MAPPABLE = (
    "indptr", "indices", "weights", "features", "labels",
    "train_mask", "val_mask", "test_mask",
)


def save_graph(
    graph: AttributedGraph, path: str | Path, compress: bool = True
) -> None:
    """Serialize ``graph`` to an ``.npz`` archive at ``path``.

    ``compress=False`` writes members uncompressed (zip ``STORED``),
    trading disk for the ability to ``load_graph(..., mmap_mode="r")``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "magic": np.str_(_MAGIC),
        "format_version": np.int64(_FORMAT_VERSION),
        "indptr": graph.adjacency.indptr,
        "indices": graph.adjacency.indices,
        "features": graph.features,
        "labels": graph.labels,
        "train_mask": graph.train_mask,
        "val_mask": graph.val_mask,
        "test_mask": graph.test_mask,
        "num_classes": np.int64(graph.num_classes),
        "name": np.str_(graph.name),
        "meta_json": np.str_(json.dumps(graph.meta, default=str)),
    }
    if graph.adjacency.weights is not None:
        payload["weights"] = graph.adjacency.weights
    writer = np.savez_compressed if compress else np.savez
    writer(path, **payload)


def _validate_members(path: Path, files: set[str]) -> None:
    if "magic" not in files or "format_version" not in files:
        raise ValueError(
            f"{path} is not a graph archive written by save_graph "
            "(missing magic/version members)"
        )
    missing = [m for m in _REQUIRED if m not in files]
    if missing:
        raise ValueError(
            f"graph archive {path} is truncated or corrupt: "
            f"missing members {missing}"
        )


def _mmap_member(path: Path, zf: zipfile.ZipFile, member: str) -> np.ndarray:
    """Memory-map one STORED npy member at its offset inside the zip."""
    info = zf.getinfo(member)
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(
            f"{path} stores {member!r} compressed; mmap loading needs an "
            "archive written with save_graph(..., compress=False)"
        )
    with open(path, "rb") as fh:
        fh.seek(info.header_offset)
        header = fh.read(30)
        if len(header) != 30 or header[:4] != b"PK\x03\x04":
            raise ValueError(
                f"graph archive {path} is corrupt: bad local file header "
                f"for member {member!r}"
            )
        name_len, extra_len = struct.unpack("<HH", header[26:30])
        fh.seek(info.header_offset + 30 + name_len + extra_len)
        try:
            version = np.lib.format.read_magic(fh)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            else:
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
        except ValueError as exc:
            raise ValueError(
                f"graph archive {path} is corrupt: member {member!r} is "
                f"not a valid npy file ({exc})"
            ) from None
        offset = fh.tell()
    return np.memmap(
        path, dtype=dtype, mode="r", offset=offset, shape=shape,
        order="F" if fortran else "C",
    )


def load_graph(
    path: str | Path, mmap_mode: str | None = None
) -> AttributedGraph:
    """Load a graph previously written by :func:`save_graph`.

    ``mmap_mode="r"`` memory-maps the per-vertex and per-edge arrays
    read-only instead of copying them into RAM — only valid for
    archives written with ``compress=False``. Corrupt, truncated or
    foreign files raise :class:`ValueError` describing the problem.
    """
    if mmap_mode not in (None, "r"):
        raise ValueError(
            f"unsupported mmap_mode {mmap_mode!r}: only 'r' is supported"
        )
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"graph archive not found: {path}")
    try:
        archive = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        raise ValueError(f"corrupt graph archive {path}: {exc}") from None
    with archive:
        files = set(archive.files)
        _validate_members(path, files)
        if str(archive["magic"]) != _MAGIC:
            raise ValueError(
                f"{path} is not a graph archive "
                f"(magic {str(archive['magic'])!r}, expected {_MAGIC!r})"
            )
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported graph archive version {version} "
                f"(expected {_FORMAT_VERSION})"
            )

        def member(key: str) -> np.ndarray:
            if mmap_mode == "r" and key in _MAPPABLE:
                return _mmap_member(path, archive.zip, f"{key}.npy")
            return archive[key]

        weights = member("weights") if "weights" in files else None
        adjacency = CSRGraph(member("indptr"), member("indices"), weights)
        return AttributedGraph(
            adjacency=adjacency,
            features=member("features"),
            labels=member("labels"),
            train_mask=member("train_mask"),
            val_mask=member("val_mask"),
            test_mask=member("test_mask"),
            num_classes=int(archive["num_classes"]),
            name=str(archive["name"]),
            meta=json.loads(str(archive["meta_json"])),
        )
