"""Verbatim copies of replaced code, kept as differential references.

Each module holds the parent commit's implementation of something a
rewrite replaced, copied unedited; its docstring names what it pins and
any edit it needed (``ml_centered`` imports today's cache walk, and
three import the retired resident-graph API from ``_graph``). Tests
compare the rewrite against it exactly, with
:func:`assert_same_as_parent`, or within a tolerance they state.

Retirement rule: an oracle is deleted once a golden run or a product
harness pins the same behaviour and two re-anchors have passed since it
landed; the commit that deletes it names the test that took over. An
oracle is never edited to follow new behaviour — a change that means to
move the pinned result deletes the oracle and says so.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

import numpy as np

__all__ = ["assert_same_as_parent"]


def assert_same_as_parent(got, want, where: str = "result") -> None:
    """Assert that ``got`` (the rewrite) equals ``want`` (its oracle).

    Arrays must agree in dtype, shape and every element (NaNs in the
    same places); floats by ``repr``, so to the last bit; mappings,
    sequences and dataclasses entry by entry. The failure names the
    first path that differs.
    """
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), f"{where}: not an array"
        assert (got.dtype, got.shape) == (want.dtype, want.shape), (
            f"{where}: {got.dtype}{got.shape} != {want.dtype}{want.shape}"
        )
        assert np.array_equal(
            got, want, equal_nan=want.dtype.kind in "fc"
        ), f"{where}: values differ"
    elif dataclasses.is_dataclass(want) and not isinstance(want, type):
        assert type(got) is type(want), f"{where}: {type(got).__name__}"
        for field in dataclasses.fields(want):
            assert_same_as_parent(
                getattr(got, field.name), getattr(want, field.name),
                f"{where}.{field.name}",
            )
    elif isinstance(want, Mapping):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in sorted(want):
            assert_same_as_parent(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_as_parent(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert repr(float(got)) == repr(want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"
