"""The out-of-core bench tier behind ``python -m repro bench``.

Streams a million-vertex R-MAT graph to an mmap store, times partition,
stats, subgraph and gather over it and records peak RSS; writes
``BENCH_core.json``. Epoch time and communication volume are measured by
``bench/run.py``. See ``docs/storage.md``.
"""

from repro.bench.suites import bench_large, peak_rss_bytes, run_bench

__all__ = ["bench_large", "peak_rss_bytes", "run_bench"]
