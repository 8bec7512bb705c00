"""Benchmark of htsolve: seeded workloads, checked answers, end-to-end and per-layer metrics."""
