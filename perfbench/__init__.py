"""Benchmark of the HYBRID-DBSCAN reproduction: see BENCHMARK.md."""
