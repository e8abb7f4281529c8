"""Benchmark harness for thermalpdc; see perfbench/README.md."""
