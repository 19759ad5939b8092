"""Benchmark of the cpfde CLI; see README.md."""
