"""Benchmark of the ordercdf pipeline; run it with ``python3 perfbench/run.py``."""
