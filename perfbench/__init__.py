"""Benchmark of the biphoton library and CLI; entry point perfbench/run.py."""
