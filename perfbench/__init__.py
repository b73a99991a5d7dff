"""Benchmark for ergospectra: three workloads, timed end to end or traced per module."""
