"""The simulator benchmark: workloads, span tracing and metrics.

Entry point: ``python3 perfbench/run.py --help``; see README.md.
"""
