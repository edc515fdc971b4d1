"""The repo benchmark: named workloads, end-to-end metrics, traced layer metrics.

Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
