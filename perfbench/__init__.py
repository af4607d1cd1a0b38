"""The repository benchmark: four exchange workloads, timed end to end and by layer.

Run ``python3 perfbench/run.py --help``; RESULTS.md explains every number.
"""
