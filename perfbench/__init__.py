"""Sweep benchmark for the SAFELOC reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; ``perfbench/LAYERS.md``
describes the workloads and every metric.
"""
