"""Host-time benchmark of pvfs-sim: four closed-loop workloads.

Run one workload with ``python3 perfbench/run.py --workload NAME``; see
``perfbench/README.md`` for the workloads, metrics and layer table.
"""
