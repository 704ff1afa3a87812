"""The repository benchmark: four serving workloads, measured end to end
and layer by layer. Entry point: ``python3 perfbench/run.py``; see
``perfbench/README.md``."""
