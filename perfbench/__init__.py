"""The repository benchmark: four simulator workloads timed end to end,
with per-layer spans recorded from outside ``src/`` (see README.md)."""
