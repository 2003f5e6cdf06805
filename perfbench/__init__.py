"""The repository benchmark: three workloads and a traced per-layer breakdown
(see README.md in this directory)."""
