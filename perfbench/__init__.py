"""The repository benchmark: seeded workloads, checks and layer tracing."""
