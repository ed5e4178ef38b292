"""Benchmark of the latentid package: four closed-loop workloads and a traced run."""
