"""Benchmark for `supq verify`: workloads, golden verdicts and an outside-in tracer."""
