"""The repo's one benchmark: see README.md in this directory and BENCHMARK.json."""
