"""The repo's one benchmark: wall ÷ baseline-io on four workloads, with a
per-layer ledger measured from outside. See ``bench/README.md``."""
