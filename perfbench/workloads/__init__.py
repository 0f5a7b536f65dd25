"""The four benchmark workloads; each module exposes ``build(rng, check_rng, cli)``."""
