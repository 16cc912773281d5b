"""Pipeline benchmark for pillarkit; run it with ``python3 pipebench/run.py``."""
