"""Cold-first benchmark: see run.py."""
