"""InFine view benchmark: see ``perfbench/run.py``."""
