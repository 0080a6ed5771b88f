"""Single-process benchmark of the repro package; run ``perfbench/run.py``."""
