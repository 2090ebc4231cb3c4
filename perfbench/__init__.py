"""Host-cost benchmark of the repro command line; see run.py."""
