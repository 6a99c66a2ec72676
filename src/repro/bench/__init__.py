"""Regenerates every table and figure of the paper's evaluation section:
``python -m repro.bench.figures all`` prints them, ``--json`` the report
behind EXPERIMENTS.md (see :mod:`repro.bench.figures`)."""
