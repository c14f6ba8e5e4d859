"""Hypothesis profiles. `--hypothesis-profile=ci` replays the same
examples on every run, so a property failure in CI reproduces
locally; without the flag each run draws fresh examples."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
