"""Alias of statcheck.SUITES: perfbench/worker.py imports this module and patches suites.SUITES."""
from .statcheck import SUITES  # noqa: F401
