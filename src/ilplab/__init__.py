"""Exact-arithmetic laboratory for ILP sensitivity and proximity lower bounds."""

# perfbench/test_perfbench.py::Tracing reads ``ilplab.lp_solve``: its tracer
# must wrap this binding too.
from .lp import lp_solve  # noqa: F401

__version__ = "0.1.0"
