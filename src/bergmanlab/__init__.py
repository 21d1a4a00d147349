"""Numerical laboratory for Bergman density asymptotics on constant-curvature surfaces."""

__version__ = "0.1.0"
