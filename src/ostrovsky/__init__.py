"""Pseudospectral laboratory for the generalized Ostrovsky equation with
negative dispersion: exact-propagator time stepping, dispersive-estimate
probes, oscillatory-kernel quadrature, and the weak-rotation limit."""

__version__ = "0.1.0"
