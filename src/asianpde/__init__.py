"""Numerical kernels, bounds and pricing for averaged-payoff option models.

Submodules: geometry (group laws and quasi-distances), kernels (closed-form
fundamental solutions, oscillatory quadrature), control (steering value
function), bounds (two-sided envelopes), fd (variable-coefficient
finite-difference solver), mc (simulation oracle), pricing (representation
formula), acceptance (the registry of acceptance criteria), cli
(command-line front end).
"""
from .geometry import EventPoint, GeometryKind
from .kernels import KernelParams, KernelResult, gamma_k, gamma_l1

__all__ = ["EventPoint", "GeometryKind", "KernelParams", "KernelResult",
           "gamma_k", "gamma_l1"]
