"""Numerical kernels, bounds and pricing for averaged-payoff option models.

Submodules: geometry (group laws and quasi-distances), kernels (the two
fundamental solutions, each one array function -- gamma_k_array for the
log-price family, gamma_l_array for the price family -- with one scalar
wrapper, gamma_l_lambda, kept for the benchmark; oscillatory quadrature),
control (steering value function), bounds (two-sided envelopes), fd
(variable-coefficient finite-difference solver), mc (simulation oracle),
pricing (representation formula), acceptance (the registry of acceptance
criteria), cli (command-line front end).
"""
from .geometry import EventPoint, GeometryKind
from .kernels import KernelResult, gamma_k_array, gamma_l_array

__all__ = ["EventPoint", "GeometryKind", "KernelResult", "gamma_k_array",
           "gamma_l_array"]
