"""Print the L1 distance between the constant-coefficient FD kernel slice of
``fd-solve`` and the closed-form kernel, on the benchmark grid and on the
grid with half the resolution, at the corners of the seeded parameter box.

    PYTHONPATH=src python3 bench/fd_l1_order.py

README.md derives the bound of the ``fd-solve`` L1 check from this table.
"""
from __future__ import annotations

import itertools

import numpy as np

import oracles
import workloads as W
from asianpde import fd
from asianpde.geometry import EventPoint


def l1_and_mass(lam: float, pole: tuple[float, float], shape) -> tuple:
    (x, y, t), (nx, ny, nt) = W.FD_CONST_RANGES, shape
    grid = fd.GridSpec(x_range=x, y_range=y, t_range=t, nx=nx, ny=ny, nt=nt)
    sol = fd.approximate_fundamental_solution(
        fd.CoefficientField.constant(lam), EventPoint(*pole, 0.0), grid,
        delta_width=2.5)
    exact = oracles.gamma_k_grid(lam, grid.xs, grid.ys, t[1], pole)
    l1 = float(np.sum(np.abs(sol.final - exact)) * grid.cell_area)
    return l1, float(sol.mass_history[-1])


def main() -> None:
    nx, ny, nt = W.FD_SHAPE
    coarse = ((nx + 1) // 2, (ny + 1) // 2, nt // 2)
    print("| lambda | xi | eta | L1 at 2h | L1 at h | ratio | mass - 1 |")
    print("|---|---|---|---|---|---|---|")
    for lam, xi, eta in itertools.product(*W.FD_CONST_BOX):
        e2h, _ = l1_and_mass(lam, (xi, eta), coarse)
        eh, mass = l1_and_mass(lam, (xi, eta), W.FD_SHAPE)
        print(f"| {lam} | {xi} | {eta} | {e2h:.3f} | {eh:.3f} "
              f"| {e2h / eh:.2f} | {mass - 1:.1e} |")


if __name__ == "__main__":
    main()
