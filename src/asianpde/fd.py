"""Finite-difference Cauchy solver for the variable-coefficient operators.

Space is (x, y) with diffusion only in x and a one-way coupling x * d/dy.
The x-part D of the operator (flux-form diffusion, central drift, -r) is
assembled in one place, as the three bands of a tridiagonal matrix per y
column; apply_operator and the implicit step both read those bands.  Time
stepping is Lie splitting: explicit monotone upwind transport in y, then
implicit Euler (I - dt*D) u = rhs, one block-diagonal tridiagonal system
over all y columns, factored by LAPACK gttrf and solved by gttrs.  Together
they preserve the discrete comparison principle.  The price-family
operator is solved in w = log x, where x*d/dx becomes d/dw and the
transport speed becomes e^w; the degenerate x -> 0 edge maps to w -> -inf
and is truncated with outflow conditions.

Variable log-price coefficients reach the fundamental solution through
`mollify`, the paper's limiting procedure: the chi_n cut-off outside the
ball of radius n.  The price family has no mollifier.

Grid functions serialize as flat binary arrays with a short header plus a
JSON sidecar.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable

import numpy as np

from .geometry import EventPoint, GeometryKind

__all__ = [
    "CoefficientField",
    "GridSpec",
    "MollifierMode",
    "MollifierSpec",
    "BoundViolationError",
    "CflError",
    "GridMismatchError",
    "SolveError",
    "Solution",
    "mollify",
    "apply_operator",
    "solve_cauchy",
    "approximate_fundamental_solution",
    "delta_approximant",
    "save_grid",
    "load_grid",
]


class BoundViolationError(ValueError):
    """Mollified coefficients left the declared ellipticity band."""


class CflError(ValueError):
    """Transport CFL constraint violated."""


class GridMismatchError(ValueError):
    """Incompatible grid shapes."""


class SolveError(ValueError):
    """The implicit step is singular or the march left the finite floats."""


def _const_fn(c: float) -> Callable:
    return lambda x, y, t: np.broadcast_to(
        np.asarray(float(c)), np.broadcast(np.asarray(x), np.asarray(y)).shape
    ).copy()


@dataclass(frozen=True)
class CoefficientField:
    """Variable coefficients (a, b, r) with their ellipticity metadata.

    a, b, r are callables of (x, y, t) acting on broadcastable arrays (plain
    numbers are wrapped).  lam <= a <= Lam and |b|, |r| <= Lam must hold on
    any grid the field is used on; kind=L additionally requires r == 0.
    The solver takes a field whose x-bands agree bitwise at its first,
    middle and last step times as time-independent (see solve_cauchy).
    """

    a: Callable
    b: Callable
    r: Callable
    lam: float
    Lam: float
    kind: GeometryKind = GeometryKind.K

    def __post_init__(self) -> None:
        if not (0.0 < self.lam <= self.Lam < math.inf):
            raise ValueError("need 0 < lam <= Lam < inf")
        for name in ("a", "b", "r"):
            fn = getattr(self, name)
            if not callable(fn):
                object.__setattr__(self, name, _const_fn(fn))

    @classmethod
    def constant(cls, lam: float, kind: GeometryKind = GeometryKind.K
                 ) -> "CoefficientField":
        return cls(a=lam, b=0.0, r=0.0, lam=lam, Lam=max(lam, 1.0),
                   kind=kind)

    def check_bounds(self, xs: np.ndarray, ys: np.ndarray, t: float) -> None:
        slack = 1e-10
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        av = np.asarray(self.a(X, Y, t), dtype=float)
        if np.any(av < self.lam - slack) or np.any(av > self.Lam + slack):
            raise BoundViolationError(
                f"a leaves [{self.lam}, {self.Lam}] "
                f"(range [{av.min()}, {av.max()}])"
            )
        for name in ("b", "r"):
            v = np.asarray(getattr(self, name)(X, Y, t), dtype=float)
            if np.any(np.abs(v) > self.Lam + slack):
                raise BoundViolationError(f"|{name}| exceeds {self.Lam}")


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid; for kind=L the x axis carries w = log(price).

    The transport CFL ratio max|speed| * dt / dy is recorded at
    construction; solves refuse ratios above 1.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    t_range: tuple[float, float]
    nx: int
    ny: int
    nt: int
    kind: GeometryKind = GeometryKind.K
    cfl_ratio: float = dc_field(init=False)

    def __post_init__(self) -> None:
        if min(self.nx, self.ny) < 3 or self.nt < 1:
            raise ValueError("grid too small")
        for name, (lo, hi) in (("x", self.x_range), ("y", self.y_range),
                               ("time", self.t_range)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"{name} range must be finite and "
                                 f"increasing, got {lo},{hi}")
        speed = np.max(np.abs(self.physical_x(self.xs)))
        object.__setattr__(self, "cfl_ratio",
                           float(speed * self.dt / self.dy))

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(*self.x_range, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(*self.y_range, self.ny)

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(*self.t_range, self.nt + 1)

    @property
    def dx(self) -> float:
        return (self.x_range[1] - self.x_range[0]) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return (self.y_range[1] - self.y_range[0]) / (self.ny - 1)

    @property
    def dt(self) -> float:
        return (self.t_range[1] - self.t_range[0]) / self.nt

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def physical_x(self, xs: np.ndarray) -> np.ndarray:
        # also the transport speed: x * d/dy, or e^w * d/dy in log coordinates
        return np.exp(xs) if self.kind is GeometryKind.L else xs


# ---------------------------------------------------------------------------
# Coefficient mollification
# ---------------------------------------------------------------------------

class MollifierMode(Enum):
    CUTOFF_CHI = "cutoff_chi"


@dataclass(frozen=True)
class MollifierSpec:
    """Index n of the cut-off chi_n.  `mode` names the one mollifier and is
    not read; it stays because the benchmark passes it."""

    n: int
    mode: MollifierMode

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("mollifier index n must be >= 1")


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        g = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return f / (f + g)


def _chi_n(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # 1 on x^2 + y^2 <= n^2, 0 on x^2 + y^2 >= (n+1)^2, smooth in between.
    rho2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
    return _smoothstep(((n + 1.0) ** 2 - rho2) / ((n + 1.0) ** 2 - n**2))


def mollify(field: CoefficientField, spec: MollifierSpec,
            check_grid: GridSpec) -> CoefficientField:
    """Log-price field cut off by chi_n: a blends toward the ellipticity
    floor lam and b, r die outside the ball of radius n (transition finished
    by n+1).  The kernels of the cut-off fields are the paper's limiting
    sequence as n grows.  The result must keep the (lam, Lam) band on
    check_grid at its first time, else BoundViolationError.  A price-family
    field raises ValueError: no criterion takes that limit.
    """
    if field.kind is not GeometryKind.K:
        raise ValueError(f"mollify cuts off log-price fields only, got "
                         f"kind {field.kind.value}")
    n = spec.n
    a0, b0, r0, lam = field.a, field.b, field.r, field.lam

    def a_n(x, y, t):
        chi = _chi_n(n, x, y)
        return chi * a0(x, y, t) + (1.0 - chi) * lam

    def b_n(x, y, t):
        return _chi_n(n, x, y) * b0(x, y, t)

    def r_n(x, y, t):
        return _chi_n(n, x, y) * r0(x, y, t)

    out = CoefficientField(a=a_n, b=b_n, r=r_n, lam=field.lam,
                           Lam=field.Lam, kind=field.kind)
    out.check_bounds(check_grid.physical_x(check_grid.xs), check_grid.ys,
                     check_grid.t_range[0])
    return out


# ---------------------------------------------------------------------------
# Discrete operators
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def _x_bands(field: CoefficientField, grid: GridSpec, t: float):
    """Bands (lower, diag, upper) of D, the x-part of the operator at time t.

    Row i of D acts on u[i-1], u[i], u[i+1]: flux-form diffusion with a at
    the half points, central drift b and -r.  The end rows keep only their
    inner flux (zero-flux ghosts) and no drift, so constants stay exact.
    Overflow gives non-finite bands without a warning; the solver refuses
    them.
    """
    dx = grid.dx
    X, Y = np.meshgrid(grid.physical_x(grid.xs), grid.ys, indexing="ij")
    Xh, Yh = np.meshgrid(grid.physical_x(grid.xs[:-1] + dx / 2.0), grid.ys,
                         indexing="ij")
    a_half = np.asarray(field.a(Xh, Yh, t), dtype=float) / dx**2
    drift = np.asarray(field.b(X, Y, t), dtype=float)[1:-1] / (2.0 * dx)
    lower = np.zeros(X.shape)
    upper = np.zeros(X.shape)
    lower[1:] = a_half
    upper[:-1] = a_half
    diag = -(lower + upper) - np.asarray(field.r(X, Y, t), dtype=float)
    lower[1:-1] -= drift
    upper[1:-1] += drift
    return lower, diag, upper


def apply_operator(field: CoefficientField, u: np.ndarray, grid: GridSpec,
                   t: float) -> np.ndarray:
    """Spatial part of the operator on a grid slice.

    The full operator is spatial_part(u) - du/dt; time differencing is the
    caller's business.  Valid on the interior only: the one-cell halo of
    the result is zeroed.  Transport is the second-order central difference,
    so the residual of an exact solution falls as h^2; the solver's upwind
    transport is first order and is what keeps the march monotone.
    """
    if u.shape != (grid.nx, grid.ny):
        raise GridMismatchError(
            f"grid function shape {u.shape} != {(grid.nx, grid.ny)}"
        )
    lower, diag, upper = _x_bands(field, grid, t)
    speed = grid.physical_x(grid.xs)[:, None]
    out = np.zeros_like(u)
    out[1:-1] = (lower[1:-1] * u[:-2] + diag[1:-1] * u[1:-1]
                 + upper[1:-1] * u[2:])
    out[:, 1:-1] += speed * ((u[:, 2:] - u[:, :-2]) / (2.0 * grid.dy))
    out[0, :] = out[-1, :] = 0.0
    out[:, 0] = out[:, -1] = 0.0
    return out


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

# the one scheme solve_cauchy runs, recorded in the grid sidecar
DEFAULT_SCHEME = {
    "splitting": "lie",
    "diffusion": "implicit_euler",
    "transport": "explicit_upwind",
}


@dataclass
class Solution:
    """Final grid slice with bookkeeping from the solve."""

    grid: GridSpec
    final: np.ndarray             # (nx, ny) at the grid's last time
    mass_history: np.ndarray      # discrete integral after each step
    transport_leakage: np.ndarray  # mass lost at y edges, per step


def _implicit_solver(bands, grid: GridSpec, t: float,
                     dt: float) -> Callable[[np.ndarray], np.ndarray]:
    """solve(rhs) for (I - dt*D), D the x-operator at time t given by its
    bands.  Laid out x-fastest, the y columns form one tridiagonal system of
    nx*ny unknowns, block diagonal as lower[0] = upper[-1] = 0: LAPACK
    dgttrf factors it once here and each solve is one dgttrs call.

    Raises ValueError when D has a negative off-diagonal: I - dt*D is then
    no M-matrix and the step can turn nonnegative data negative."""
    # a local import keeps scipy.linalg out of `import asianpde.cli`
    from scipy.linalg.lapack import dgttrf, dgttrs
    lower, diag, upper = bands
    if (lower < 0.0).any() or (upper < 0.0).any():
        raise ValueError(
            f"drift dominates diffusion on the x grid at t={float(t)!r}: the "
            f"cell Peclet condition a >= |b|*dx/2 fails with "
            f"dx={float(grid.dx)!r}; refine nx")
    dl, d, du, du2, ipiv, info = dgttrf((-dt * lower).T.ravel()[1:],
                                        (1.0 - dt * diag).T.ravel(),
                                        (-dt * upper).T.ravel()[:-1])
    if info != 0:
        raise SolveError(f"implicit step at t={float(t)!r} is singular")

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, _ = dgttrs(dl, d, du, du2, ipiv, rhs.T.ravel())
        return x.reshape(grid.ny, grid.nx).T.copy()

    return solve


def solve_cauchy(field: CoefficientField, initial: np.ndarray,
                 grid: GridSpec) -> Solution:
    """March the Cauchy problem from the initial slice to the final time.

    Lie splitting: explicit upwind transport in y (monotone under the CFL
    constraint), then implicit Euler for the x-diffusion/drift/zero-order
    block (an M-matrix solve while a >= |b|*dx/2, refused with ValueError
    where that cell Peclet condition fails).  For r >= 0 the scheme obeys
    the discrete maximum principle.  The implicit step is factored once
    when the bands of D at the first, middle and last step times are
    bitwise equal, else at every step: a field that varies in t yet agrees
    at those three times is stepped as if frozen at the first.
    """
    if initial.shape != (grid.nx, grid.ny):
        raise GridMismatchError(
            f"initial shape {initial.shape} != {(grid.nx, grid.ny)}"
        )
    if grid.cfl_ratio > 1.0 + 1e-12:
        raise CflError(
            f"transport CFL ratio {grid.cfl_ratio:.3f} > 1; refine dt or dy"
        )
    dt = grid.dt
    nu = grid.physical_x(grid.xs) * dt / grid.dy
    nupos = np.maximum(nu, 0.0)[:, None]
    nuneg = np.maximum(-nu, 0.0)[:, None]
    # index of each cell's upper and lower y neighbour; an edge cell is its own
    up, dn = np.r_[1:grid.ny, grid.ny - 1], np.r_[0, :grid.ny - 1]
    ts = grid.ts
    area = grid.cell_area

    u = initial.astype(float).copy()
    mass = [float(u.sum() * area)]
    leakage = []
    bands = _x_bands(field, grid, ts[1])
    frozen = all(np.array_equal(a, b) for k in ((grid.nt + 1) // 2, grid.nt)
                 for a, b in zip(bands, _x_bands(field, grid, ts[k])))
    solve = _implicit_solver(bands, grid, ts[1], dt)
    for n in range(grid.nt):
        # transport substep (explicit upwind, copy-out at y edges); the
        # mass before it is the one the previous step recorded
        u = u + nupos * (u[:, up] - u) + nuneg * (u[:, dn] - u)
        leakage.append(float(u.sum() * area - mass[-1]))
        # diffusion substep (implicit)
        if n > 0 and not frozen:
            solve = _implicit_solver(_x_bands(field, grid, ts[n + 1]),
                                     grid, ts[n + 1], dt)
        u = solve(u)
        # a finite sum has finite entries: scan u only when it is not
        mass.append(float(u.sum() * area))
        if not math.isfinite(mass[-1]) and not np.all(np.isfinite(u)):
            raise SolveError(f"solver produced non-finite values at step {n}")
    return Solution(grid=grid, final=u, mass_history=np.array(mass),
                    transport_leakage=np.array(leakage))


def delta_approximant(grid: GridSpec, x0: float, y0: float,
                      delta_width: float) -> np.ndarray:
    """Normalized discrete Gaussian spike: mesh-independent unit mass."""
    if delta_width < 2.0:
        raise ValueError("delta_width must span at least 2 grid cells")
    sx = delta_width * grid.dx / 2.0
    sy = delta_width * grid.dy / 2.0
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    g = np.exp(-((X - x0) ** 2) / (2 * sx**2) - ((Y - y0) ** 2) / (2 * sy**2))
    total = g.sum() * grid.cell_area
    if total <= 0.0:
        raise ValueError("delta approximant has no support on the grid")
    return g / total


def approximate_fundamental_solution(field: CoefficientField,
                                     pole: EventPoint, grid: GridSpec,
                                     delta_width: float = 3.0) -> Solution:
    """Kernel slice Gamma(., ., T; pole) via a delta-approximant solve.

    The pole must sit inside the spatial grid and at the grid's initial
    time; for the price family the pole price is mapped to log coordinates.
    """
    if grid.kind is GeometryKind.L and pole.x <= 0.0:
        raise ValueError(f"price-family pole needs x > 0, got {pole.x!r}")
    x0 = math.log(pole.x) if grid.kind is GeometryKind.L else pole.x
    if not (grid.x_range[0] < x0 < grid.x_range[1]
            and grid.y_range[0] < pole.y < grid.y_range[1]):
        raise ValueError("pole lies outside the spatial grid")
    if abs(pole.t - grid.t_range[0]) > 1e-12:
        raise ValueError("grid must start at the pole time")
    initial = delta_approximant(grid, x0, pole.y, delta_width)
    return solve_cauchy(field, initial, grid)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_MAGIC = b"APGR"
_HEADER_FMT = "<4sHcc3I6d"


def save_grid(sol: Solution, path: str) -> None:
    """Final slice as one flat binary frame; metadata in a JSON sidecar."""
    g = sol.grid
    header = struct.pack(
        _HEADER_FMT, _MAGIC, 1, b"<", g.kind.value.encode(),
        g.nx, g.ny, 1, *g.x_range, *g.y_range, *g.t_range,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(sol.final, dtype="<f8").tobytes())
    meta = {
        "nx": g.nx, "ny": g.ny, "nt": g.nt, "n_frames": 1,
        "x_range": list(g.x_range), "y_range": list(g.y_range),
        "t_range": list(g.t_range), "kind": g.kind.value,
        "scheme": DEFAULT_SCHEME,
        "times": [float(g.ts[-1])],
    }
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def load_grid(path: str) -> tuple[np.ndarray, dict]:
    with open(path, "rb") as fh:
        raw = fh.read(struct.calcsize(_HEADER_FMT))
        if len(raw) < struct.calcsize(_HEADER_FMT) \
                or raw[:4] != _MAGIC:
            raise ValueError(f"{path} is not a grid file")
        magic, version, endian, kind, nx, ny, nf, x0, x1, y0, y1, t0, t1 = \
            struct.unpack(_HEADER_FMT, raw)
        frames = np.frombuffer(fh.read(), dtype="<f8").reshape(nf, nx, ny)
    info = {"kind": kind.decode(), "nx": nx, "ny": ny, "n_frames": nf,
            "x_range": (x0, x1), "y_range": (y0, y1), "t_range": (t0, t1),
            "endianness": endian.decode(), "version": version}
    return frames.copy(), info

