"""Problem data: coefficients, sources, jumps, and manufactured solutions.

All field callables are vectorized: they accept arrays of shape
(..., 2) and return (...)-shaped values (or (..., 2) for gradients).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .levelset import LevelSet, make_circle, make_flower

__all__ = ["ProblemSpec", "example_circle", "example_flower", "patch_problem"]

WEIGHTINGS = ("minus_sided", "harmonic")


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients and data of one interface problem.

    ``weighting`` selects the Nitsche flux average: ``minus_sided``
    takes the flux from the minus side scaled by rho^-, ``harmonic``
    uses coefficient-weighted averages with the harmonic mean in the
    interface penalty.
    """

    rho_minus: float
    rho_plus: float
    gamma: float = 10.0
    gamma_g_minus: float = 10.0
    gamma_g_plus: float = 10.0
    weighting: str = "minus_sided"
    f_minus: Callable | None = None
    f_plus: Callable | None = None
    jump_value: Callable | None = None   # alpha: [u] on the interface
    jump_flux: Callable | None = None    # beta: [rho grad u . n] on the interface
    dirichlet: Callable | None = None    # outer boundary trace, 0 if None
    exact_minus: Callable | None = None
    exact_plus: Callable | None = None
    grad_minus: Callable | None = None
    grad_plus: Callable | None = None
    hess_minus: Callable | None = None   # pointwise Frobenius norm of D2 u^-
    hess_plus: Callable | None = None

    def __post_init__(self):
        for name in ("rho_minus", "rho_plus", "gamma", "gamma_g_minus", "gamma_g_plus"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.rho_minus > 0.0 and self.rho_plus > 0.0):
            raise ValueError("diffusion coefficients must be positive")
        if self.gamma <= 0.0:
            raise ValueError("interface penalty gamma must be positive")
        if self.gamma_g_minus < 0.0 or self.gamma_g_plus < 0.0:
            raise ValueError("ghost penalty parameters must be nonnegative")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")

    def rho(self, side: str) -> float:
        return self.rho_minus if side == "minus" else self.rho_plus

    def flux_weights(self) -> tuple[float, float]:
        """(w_-, w_+) multiplying the one-sided fluxes in the Nitsche average."""
        if self.weighting == "minus_sided":
            return 1.0, 0.0
        s = self.rho_minus + self.rho_plus
        return self.rho_plus / s, self.rho_minus / s

    def penalty_rho(self) -> float:
        """Coefficient scale of the interface penalty."""
        if self.weighting == "minus_sided":
            return self.rho_minus
        return 2.0 * self.rho_minus * self.rho_plus / (self.rho_minus + self.rho_plus)

    def exact(self, side: str):
        return self.exact_minus if side == "minus" else self.exact_plus

    def grad(self, side: str):
        return self.grad_minus if side == "minus" else self.grad_plus

    def has_exact(self) -> bool:
        return all(f is not None for f in
                   (self.exact_minus, self.exact_plus, self.grad_minus, self.grad_plus))


def _r2(x):
    return x[..., 0] ** 2 + x[..., 1] ** 2


def example_circle(rho_minus: float, rho_plus: float,
                   inclusion_side: str = "minus",
                   radius: float = 1.0 / 3.0,
                   **params) -> tuple[LevelSet, ProblemSpec]:
    """Circular inclusion with a kink in the radial profile.

    The exact solution is r^2 / rho on each side, shifted on the plus
    side so that value and flux are continuous across the circle; the
    source is -4 everywhere and the outer trace is inhomogeneous.
    """
    ls = make_circle(radius=radius, inclusion_side=inclusion_side)
    shift = radius ** 2 * (1.0 / rho_minus - 1.0 / rho_plus)

    def u_minus(x):
        return _r2(x) / rho_minus

    def u_plus(x):
        return _r2(x) / rho_plus + shift

    def g_minus(x):
        return 2.0 * x / rho_minus

    def g_plus(x):
        return 2.0 * x / rho_plus

    def f(x):
        return np.full(x.shape[:-1], -4.0)

    def hess_minus(x):
        return np.full(x.shape[:-1], np.sqrt(8.0) / rho_minus)

    def hess_plus(x):
        return np.full(x.shape[:-1], np.sqrt(8.0) / rho_plus)

    outer = u_plus if inclusion_side == "minus" else u_minus
    spec = ProblemSpec(
        rho_minus=rho_minus,
        rho_plus=rho_plus,
        f_minus=f,
        f_plus=f,
        dirichlet=outer,
        exact_minus=u_minus,
        exact_plus=u_plus,
        grad_minus=g_minus,
        grad_plus=g_plus,
        hess_minus=hess_minus,
        hess_plus=hess_plus,
        **params,
    )
    return ls, spec


def example_flower(rho_minus: float, rho_plus: float, **params) -> tuple[LevelSet, ProblemSpec]:
    """Flower-shaped inclusion with nonzero value and flux jumps.

    u^- = r^4 / rho^- inside the petals, u^+ = y * r / rho^+ outside;
    the branches do not match across the interface, so the jump data
    alpha = [u] and beta = [rho grad u . n] are nonzero.
    """
    ls = make_flower(inclusion_side="minus")

    def u_minus(x):
        return _r2(x) ** 2 / rho_minus

    def u_plus(x):
        return x[..., 1] * np.sqrt(_r2(x)) / rho_plus

    def g_minus(x):
        return (4.0 * _r2(x))[..., None] * x / rho_minus

    def g_plus(x):
        r = np.sqrt(_r2(x))
        safe = np.maximum(r, 1e-300)
        gx = x[..., 0] * x[..., 1] / safe
        gy = r + x[..., 1] ** 2 / safe
        return np.stack([gx, gy], axis=-1) / rho_plus

    def f_minus(x):
        return -16.0 * _r2(x)

    def f_plus(x):
        r = np.sqrt(_r2(x))
        return -3.0 * x[..., 1] / np.maximum(r, 1e-300)

    def alpha(x):
        return u_plus(x) - u_minus(x)

    def beta(x):
        n = ls.normal_minus(x)
        d = rho_minus * g_minus(x) - rho_plus * g_plus(x)
        return np.sum(d * n, axis=-1)

    spec = ProblemSpec(
        rho_minus=rho_minus,
        rho_plus=rho_plus,
        f_minus=f_minus,
        f_plus=f_plus,
        jump_value=alpha,
        jump_flux=beta,
        dirichlet=u_plus,
        exact_minus=u_minus,
        exact_plus=u_plus,
        grad_minus=g_minus,
        grad_plus=g_plus,
        **params,
    )
    return ls, spec


def patch_problem(interface: LevelSet | None = None, **params) -> tuple[LevelSet, ProblemSpec]:
    """Globally linear solution with equal coefficients and zero jumps.

    A consistent method must reproduce u = 1 + x + 2y to solver
    accuracy on any mesh.
    """
    ls = interface if interface is not None else make_circle()

    def u(x):
        return 1.0 + x[..., 0] + 2.0 * x[..., 1]

    def g(x):
        out = np.empty(x.shape)
        out[..., 0] = 1.0
        out[..., 1] = 2.0
        return out

    def zero_hess(x):
        return np.zeros(x.shape[:-1])

    params.setdefault("rho_minus", 1.0)
    params.setdefault("rho_plus", 1.0)
    if params["rho_minus"] != params["rho_plus"]:
        # a linear field solves the interface problem with zero jump data
        # only when the flux coefficient does not jump
        raise ValueError("patch test requires equal coefficients")
    spec = ProblemSpec(
        dirichlet=u,
        exact_minus=u,
        exact_plus=u,
        grad_minus=g,
        grad_plus=g,
        hess_minus=zero_hess,
        hess_plus=zero_hess,
        **params,
    )
    return ls, spec
