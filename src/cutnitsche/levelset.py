"""Level-set descriptions of the interface.

An interface is the zero set of a scalar function phi, negative inside
the enclosed region.  ``inclusion_side`` records which physical
subdomain (minus or plus) the enclosed region plays, so the same phi
serves both orientations of an example.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "LevelSet",
    "make_circle",
    "make_flower",
    "CoarseMeshError",
    "GeometryError",
    "SIDES",
]

# the two subdomains; ``inclusion_side`` and every side argument name one
SIDES = ("minus", "plus")
# half-width, in |phi|, of the band reflected through the interface
_TUBE = 0.1
# |phi| at which a projection onto the interface stops, and its step limit
_PROJECTION_TOL = 1e-12
_PROJECTION_MAX_ITER = 50


class GeometryError(RuntimeError):
    """Interface geometry inconsistent with the cut model."""


class CoarseMeshError(GeometryError):
    """Mesh too coarse to resolve the interface (multi-root edge)."""


@dataclass(frozen=True)
class LevelSet:
    """Implicit curve with optional analytic gradient, which its normals
    and reflections through it need.

    ``phi`` and ``grad`` accept arrays of shape (..., 2) and return
    (...)-shaped values resp. (..., 2)-shaped gradients.  ``simple``
    states that the zero set is a simple closed curve resolved by any
    admissible mesh; when False, classification downgrades multi-root
    and non-convergence errors to flagged elements instead of raising.
    ``grad_bound(x, radius)`` is an upper bound on ``|grad phi|`` over the
    disc of the given radius about each point of x, > 0 and inf where
    none holds: a float where one bound holds everywhere, else a
    (...)-shaped array.  It is None where no bound is known.
    Classification samples for multiple roots only the edges on which
    the bound allows a root.
    """

    phi: Callable
    grad: Callable | None = None
    inclusion_side: str = "minus"
    simple: bool = True
    name: str = "levelset"
    grad_bound: Callable | None = None

    def __post_init__(self):
        if self.inclusion_side not in SIDES:
            raise ValueError(f"inclusion_side must be {' or '.join(map(repr, SIDES))}, "
                             f"got {self.inclusion_side!r}")

    @property
    def outer_side(self) -> str:
        """The side that is not the inclusion's: its subdomain reaches the outer boundary."""
        return next(side for side in SIDES if side != self.inclusion_side)

    def value(self, x):
        return self.phi(np.asarray(x, dtype=float))

    def gradient(self, x):
        if self.grad is None:
            raise ValueError(f"level set {self.name!r} has no gradient")
        return self.grad(np.asarray(x, dtype=float))

    def normal_minus(self, x):
        """Unit normal pointing from the physical minus into the plus side."""
        g = np.asarray(self.gradient(x), dtype=float)
        if self.inclusion_side == "plus":
            g = -g
        norm = np.sqrt(np.sum(g * g, axis=-1, keepdims=True))
        return g / np.maximum(norm, 1e-300)

    def side_sign(self, x):
        """phi with its sign flipped so that negative always means minus side."""
        v = self.value(x)
        return v if self.inclusion_side == "minus" else -v


def make_circle(radius: float = 1.0 / 3.0, inclusion_side: str = "minus") -> LevelSet:
    """Circle of given radius centred at the origin."""
    if not 0.0 < radius < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {radius}")

    def phi(x):
        return np.hypot(x[..., 0], x[..., 1]) - radius

    def grad(x):
        r = np.hypot(x[..., 0], x[..., 1])
        return x / np.maximum(r, 1e-300)[..., None]

    def grad_bound(x, radius):
        return 1.0

    return LevelSet(phi=phi, grad=grad, inclusion_side=inclusion_side,
                    simple=True, name=f"circle[r={radius:g}]", grad_bound=grad_bound)


FLOWER_BASE = 1.0 / 18.0
FLOWER_AMPLITUDE = 0.2
FLOWER_LOBES = 5


def make_flower(inclusion_side: str = "minus") -> LevelSet:
    """Five-lobed flower: radius 1/18 + 0.2*sin(5*theta).

    The radius changes sign, so the zero set is five petals pinched at
    the origin rather than a simple closed curve; the level set is
    marked non-simple and classification flags elements near the
    pinch points instead of failing.  ``|grad phi|^2 = 1 + (A K cos(K
    theta) / r)^2`` with ``A K = 0.2 * 5``, and ``r >= |x| - radius`` on
    the disc about x, so ``hypot(1, A K / (|x| - radius))`` bounds it
    there; the bound is inf on a disc that holds the pinch point at the
    origin, where ``|grad phi|`` grows like 1/r.
    """

    def phi(x):
        r = np.hypot(x[..., 0], x[..., 1])
        th = np.arctan2(x[..., 1], x[..., 0])
        return r - (FLOWER_BASE + FLOWER_AMPLITUDE * np.sin(FLOWER_LOBES * th))

    def grad(x):
        xx = x[..., 0]
        yy = x[..., 1]
        r = np.maximum(np.hypot(xx, yy), 1e-300)
        th = np.arctan2(yy, xx)
        c = FLOWER_AMPLITUDE * FLOWER_LOBES * np.cos(FLOWER_LOBES * th)
        # grad theta = (-y, x) / r^2
        gx = xx / r + c * yy / (r * r)
        gy = yy / r - c * xx / (r * r)
        return np.stack([gx, gy], axis=-1)

    def grad_bound(x, radius):
        # in place: classify takes it at every node
        out = np.hypot(x[..., 0], x[..., 1], out=np.empty(x.shape[:-1]))
        out -= radius
        np.maximum(out, 0.0, out=out)
        with np.errstate(divide="ignore"):
            np.divide(FLOWER_AMPLITUDE * FLOWER_LOBES, out, out=out)
        return np.hypot(1.0, out, out=out)

    return LevelSet(phi=phi, grad=grad, inclusion_side=inclusion_side,
                    simple=False, name="flower", grad_bound=grad_bound)


def reflect_many(ls: LevelSet, xs):
    """Vectorized reflection of a batch of points within ``_TUBE`` of the
    interface."""
    xs = np.asarray(xs, dtype=float)
    d0 = np.abs(ls.value(xs))
    if np.any(d0 > _TUBE):
        bad = xs[np.argmax(d0 > _TUBE)]
        raise GeometryError(f"point {bad.tolist()} outside the reflection tube")
    ys = xs.copy()
    active = np.ones(xs.shape[0], dtype=bool)
    for _ in range(_PROJECTION_MAX_ITER):
        d = ls.value(ys[active])
        done = np.abs(d) <= _PROJECTION_TOL
        idx = np.flatnonzero(active)
        active[idx[done]] = False
        if not np.any(active):
            break
        g = np.asarray(ls.gradient(ys[active]), dtype=float)
        g2 = np.sum(g * g, axis=-1)
        if np.any(g2 < 1e-300):
            raise GeometryError("vanishing level-set gradient during batch projection")
        ys[active] -= (d[~done] / g2)[:, None] * g
    if np.any(active):
        bad = xs[np.argmax(active)]
        raise GeometryError(f"projection of {bad.tolist()} did not converge in {_PROJECTION_MAX_ITER} iterations")
    return 2.0 * ys - xs
