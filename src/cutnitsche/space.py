"""Doubled piecewise-linear spaces on the overlapping cut meshes.

Each side (minus/plus) owns a continuous P1 space on the union of its
elements; nodes of cut elements therefore carry two degrees of freedom.
Global DOFs are the minus block followed by the plus block.  Dirichlet
nodes are the boundary nodes of the side whose subdomain reaches the
outer boundary; they are eliminated from the solved system.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cutcell import CutTopology
from .levelset import SIDES
from .mesh import Mesh, barycentric_many, node_any

__all__ = ["SpaceLayout", "FieldPair", "build_spaces", "interpolate_pair"]

# distance by which a located point may lie outside its triangle
_LOCATE_TOL = 1e-12


@dataclass(frozen=True)
class SpaceLayout:
    topo: CutTopology
    node_dof_minus: np.ndarray   # (n_nodes,) dof id or -1
    node_dof_plus: np.ndarray
    dof_node_minus: np.ndarray   # (n_minus,) node id per dof
    dof_node_plus: np.ndarray
    dirichlet: np.ndarray        # bool over the global dof vector
    free_dofs: np.ndarray

    @property
    def mesh(self) -> Mesh:
        return self.topo.mesh

    @property
    def n_minus(self) -> int:
        return self.dof_node_minus.shape[0]

    @property
    def n_plus(self) -> int:
        return self.dof_node_plus.shape[0]

    @property
    def n_total(self) -> int:
        return self.n_minus + self.n_plus

    @property
    def n_free(self) -> int:
        return self.free_dofs.shape[0]

    def node_dof(self, side: str) -> np.ndarray:
        return self.node_dof_minus if side == "minus" else self.node_dof_plus

    def dof_node(self, side: str) -> np.ndarray:
        return self.dof_node_minus if side == "minus" else self.dof_node_plus

    def global_dofs(self, side: str, nodes) -> np.ndarray:
        """Global dof ids for the given nodes on one side (-1 if absent)."""
        d = self.node_dof(side)[nodes]
        return np.where(d >= 0, d + self.offset(side), -1)

    def offset(self, side: str) -> int:
        """First global dof of one side's block; the minus block comes first."""
        return SIDES.index(side) * self.n_minus


@dataclass
class FieldPair:
    """Coefficient vectors of a discrete two-sided field."""

    layout: SpaceLayout
    minus: np.ndarray
    plus: np.ndarray

    @classmethod
    def from_global(cls, layout: SpaceLayout, vec: np.ndarray) -> "FieldPair":
        if vec.shape != (layout.n_total,):
            raise ValueError(f"expected global vector of length {layout.n_total}")
        return cls(layout, vec[: layout.n_minus].copy(), vec[layout.n_minus:].copy())

    def to_global(self) -> np.ndarray:
        return np.concatenate([self.minus, self.plus])

    def side(self, side: str) -> np.ndarray:
        return self.minus if side == "minus" else self.plus


def build_spaces(topo: CutTopology) -> SpaceLayout:
    """DOF layout of the doubled space for a classified mesh.

    Every later stage takes the mesh and the topology from the layout.
    """
    mesh = topo.mesh
    node_dof, dof_node, dirichlet = {}, {}, {}
    for side in SIDES:
        dof_node[side] = np.flatnonzero(node_any(topo.in_side(side), mesh.n_cells))
        node_dof[side] = np.full(mesh.n_nodes, -1, dtype=np.int64)
        node_dof[side][dof_node[side]] = np.arange(dof_node[side].shape[0])
        # the boundary nodes of the outer side are Dirichlet
        dirichlet[side] = mesh.boundary_node(dof_node[side]) & (side == topo.levelset.outer_side)
    flags = np.concatenate([dirichlet[side] for side in SIDES])
    return SpaceLayout(
        topo=topo,
        node_dof_minus=node_dof["minus"],
        node_dof_plus=node_dof["plus"],
        dof_node_minus=dof_node["minus"],
        dof_node_plus=dof_node["plus"],
        dirichlet=flags,
        free_dofs=np.flatnonzero(~flags),
    )


def interpolate_pair(layout: SpaceLayout, f_minus, f_plus) -> FieldPair:
    """Nodal interpolation of one callable per side onto its space."""
    minus, plus = (np.asarray(f(np.take(layout.mesh.nodes, layout.dof_node(side), axis=0)),
                              dtype=float)
                   for side, f in zip(SIDES, (f_minus, f_plus)))
    return FieldPair(layout, minus, plus)


def locate_on_side(layout: SpaceLayout, side: str, pts):
    """Element of one side's mesh holding each point, and its barycentrics.

    The triangle ``Mesh.locate`` finds is kept when it carries the side
    and contains the point within ``_LOCATE_TOL``; otherwise the lowest-id side
    triangle sharing a vertex with it that does.  Points no such
    triangle holds get element -1.
    """
    mesh, topo = layout.mesh, layout.topo
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    elems = mesh.locate(pts)
    lams = barycentric_many(np.take(mesh.nodes, mesh.elements(elems), axis=0), pts)
    floor = -_LOCATE_TOL / mesh.h
    found = topo.in_side(side, elems) & np.all(lams >= floor, axis=1)
    for k in np.flatnonzero(~found):
        near = np.unique(mesh.node_elems(mesh.elements(elems[k]))[1])
        elems[k] = -1
        for t in near[topo.in_side(side, near)].tolist():
            lam = barycentric_many(np.take(mesh.nodes, mesh.elements([t]), axis=0),
                                   pts[k][None])[0]
            if np.all(lam >= floor):
                elems[k], lams[k] = t, lam
                break
    return elems, lams

