"""Planar scene geometry: walls, fixed equipment, and propagation paths.

The scene model is deliberately small: axis-aligned reflecting walls, a set
of fixed-equipment (FE) anchor positions, and a user (UE) position.  Each
FE contributes one direct (LOS) path and, per wall, at most one
single-bounce (NLOS) path whose bounce point follows the mirror-image
construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import DegenerateGeometry

if TYPE_CHECKING:  # pragma: no cover
    from .measurement import NoiseProfile


class WallAxis(Enum):
    VERTICAL = "vertical"      # wall is the line x = offset
    HORIZONTAL = "horizontal"  # wall is the line y = offset


class ReflectiveSide(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class PathKind(Enum):
    LOS = "LOS"
    NLOS = "NLOS"


@dataclass(frozen=True)
class Point2:
    """A point in the horizontal plane, coordinates in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)

    def distance_to(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class Wall:
    """Axis-aligned reflecting wall (an infinite line in the plane).

    ``reflective_side`` declares which half-plane the street interior lies
    in; reflections are only generated for endpoints strictly on that side.
    """

    axis: WallAxis
    offset: float
    reflective_side: ReflectiveSide

    def __post_init__(self):
        if not math.isfinite(self.offset):
            raise ValueError("wall offset must be finite")

    def signed_offset(self, p: Point2) -> float:
        """Signed distance from the wall line, positive on the reflective side."""
        coord = p.x if self.axis is WallAxis.VERTICAL else p.y
        delta = coord - self.offset
        if self.reflective_side is ReflectiveSide.NEGATIVE:
            delta = -delta
        return delta

    def is_reflective_for(self, p: Point2) -> bool:
        """True when p lies strictly on the reflective side."""
        return self.signed_offset(p) > 0.0


@dataclass(frozen=True)
class Scenario:
    """A scene: reflecting walls, FE anchors, and the active noise profile.

    An FE may sit on or behind a wall (street furniture mounted at the
    facade); that wall simply produces no reflection for that FE's links.
    """

    walls: tuple[Wall, ...]
    fes: tuple[Point2, ...]
    noise_profile: "NoiseProfile"
    name: str = ""

    def __post_init__(self):
        if len(self.fes) < 1:
            raise ValueError("scenario needs at least one FE")
        seen = set()
        for w in self.walls:
            key = (w.axis, w.offset, w.reflective_side)
            if key in seen:
                raise ValueError(f"duplicate wall {key}")
            seen.add(key)

    def ue_is_admissible(self, ue: Point2) -> bool:
        """UE positions must lie strictly on the reflective side of every wall."""
        return all(w.is_reflective_for(ue) for w in self.walls)


@dataclass(frozen=True)
class PathDescriptor:
    """One propagation path from an FE to the UE.

    ``true_scatterer`` is an NLOS path's ground-truth bounce point when
    known.  The path's bounce-point slot is its position among the NLOS
    paths of its path set (see PathSet).
    """

    kind: PathKind
    fe_index: int
    true_scatterer: Optional[Point2] = None
    wall_index: Optional[int] = None


@dataclass(frozen=True)
class PathSet:
    """Ordered collection of paths: all LOS first, then all NLOS.

    The k-th NLOS path, at position n_los + k, has bounce point k: its
    slot in the parameter vector when bounce points are estimated, and in
    true_scatterers().
    """

    paths: tuple[PathDescriptor, ...]

    def __post_init__(self):
        if not self.paths:
            raise ValueError("a path set needs at least one path")
        kinds = [p.kind for p in self.paths]
        n_los = sum(1 for k in kinds if k is PathKind.LOS)
        if any(k is PathKind.LOS for k in kinds[n_los:]):
            raise ValueError("LOS paths must precede NLOS paths")

    @property
    def n_los(self) -> int:
        return sum(1 for p in self.paths if p.kind is PathKind.LOS)

    @property
    def n_nlos(self) -> int:
        return len(self.paths) - self.n_los

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __getitem__(self, i: int) -> PathDescriptor:
        return self.paths[i]

    def true_scatterers(self) -> tuple[Point2, ...]:
        """Ground-truth bounce points of the NLOS paths, in slot order."""
        out = []
        for p in self.paths:
            if p.kind is PathKind.NLOS:
                if p.true_scatterer is None:
                    raise DegenerateGeometry("NLOS path has no known scatterer")
                out.append(p.true_scatterer)
        return tuple(out)

    def subset(self, indices: Sequence[int]) -> "PathSet":
        """Sub-path-set keeping relative order; each kept NLOS path takes
        the slot of its new position."""
        return PathSet(tuple(self.paths[i] for i in sorted(set(indices))))


def image_reflect(p: Point2, wall: Wall) -> Point2:
    """Mirror image of p across the wall line."""
    if wall.axis is WallAxis.VERTICAL:
        return Point2(2.0 * wall.offset - p.x, p.y)
    return Point2(p.x, 2.0 * wall.offset - p.y)


def specular_point(fe: Point2, ue: Point2, wall: Wall) -> Optional[Point2]:
    """Bounce point on the wall for a single reflection fe -> wall -> ue.

    Intersection of the segment from the FE's mirror image to the UE with
    the wall line.  Returns None unless both endpoints are strictly on the
    reflective side (no reflection exists otherwise).
    """
    if fe == ue:
        raise DegenerateGeometry("FE and UE coincide")
    if not (wall.is_reflective_for(fe) and wall.is_reflective_for(ue)):
        return None
    img = image_reflect(fe, wall)
    if wall.axis is WallAxis.VERTICAL:
        t = (wall.offset - img.x) / (ue.x - img.x)
        return Point2(wall.offset, img.y + t * (ue.y - img.y))
    t = (wall.offset - img.y) / (ue.y - img.y)
    return Point2(img.x + t * (ue.x - img.x), wall.offset)


def enumerate_paths(scenario: Scenario, ue: Point2) -> PathSet:
    """All propagation paths for a UE position: one LOS per FE, then one
    NLOS per (FE, wall) pair that admits a reflection.

    Ordering is deterministic: LOS paths in FE order, then NLOS paths in
    (FE, wall) order.
    """
    if not scenario.ue_is_admissible(ue):
        raise DegenerateGeometry(f"UE {ue.as_tuple()} is not strictly inside the scene")
    los = []
    for i, fe in enumerate(scenario.fes):
        if fe == ue:
            raise DegenerateGeometry(f"UE coincides with FE {i}")
        los.append(PathDescriptor(PathKind.LOS, fe_index=i))
    nlos = []
    for i, fe in enumerate(scenario.fes):
        for j, wall in enumerate(scenario.walls):
            sp = specular_point(fe, ue, wall)
            if sp is None:
                continue
            if sp == ue or sp == fe:
                raise DegenerateGeometry("specular point coincides with an endpoint")
            nlos.append(PathDescriptor(PathKind.NLOS, fe_index=i,
                                       true_scatterer=sp, wall_index=j))
    return PathSet(tuple(los + nlos))
