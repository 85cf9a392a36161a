"""The virtual universe: a bounded 2-D map, region grid, and moving avatars.

Avatars follow a random-waypoint walk: head for the current waypoint at a
fixed speed, and draw a fresh uniform waypoint on arrival. A spatial hash with
cells at least as large as the proximity radius makes radius queries and
collision-candidate counts a 3x3 cell scan: the linked-cell method (Allen &
Tildesley, *Computer Simulation of Liquids*, 1987, section 5.3.2). Each cell
holds its Avatar objects, and each cell's 3x3 block of member lists is built
once, so a query walks avatars directly rather than looking up user ids.

A simulation run moves every avatar once per round, and World.next_round is
the only code that moves one: it computes a whole round in numpy, and the
caller applies it one avatar at a time as the avatars' ticks come due. The
tests keep a scalar one-avatar step as the oracle that rounds must equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .engine import RngStream
from .errors import ConfigError, SimulationError


@dataclass(frozen=True)
class WorldGrid:
    width: float
    height: float
    regions_x: int
    regions_y: int
    cell: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("world: width and height must be > 0")
        if self.regions_x < 1 or self.regions_y < 1:
            raise ConfigError("world: regions_x and regions_y must be >= 1")
        if self.cell <= 0:
            raise ConfigError("world: cell must be > 0")

    # cached_property stores into the instance __dict__, which the frozen
    # __setattr__ does not guard; later reads are plain attribute lookups.
    @cached_property
    def region_width(self) -> float:
        return self.width / self.regions_x

    @cached_property
    def region_height(self) -> float:
        return self.height / self.regions_y

    def all_regions(self) -> list[tuple[int, int]]:
        return [(rx, ry) for rx in range(self.regions_x) for ry in range(self.regions_y)]


def region_of(pos: tuple[float, float], grid: WorldGrid) -> tuple[int, int]:
    """Region coordinates of a position.

    Boundary points belong to the higher-index region, except the max edge of
    the world, which clamps into the last region.
    """
    x, y = pos
    if x < 0 or y < 0 or x > grid.width or y > grid.height:
        raise SimulationError(f"position {pos} is out of world bounds")
    rx = int(x / grid.region_width)
    ry = int(y / grid.region_height)
    if rx >= grid.regions_x:
        rx = grid.regions_x - 1
    if ry >= grid.regions_y:
        ry = grid.regions_y - 1
    return rx, ry


@dataclass(slots=True, eq=False)
class Avatar:
    user: int
    x: float
    y: float
    region: tuple[int, int]


class Round(NamedTuple):
    """Each avatar's position, region and hash cell after a round of ticks, by user."""

    x: list[float]
    y: list[float]
    region: list[tuple[int, int]]
    cell: list[int]


class World:
    """All avatars plus the spatial hash that serves proximity queries.

    The hash keeps the Avatar objects of each cell in one member list per
    cell. For every cell it also holds, built once at construction, the tuple
    of the member lists of the cell's 3x3 block; the lists are mutated in
    place, so the tuples never go stale and a query scans avatars without
    any cell arithmetic. The hash is kept incrementally: an avatar is
    rebucketed only when a tick moves it across a cell border. Queries
    therefore always see every avatar at its most recently ticked position.
    """

    def __init__(self, grid: WorldGrid, n_users: int, speed: float, rng: RngStream):
        self.grid = grid
        self.rng = rng
        self.ncx = ncx = max(1, math.ceil(grid.width / grid.cell))
        self.ncy = ncy = max(1, math.ceil(grid.height / grid.cell))
        members: list[list[Avatar]] = [[] for _ in range(ncx * ncy)]
        self._members = members
        # _neighbors[c] lists the 3x3 block around cell c (clipped at borders),
        # x-major; _blocks[c] holds the member lists of those cells in the same
        # order. _nbsum[c] is kept equal to the number of avatars in the block,
        # so a collision-candidate query is a single lookup.
        ys = [range(max(0, cy - 1), min(ncy, cy + 2)) for cy in range(ncy)]
        self._neighbors: list[tuple[int, ...]] = []
        self._blocks: list[tuple[list[Avatar], ...]] = []
        for cx in range(ncx):
            gxs = range(max(0, cx - 1), min(ncx, cx + 2))
            for gys in ys:
                block = tuple([gx * ncy + gy for gx in gxs for gy in gys])
                self._neighbors.append(block)
                self._blocks.append(tuple([members[n] for n in block]))
        draws = np.array([rng.random() for _ in range(4 * n_users)]).reshape(-1, 4)
        draws *= (grid.width, grid.height, grid.width, grid.height)
        # x, y, wx and wy of every avatar after the last round: positions and waypoints
        self._state: tuple[np.ndarray, ...] = tuple(draws.T.copy())
        self.speed = speed  # world units per second
        self._regions = grid.all_regions()  # region index rx * regions_y + ry -> (rx, ry)
        x, y = self._state[:2]
        regions, self._cell_of = self._place(x, y)
        self.avatars = list(map(Avatar, range(n_users), x.tolist(), y.tolist(), regions))
        for avatar, c in zip(self.avatars, self._cell_of):
            members[c].append(avatar)
        self._nbsum = [sum(map(len, block)) for block in self._blocks]

    def rebucket(self, avatar: Avatar, c: int) -> None:
        """Move an avatar into cell c of the spatial hash, if it is not there already."""
        user = avatar.user
        old = self._cell_of[user]
        if old == c:
            return
        self._members[old].remove(avatar)
        self._members[c].append(avatar)
        self._cell_of[user] = c
        nbsum = self._nbsum
        for n in self._neighbors[old]:
            nbsum[n] -= 1
        for n in self._neighbors[c]:
            nbsum[n] += 1

    def _place(self, x: np.ndarray, y: np.ndarray) -> tuple[list[tuple[int, int]], list[int]]:
        """Region and hash cell of each position; the max edges clamp into the last ones."""
        grid = self.grid
        rx = np.minimum((x / grid.region_width).astype(np.int64), grid.regions_x - 1)
        ry = np.minimum((y / grid.region_height).astype(np.int64), grid.regions_y - 1)
        cx = np.minimum((x / grid.cell).astype(np.int64), self.ncx - 1)
        cy = np.minimum((y / grid.cell).astype(np.int64), self.ncy - 1)
        return (list(map(self._regions.__getitem__, (rx * grid.regions_y + ry).tolist())),
                (cx * self.ncy + cy).tolist())

    def next_round(self, dt_s: float) -> Round:
        """Every avatar's state after one more tick of dt_s, computed but not applied.

        Each avatar moves speed * dt_s toward its waypoint. One that reaches
        it stops exactly on it and, unless the speed is 0, draws a fresh
        uniform waypoint (x then y) from the movement stream, in user order.
        A round starts where the round before it ended, the first one where
        __init__ placed the avatars. The caller writes each avatar and calls
        rebucket on a cell crossing when that avatar's tick comes due.
        tests/test_world.py keeps a scalar one-avatar step that every round
        must equal, bit for bit and draw for draw.
        """
        if dt_s <= 0:
            raise SimulationError("a movement round requires dt > 0")
        grid = self.grid
        x, y, wx, wy = self._state
        step = self.speed * dt_s
        dx = wx - x
        dy = wy - y
        dist = np.sqrt(dx * dx + dy * dy)
        move = dist > step
        nx = wx.copy()  # an arrival is capped exactly on its waypoint
        ny = wy.copy()
        nx[move] = x[move] + (dx[move] / dist[move]) * step
        ny[move] = y[move] + (dy[move] / dist[move]) * step
        redraw = np.flatnonzero(~move)
        if redraw.size and step > 0.0:
            draw = self.rng.random
            xy = np.array([draw() for _ in range(2 * redraw.size)]).reshape(-1, 2)
            wx = wx.copy()
            wy = wy.copy()
            wx[redraw] = xy[:, 0] * grid.width
            wy[redraw] = xy[:, 1] * grid.height
        if (nx < 0).any() or (ny < 0).any() or (nx > grid.width).any() or (ny > grid.height).any():
            raise SimulationError("a movement round left the world bounds")
        self._state = (nx, ny, wx, wy)
        return Round(nx.tolist(), ny.tolist(), *self._place(nx, ny))

    def collision_candidates(self, user: int) -> int:
        """Number of other avatars in the 3x3 cell neighborhood."""
        return self._nbsum[self._cell_of[user]] - 1

    def nearby_users(self, user: int, radius: float) -> list[int]:
        """Users within Euclidean distance radius, via a 3x3 cell scan.

        The querying user is excluded. Requires radius <= cell so that the
        scan covers the whole disc. Users come in scan order: block cells
        x-major, and each cell's members in the order they entered it.
        """
        if radius > self.grid.cell:
            raise ConfigError(
                f"proximity radius {radius} exceeds spatial-hash cell {self.grid.cell}"
            )
        me = self.avatars[user]
        x, y = me.x, me.y
        r2 = radius * radius
        found = []
        for members in self._blocks[self._cell_of[user]]:
            for a in members:
                dx = a.x - x
                dy = a.y - y
                if dx * dx + dy * dy <= r2:
                    found.append(a.user)
        # the scan finds the querying user itself at distance 0
        found.remove(user)
        return found

    def regions_of_users(self) -> list[tuple[int, int]]:
        return [a.region for a in self.avatars]
