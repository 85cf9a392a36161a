"""The virtual universe: a bounded 2-D map, region grid, and moving avatars.

Avatars follow a random-waypoint walk: head for the current waypoint at a
fixed speed, and draw a fresh uniform waypoint on arrival. A spatial hash with
cells at least as large as the proximity radius makes radius queries and
collision-candidate counts a 3x3 cell scan: the linked-cell method (Allen &
Tildesley, *Computer Simulation of Liquids*, 1987, section 5.3.2). Each cell
holds its Avatar objects, and each cell's 3x3 block of member lists is built
once, so a query walks avatars directly rather than looking up user ids.

A simulation run moves every avatar once per round. World.next_round computes
a whole round in numpy, with the IEEE operations of movement_tick, and the
caller applies it one avatar at a time as the avatars' ticks come due.
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
    wx: float
    wy: float
    speed: float  # world units per second
    region: tuple[int, int]


def movement_tick(avatar: Avatar, dt_s: float, rng: RngStream, grid: WorldGrid) -> Avatar:
    """Advance one avatar by speed*dt toward its waypoint.

    Arrival at the waypoint is capped exactly on it, and a new uniform-random
    waypoint is drawn (two draws: x then y). The avatar's region is recomputed
    after every tick.
    """
    if dt_s <= 0:
        raise SimulationError("movement_tick requires dt > 0")
    step = avatar.speed * dt_s
    dx = avatar.wx - avatar.x
    dy = avatar.wy - avatar.y
    dist = math.sqrt(dx * dx + dy * dy)
    if dist <= step:
        avatar.x = avatar.wx
        avatar.y = avatar.wy
        if step > 0.0:
            avatar.wx = rng.random() * grid.width
            avatar.wy = rng.random() * grid.height
    else:
        avatar.x += (dx / dist) * step
        avatar.y += (dy / dist) * step
    avatar.region = region_of((avatar.x, avatar.y), grid)
    return avatar


class Round(NamedTuple):
    """Each avatar's state after a round of ticks, indexed by user."""

    x: list[float]
    y: list[float]
    wx: list[float]
    wy: list[float]
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
        self.avatars: list[Avatar] = []
        self._cell_of: list[int] = []
        for user in range(n_users):
            x = rng.random() * grid.width
            y = rng.random() * grid.height
            wx = rng.random() * grid.width
            wy = rng.random() * grid.height
            avatar = Avatar(user, x, y, wx, wy, speed, region_of((x, y), grid))
            self.avatars.append(avatar)
            c = self._cell_index(x, y)
            self._cell_of.append(c)
            members[c].append(avatar)
        self._nbsum = [sum(map(len, block)) for block in self._blocks]
        # x, y, wx, wy and speed arrays after the last round, from the first next_round
        self._state: tuple[np.ndarray, ...] | None = None
        self._regions = grid.all_regions()  # region index rx * regions_y + ry -> (rx, ry)

    def _cell_index(self, x: float, y: float) -> int:
        cx = int(x / self.grid.cell)
        cy = int(y / self.grid.cell)
        if cx >= self.ncx:
            cx = self.ncx - 1
        if cy >= self.ncy:
            cy = self.ncy - 1
        return cx * self.ncy + cy

    def tick_avatar(self, user: int, dt_s: float) -> Avatar:
        """Movement tick for one avatar, keeping the spatial hash current."""
        avatar = self.avatars[user]
        movement_tick(avatar, dt_s, self.rng, self.grid)
        c = self._cell_index(avatar.x, avatar.y)
        if c != self._cell_of[user]:
            self.rebucket(avatar, c)
        return avatar

    def rebucket(self, avatar: Avatar, c: int) -> None:
        """Move an avatar that has crossed into cell c out of its old cell."""
        user = avatar.user
        old = self._cell_of[user]
        self._members[old].remove(avatar)
        self._members[c].append(avatar)
        self._cell_of[user] = c
        nbsum = self._nbsum
        for n in self._neighbors[old]:
            nbsum[n] -= 1
        for n in self._neighbors[c]:
            nbsum[n] += 1

    def next_round(self, dt_s: float) -> Round:
        """Every avatar's state after one more tick of dt_s, computed but not applied.

        The result equals what tick_avatar gives when every avatar ticks once,
        in user order, from the end of the previous round: the same IEEE
        operations run element-wise, and arriving avatars draw their new
        waypoints (x then y) from the movement stream in user order. The first
        round starts from the avatars; each later one from the round before,
        so a world moves either by rounds or by tick_avatar, never both. The
        caller writes each avatar and calls rebucket on a cell crossing when
        that avatar's tick comes due.
        """
        if dt_s <= 0:
            raise SimulationError("a movement round requires dt > 0")
        grid = self.grid
        if self._state is None:
            self._state = tuple(np.array([getattr(a, f) for a in self.avatars], dtype=float)
                                for f in ("x", "y", "wx", "wy", "speed"))
        x, y, wx, wy, speed = self._state
        step = speed * dt_s
        dx = wx - x
        dy = wy - y
        dist = np.sqrt(dx * dx + dy * dy)
        arrive = dist <= step
        move = ~arrive
        nx = wx.copy()  # an arrival is capped exactly on its waypoint
        ny = wy.copy()
        nx[move] = x[move] + (dx[move] / dist[move]) * step[move]
        ny[move] = y[move] + (dy[move] / dist[move]) * step[move]
        redraw = np.flatnonzero(arrive & (step > 0.0))
        if redraw.size:
            draw = self.rng.random
            xy = np.array([draw() for _ in range(2 * redraw.size)]).reshape(-1, 2)
            wx = wx.copy()
            wy = wy.copy()
            wx[redraw] = xy[:, 0] * grid.width
            wy[redraw] = xy[:, 1] * grid.height
        if (nx < 0).any() or (ny < 0).any() or (nx > grid.width).any() or (ny > grid.height).any():
            raise SimulationError("a movement round left the world bounds")
        self._state = (nx, ny, wx, wy, speed)
        rx = np.minimum((nx / grid.region_width).astype(np.int64), grid.regions_x - 1)
        ry = np.minimum((ny / grid.region_height).astype(np.int64), grid.regions_y - 1)
        cx = np.minimum((nx / grid.cell).astype(np.int64), self.ncx - 1)
        cy = np.minimum((ny / grid.cell).astype(np.int64), self.ncy - 1)
        return Round(nx.tolist(), ny.tolist(), wx.tolist(), wy.tolist(),
                     list(map(self._regions.__getitem__, (rx * grid.regions_y + ry).tolist())),
                     (cx * self.ncy + cy).tolist())

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
