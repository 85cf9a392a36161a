"""The virtual universe: a bounded 2-D map, region grid, and moving avatars.

Avatars follow a random-waypoint walk: head for the current waypoint at a
fixed speed, and draw a fresh uniform waypoint on arrival. Two square-cell
grids over the map serve the neighbour queries, the linked-cell method
(Allen & Tildesley, *Computer Simulation of Liquids*, 1987, section 5.3.2):

- the count grid, of world.cell cells, keeps each avatar's cell and the
  number of avatars in every cell's 3x3 block, which is an avatar's
  collision-candidate count plus one;
- the proximity grid, of cells at least as large as the proximity radius,
  keeps the Avatar objects of each cell, so a radius query walks the
  avatars of a 3x3 block directly.

A simulation run moves every avatar once per round, and World.next_round is
the only code that moves one: it computes a whole round in numpy, and
World.tick applies a run of it, one avatar at a time in user order, as the
avatars' ticks come due, returning each one's collision-candidate count. The
tests keep a scalar one-avatar step as the oracle that rounds must equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import _MAX_COUNT
from .engine import RngStream
from .errors import ConfigError, SimulationError


@dataclass(frozen=True)
class WorldGrid:
    width: float
    height: float
    regions_x: int
    regions_y: int
    cell: float

    # cached_property stores into the instance __dict__, which the frozen
    # __setattr__ does not guard; later reads are plain attribute lookups.
    @cached_property
    def region_width(self) -> float:
        return self.width / self.regions_x

    @cached_property
    def region_height(self) -> float:
        return self.height / self.regions_y


@dataclass(slots=True, eq=False)
class Avatar:
    user: int
    x: float
    y: float
    region: int  # rx * regions_y + ry


@dataclass(frozen=True)
class CellGrid:
    """Square cells of a side over the world, framed by a one-cell empty border.

    Cell (cx, cy) has index (cx + 1) * (ny + 2) + cy + 1; positions on the
    max edges of the world fall in the last cells. The 3x3 block around any
    cell of the world is that cell's index plus each offset in block.
    """

    side: float
    nx: int
    ny: int

    @classmethod
    def over(cls, grid: WorldGrid, side: float) -> CellGrid:
        return cls(side, max(1, math.ceil(grid.width / side)),
                   max(1, math.ceil(grid.height / side)))

    @property
    def size(self) -> int:
        return (self.nx + 2) * (self.ny + 2)

    @cached_property
    def block(self) -> tuple[int, ...]:
        stride = self.ny + 2
        return tuple(dx * stride + dy for dx in (-1, 0, 1) for dy in (-1, 0, 1))

    def index(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        cx = np.minimum((x / self.side).astype(np.int64), self.nx - 1)
        cy = np.minimum((y / self.side).astype(np.int64), self.ny - 1)
        return (cx + 1) * (self.ny + 2) + cy + 1

    def block_sums(self, cells: np.ndarray) -> list[int]:
        """The number of the given cells that fall in each cell's 3x3 block."""
        counts = np.zeros((self.nx + 4, self.ny + 4), dtype=np.int64)
        counts[1:-1, 1:-1] = np.bincount(cells, minlength=self.size).reshape(
            self.nx + 2, self.ny + 2)
        sums = sum(counts[dx:dx + self.nx + 2, dy:dy + self.ny + 2]
                   for dx in range(3) for dy in range(3))
        return sums.ravel().tolist()


class Round(NamedTuple):
    """Each avatar's position after a round of ticks, by user, and its moves.

    crossed maps each user whose region index, count-grid cell or
    proximity-grid cell differs from the round before (or from construction)
    to the three of them after this round, the arguments of rebucket, which
    World.tick passes on as it applies the user's tick.
    """

    x: list[float]
    y: list[float]
    crossed: dict[int, tuple[int, int, int]]


class World:
    """All avatars plus the two grids that serve neighbour queries.

    The count grid (count_grid, cells of world.cell) holds each avatar's
    cell and, for every cell, the number of avatars in its 3x3 block. The
    proximity grid (near_grid) holds each avatar's cell and each cell's
    member list of Avatar objects. Its cells are at least radius wide, the
    largest radius nearby_users accepts, so a 3x3 scan covers the whole
    disc. Where a count cell holds fewer than two avatars on average and the
    radius is at most world.cell, the proximity grid is the count grid
    itself: a 3x3 block of count cells then holds too few avatars for a
    finer scan to pay for a second set of borders to cross. Otherwise the
    side is the radius, raised to 1/2^20 of each edge of the world if that
    is larger, and doubled while the grid has more than 2^20 cells inside
    its border, so no radius asks for millions of lists.

    Both grids are kept incrementally: an avatar is rebucketed only when a
    tick moves it across a cell border of either. Queries therefore always
    see every avatar at its most recently ticked position.
    """

    def __init__(self, grid: WorldGrid, n_users: int, speed: float, rng: RngStream,
                 radius: float):
        self.grid = grid
        self.rng = rng
        self.radius = radius
        count = self.count_grid = CellGrid.over(grid, grid.cell)
        if n_users < 2 * count.nx * count.ny and radius <= grid.cell:
            near = count
        else:
            # no axis of more than 2^20 cells, so even a subnormal radius
            # gives finite cell counts
            near = CellGrid.over(grid, max(radius, grid.width / _MAX_COUNT,
                                           grid.height / _MAX_COUNT))
            while near.nx * near.ny > _MAX_COUNT:
                near = CellGrid.over(grid, 2 * near.side)
        self.near_grid = count if near == count else near
        draws = np.array(rng.uniforms(4 * n_users)).reshape(-1, 4)
        draws *= (grid.width, grid.height, grid.width, grid.height)
        # x, y, wx and wy of every avatar after the last round: positions and waypoints
        self._state: tuple[np.ndarray, ...] = tuple(draws.T.copy())
        self.speed = speed  # world units per second
        x, y = self._state[:2]
        places = self._place(x, y)
        self._places = places  # region index and both cells after the last round
        self._round: Round | None = None  # the round next_round computed last
        regions, cells, nears = places
        self.avatars = list(map(Avatar, range(n_users), x.tolist(), y.tolist(),
                                regions.tolist()))
        self._cell_of = cells.tolist()
        # _nbsum[c] is kept equal to the number of avatars in the 3x3 block
        # of count-grid cell c, so a collision-candidate query is one lookup.
        self._nbsum = self.count_grid.block_sums(cells)
        self._near_of = nears.tolist()
        self._members: list[list[Avatar]] = [[] for _ in range(near.size)]
        for avatar, p in zip(self.avatars, self._near_of):
            self._members[p].append(avatar)

    def rebucket(self, avatar: Avatar, region: int, c: int, p: int) -> None:
        """Move an avatar into region index region, count-grid cell c and proximity-grid cell p.

        Only the grid whose cell the avatar left changes.
        """
        avatar.region = region
        user = avatar.user
        old = self._cell_of[user]
        if old != c:
            self._cell_of[user] = c
            nbsum = self._nbsum
            for offset in self.count_grid.block:
                nbsum[old + offset] -= 1
                nbsum[c + offset] += 1
        old = self._near_of[user]
        if old != p:
            self._near_of[user] = p
            self._members[old].remove(avatar)
            self._members[p].append(avatar)

    def _place(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """Region index, count-grid cell and proximity-grid cell of each position.

        The max edges clamp into the last regions and cells; region (rx, ry)
        has index rx * regions_y + ry.
        """
        grid = self.grid
        rx = np.minimum((x / grid.region_width).astype(np.int64), grid.regions_x - 1)
        ry = np.minimum((y / grid.region_height).astype(np.int64), grid.regions_y - 1)
        cells = self.count_grid.index(x, y)
        nears = cells if self.near_grid is self.count_grid else self.near_grid.index(x, y)
        return rx * grid.regions_y + ry, cells, nears

    def next_round(self, dt_s: float) -> Round:
        """Every avatar's state after one more tick of dt_s, computed but not applied.

        Each avatar moves speed * dt_s toward its waypoint. One that reaches
        it stops exactly on it and, unless the speed is 0, draws a fresh
        uniform waypoint (x then y) from the movement stream, in user order.
        A round starts where the round before it ended, the first one where
        __init__ placed the avatars. The world keeps the round for tick,
        which applies it as the avatars' ticks come due; once the round
        before is applied, crossed holds exactly the avatars whose region or
        cells change. tests/test_world.py keeps a scalar one-avatar step that
        every round must equal, bit for bit and draw for draw.
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
            xy = np.array(self.rng.uniforms(2 * redraw.size)).reshape(-1, 2)
            wx = wx.copy()
            wy = wy.copy()
            wx[redraw] = xy[:, 0] * grid.width
            wy[redraw] = xy[:, 1] * grid.height
        if (nx < 0).any() or (ny < 0).any() or (nx > grid.width).any() or (ny > grid.height).any():
            raise SimulationError("a movement round left the world bounds")
        self._state = (nx, ny, wx, wy)
        places = self._place(nx, ny)
        moved = np.flatnonzero(np.logical_or.reduce(
            [new != old for new, old in zip(places, self._places)]))
        self._places = places
        crossed = dict(zip(moved.tolist(), zip(*(column[moved].tolist() for column in places))))
        self._round = Round(nx.tolist(), ny.tolist(), crossed)
        return self._round

    def tick(self, lo: int, hi: int) -> list[int]:
        """Apply the ticks of users lo..hi-1 of the last round, in order; return their counts.

        A tick writes its avatar's position, rebuckets it if it is in crossed
        and then counts its collision_candidates, which see every earlier tick.
        """
        xs, ys, crossed = self._round
        avatars = self.avatars
        candidates = self.collision_candidates
        counts = []
        for user in range(lo, hi):
            avatar = avatars[user]
            avatar.x = xs[user]
            avatar.y = ys[user]
            if user in crossed:
                self.rebucket(avatar, *crossed[user])
            counts.append(candidates(user))
        return counts

    def collision_candidates(self, user: int) -> int:
        """Number of other avatars in the 3x3 block of the user's count-grid cell."""
        return self._nbsum[self._cell_of[user]] - 1

    def nearby_users(self, user: int, radius: float) -> list[int]:
        """The users within Euclidean distance radius, via a 3x3 cell scan.

        Returns a list of users, each once, in no promised order; the
        querying user is excluded. The radius must lie in [0, the radius the
        world was built for], so that the scan covers the whole disc.
        """
        if not 0 <= radius <= self.radius:  # NaN fails both comparisons
            raise ConfigError(f"proximity radius {radius} is outside [0, {self.radius}]")
        me = self.avatars[user]
        x, y = me.x, me.y
        r2 = radius * radius
        members = self._members
        p = self._near_of[user]
        found = []
        for offset in self.near_grid.block:
            for a in members[p + offset]:
                dx = a.x - x
                dy = a.y - y
                if dx * dx + dy * dy <= r2:
                    found.append(a.user)
        # the scan finds the querying user itself at distance 0
        found.remove(user)
        return found
