"""World geometry: regions, random-waypoint movement, proximity queries."""

import math
import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafog.config import resolve_config
from metafog.engine import US_PER_S, RngStream, ms_to_us
from metafog.errors import ConfigError, SimulationError
from metafog.harness import ScenarioRunner
from metafog.workload import Policy
from metafog.world import CellGrid, World, WorldGrid

GRID = WorldGrid(1000.0, 1000.0, 10, 10, 40.0)


def region_of(pos: tuple[float, float], grid: WorldGrid) -> tuple[int, int]:
    """The oracle for the region rule of World._place: region coordinates of a position.

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


@dataclass
class Walker:
    """One avatar's movement state, for the scalar oracle."""

    x: float
    y: float
    wx: float
    wy: float
    region: tuple[int, int]


def movement_tick(w: Walker, speed: float, dt_s: float, rng: RngStream,
                  grid: WorldGrid) -> Walker:
    """The oracle for World.next_round: one avatar moves speed * dt_s toward its waypoint.

    Arrival at the waypoint is capped exactly on it, and a new uniform-random
    waypoint is drawn (two draws: x then y). The region is recomputed after
    every tick. A round must equal this step applied to every avatar in user
    order, bit for bit and draw for draw.
    """
    if dt_s <= 0:
        raise SimulationError("movement_tick requires dt > 0")
    step = speed * dt_s
    dx = w.wx - w.x
    dy = w.wy - w.y
    dist = math.sqrt(dx * dx + dy * dy)
    if dist <= step:
        w.x = w.wx
        w.y = w.wy
        if step > 0.0:
            w.wx = rng.random() * grid.width
            w.wy = rng.random() * grid.height
    else:
        w.x += (dx / dist) * step
        w.y += (dy / dist) * step
    w.region = region_of((w.x, w.y), grid)
    return w


def walkers_of(world):
    """Scalar copies of a world's movement state, as the next round starts from it."""
    return [Walker(*state, divmod(avatar.region, world.grid.regions_y))
            for *state, avatar in zip(*(s.tolist() for s in world._state), world.avatars)]


def oracle_tick(world, walkers, user, dt_s):
    """Tick one avatar of world by the oracle, keeping both grids current."""
    w = movement_tick(walkers[user], world.speed, dt_s, world.rng, world.grid)
    avatar = world.avatars[user]
    avatar.x, avatar.y = w.x, w.y
    rx, ry = w.region
    world.rebucket(avatar, rx * world.grid.regions_y + ry,
                   brute_force_index(world.count_grid, avatar),
                   brute_force_index(world.near_grid, avatar))


def apply_round(world, dt_s):
    """Move every avatar by one round: next_round, then every tick applied by the world."""
    world.next_round(dt_s)
    world.tick(0, len(world.avatars))


class TestRegionOf:
    def test_origin(self):
        assert region_of((0.0, 0.0), GRID) == (0, 0)

    def test_interior_point(self):
        assert region_of((250.0, 250.0), GRID) == (2, 2)

    def test_boundary_point_belongs_to_higher_region(self):
        assert region_of((100.0, 0.0), GRID) == (1, 0)

    def test_max_corner_clamps_into_last_region(self):
        assert region_of((1000.0, 1000.0), GRID) == (9, 9)

    def test_out_of_bounds_is_contract_violation(self):
        with pytest.raises(SimulationError):
            region_of((-0.1, 5.0), GRID)
        with pytest.raises(SimulationError):
            region_of((5.0, 1000.1), GRID)

    def test_world_places_by_the_oracle(self):
        # the origin, an interior point, region boundaries and the clamped max corner
        points = [(0.0, 0.0), (250.0, 250.0), (100.0, 0.0), (0.0, 100.0), (1000.0, 1000.0)]
        world = World(GRID, 1, 1.0, RngStream(1, "movement"), GRID.cell)
        regions, _, _ = world._place(*np.array(points).T)
        assert [divmod(r, GRID.regions_y) for r in regions.tolist()] == \
            [region_of(pos, GRID) for pos in points] == [(0, 0), (2, 2), (1, 0), (0, 1), (9, 9)]

    def test_every_position_maps_to_exactly_one_region(self):
        rng = random.Random(3)
        for _ in range(500):
            rx, ry = region_of((rng.uniform(0, 1000), rng.uniform(0, 1000)), GRID)
            assert 0 <= rx < 10 and 0 <= ry < 10


class TestMovementTick:
    """The scalar oracle itself."""

    def test_zero_speed_stays_put(self):
        w = movement_tick(Walker(10.0, 10.0, 500.0, 500.0, (0, 0)), 0.0, 1.0,
                          RngStream(1, "movement"), GRID)
        assert (w.x, w.y) == (10.0, 10.0)
        assert (w.wx, w.wy) == (500.0, 500.0)

    def test_exact_arrival_caps_on_waypoint_and_redraws(self):
        w = movement_tick(Walker(0.0, 0.0, 3.0, 4.0, (0, 0)), 5.0, 1.0,
                          RngStream(1, "movement"), GRID)
        assert (w.x, w.y) == (3.0, 4.0)
        assert (w.wx, w.wy) != (3.0, 4.0)  # fresh waypoint drawn

    def test_linear_interpolation_toward_waypoint(self):
        w = movement_tick(Walker(0.0, 0.0, 10.0, 0.0, (0, 0)), 2.0, 1.0,
                          RngStream(1, "movement"), GRID)
        assert (w.x, w.y) == (2.0, 0.0)

    def test_region_recomputed_after_tick(self):
        w = movement_tick(Walker(99.0, 0.0, 500.0, 0.0, (0, 0)), 5.0, 1.0,
                          RngStream(1, "movement"), GRID)
        assert w.region == region_of((w.x, w.y), GRID)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(SimulationError):
            movement_tick(Walker(0.0, 0.0, 1.0, 1.0, (0, 0)), 1.0, 0.0,
                          RngStream(1, "movement"), GRID)


def brute_force_nearby(world, user, radius):
    me = world.avatars[user]
    out = set()
    for other in world.avatars:
        if other.user == user:
            continue
        if math.dist((me.x, me.y), (other.x, other.y)) <= radius:
            out.add(other.user)
    return out


def brute_force_cell(cells, avatar):
    """(cx, cy) of an avatar on a CellGrid; the max edges clamp into the last cells."""
    cx, cy = int(avatar.x / cells.side), int(avatar.y / cells.side)
    return min(cx, cells.nx - 1), min(cy, cells.ny - 1)


def cell_index(cells, cx, cy):
    """Index of cell (cx, cy) in a CellGrid framed by its one-cell border."""
    return (cx + 1) * (cells.ny + 2) + cy + 1


def brute_force_index(cells, avatar):
    return cell_index(cells, *brute_force_cell(cells, avatar))


def brute_force_candidates(world, user):
    mx, my = brute_force_cell(world.count_grid, world.avatars[user])
    count = 0
    for other in world.avatars:
        if other.user == user:
            continue
        ox, oy = brute_force_cell(world.count_grid, other)
        if abs(ox - mx) <= 1 and abs(oy - my) <= 1:
            count += 1
    return count


class TestProximityQueries:
    def test_colocated_avatars_see_each_other(self):
        tiny = WorldGrid(10.0, 10.0, 1, 1, 10.0)  # a single hash cell
        world = World(tiny, 2, 0.0, RngStream(1, "movement"), tiny.cell)
        for a in world.avatars:
            a.x = a.y = 5.0
        assert world.nearby_users(0, 1.0) == [1]
        assert world.nearby_users(1, 1.0) == [0]

    def test_lone_avatar_has_no_neighbors(self):
        world = World(GRID, 1, 1.0, RngStream(2, "movement"), GRID.cell)
        assert world.nearby_users(0, 30.0) == []
        assert world.collision_candidates(0) == 0

    def test_radius_above_cell_rejected(self):
        world = World(GRID, 3, 1.0, RngStream(2, "movement"), GRID.cell)
        with pytest.raises(ConfigError):
            world.nearby_users(0, GRID.cell + 1)

    def test_radius_above_the_worlds_own_rejected(self):
        world = World(GRID, 3, 1.0, RngStream(2, "movement"), 10.0)
        assert world.near_grid.side >= 10.0
        world.nearby_users(0, 10.0)
        with pytest.raises(ConfigError, match="10.5"):
            world.nearby_users(0, 10.5)

    @pytest.mark.parametrize("radius, shown", [(-30.0, "-30.0"), (math.nan, "nan")])
    def test_a_negative_or_nan_radius_is_rejected(self, radius, shown):
        # a negative radius squares to a positive one; NaN finds no one, not even the user
        world = World(GRID, 50, 1.5, RngStream(0, "movement"), 30.0)
        assert world.nearby_users(0, 0.0) == []
        with pytest.raises(ConfigError, match=f"proximity radius {shown} is outside"):
            world.nearby_users(0, radius)

    def test_proximity_cells_follow_the_radius(self):
        # 1000 avatars on 625 count cells: too sparse for a finer grid
        world = World(GRID, 1000, 1.0, RngStream(2, "movement"), 30.0)
        assert world.near_grid is world.count_grid
        assert world.count_grid == CellGrid(40.0, 25, 25)
        # 5000 avatars: cells of the radius
        world = World(GRID, 5000, 1.0, RngStream(2, "movement"), 30.0)
        assert world.near_grid == CellGrid(30.0, 34, 34)
        world = World(GRID, 5000, 1.0, RngStream(2, "movement"), 10.0)
        assert world.near_grid == CellGrid(10.0, 100, 100)
        # a radius above the cell is served, by cells of the radius
        world = World(GRID, 10, 1.0, RngStream(2, "movement"), 50.0)
        assert world.near_grid == CellGrid(50.0, 20, 20)

    def test_a_tiny_radius_keeps_the_proximity_grid_bounded(self):
        # dense: 2000 avatars on 625 count cells; the side starts at
        # 1000 / 2^20 and doubles to the first with at most 2^20 cells
        for radius in (1e-6, 5e-324):
            world = World(GRID, 2000, 0.0, RngStream(2, "movement"), radius)
            near = world.near_grid
            assert near == CellGrid(1000.0 / 2**10, 1024, 1024)
            assert len(world._members) == near.size
        # sparse: a strip of 2^20 count cells shares its grid, whose border
        # takes it above 2^20 cells, rather than building a second one
        long_strip = WorldGrid(2.0**20, 1.0, 1, 1, 1.0)
        world = World(long_strip, 1000, 0.0, RngStream(2, "movement"), 1e-6)
        assert world.near_grid is world.count_grid

    def test_nearby_matches_brute_force_on_random_layouts(self):
        for seed in range(30):
            world = World(GRID, 50, 1.5, RngStream(seed, "movement"), GRID.cell)
            for user in range(50):
                got = set(world.nearby_users(user, 30.0))
                assert got == brute_force_nearby(world, user, 30.0)

    def test_candidates_match_brute_force_after_movement(self):
        world = World(GRID, 40, 2.0, RngStream(11, "movement"), GRID.cell)
        for step in range(20):
            apply_round(world, 5.0)
            for user in range(40):
                assert world.collision_candidates(user) == brute_force_candidates(world, user)

    def test_colocated_clique_reports_k_minus_one(self):
        # k avatars dropped on the same spot: candidates == k - 1 for each
        one_cell = WorldGrid(100.0, 100.0, 1, 1, 100.0)
        world = World(one_cell, 5, 0.0, RngStream(4, "movement"), one_cell.cell)
        assert all(world.collision_candidates(u) == 4 for u in range(5))


class TestHashUnderMovement:
    """Both grids against brute force after random ticks and crossings."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), cell=st.floats(1.0, 50.0), width=st.floats(1.0, 200.0),
           height=st.floats(1.0, 200.0), n=st.integers(2, 60),
           cells_per_s=st.sampled_from([0.0, 0.05, 0.5, 1.0, 3.5]),
           radius_share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 1_000))
    def test_queries_match_brute_force_after_random_ticks(self, data, cell, width, height, n,
                                                          cells_per_s, radius_share, seed):
        grid = WorldGrid(width, height, 1, 1, cell)
        # a proximity radius below cell: where avatars are dense enough, the
        # proximity grid is finer than the count grid
        radius = radius_share * cell
        world = World(grid, n, cells_per_s * cell, RngStream(seed, "movement"), radius)
        walkers = walkers_of(world)
        # Colocate avatars: k takes j's position and waypoint, so the same
        # first tick moves both to the same point (and keeps them there at
        # speed 0). The first round ticks every avatar, which rebuckets k.
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for k, j in data.draw(st.lists(pairs, max_size=n), label="colocate"):
            src, dst = walkers[j], walkers[k]
            dst.x, dst.y, dst.wx, dst.wy = src.x, src.y, src.wx, src.wy
        rounds = [list(range(n))] + data.draw(
            st.lists(st.lists(st.integers(0, n - 1), max_size=2 * n), min_size=1, max_size=6),
            label="tick sequences")
        for users in rounds:
            dt_s = data.draw(st.floats(0.1, 2.0), label="dt_s")
            for user in users:
                oracle_tick(world, walkers, user, dt_s)
            self._check(world, radius)
            self._check(world, radius * data.draw(st.floats(0.0, 1.0), label="query share"))

    @staticmethod
    def _check(world, radius):
        check_grids(world)
        for user, avatar in enumerate(world.avatars):
            got = world.nearby_users(user, radius)
            assert len(got) == len(set(got))
            assert user not in got
            assert set(got) == {
                other.user for other in world.avatars
                if other.user != user
                and (other.x - avatar.x) ** 2 + (other.y - avatar.y) ** 2 <= radius ** 2
            }


def check_grids(world):
    """Both grids of world against brute force from the avatars' positions."""
    count, near = world.count_grid, world.near_grid
    assert near.side >= world.radius
    home = {}
    for p, members in enumerate(world._members):
        for avatar in members:
            assert id(avatar) not in home, "avatar in two member lists"
            home[id(avatar)] = p
    assert len(home) == len(world.avatars)
    cells = []
    for user, avatar in enumerate(world.avatars):
        assert home[id(avatar)] == world._near_of[user] == brute_force_index(near, avatar)
        cells.append(brute_force_cell(count, avatar))
        assert world._cell_of[user] == cell_index(count, *cells[-1])
        assert world.collision_candidates(user) == brute_force_candidates(world, user)
    # every cell's block count, the empty border's included
    for cx in range(-1, count.nx + 1):
        for cy in range(-1, count.ny + 1):
            assert world._nbsum[cell_index(count, cx, cy)] == sum(
                abs(ox - cx) <= 1 and abs(oy - cy) <= 1 for ox, oy in cells)


class TestRunnerGrids:
    """Both grids at the end of a whole run, against brute force."""

    def test_a_crowd_run_leaves_both_grids_exact(self):
        cfg = resolve_config({
            "world": {"width": 300.0, "height": 300.0, "regions_x": 5, "regions_y": 5},
            "workload": {"user_count": 600, "message_rate_per_user_per_s": 1.0},
            "experiment": {"horizon_ms": 3_500.0, "warmup_ms": 0.0},
        })
        runner = ScenarioRunner(cfg, Policy.FOG_EDGE, 42)
        runner.run()
        world = runner.world
        assert world.near_grid.side == 30.0 < world.count_grid.side
        assert runner.messages_sent > 0
        check_grids(world)
        for user in range(600):
            assert set(world.nearby_users(user, 30.0)) == brute_force_nearby(world, user, 30.0)

    def test_a_radius_above_the_cell_is_accepted_and_runs_exact(self):
        cfg = resolve_config({
            "world": {"proximity_radius": 50.0},
            "workload": {"user_count": 600, "message_rate_per_user_per_s": 1.0},
            "experiment": {"horizon_ms": 3_500.0, "warmup_ms": 0.0},
        })
        assert cfg["world"]["proximity_radius"] > cfg["world"]["cell"] == 40.0
        runner = ScenarioRunner(cfg, Policy.FOG_EDGE, 42)
        runner.run()
        world = runner.world
        assert world.near_grid == CellGrid(50.0, 20, 20)
        assert runner.messages_sent > 0
        check_grids(world)
        for user in range(600):
            assert set(world.nearby_users(user, 50.0)) == brute_force_nearby(world, user, 50.0)

    def test_a_tiny_radius_runs_on_a_bounded_proximity_grid(self):
        cfg = resolve_config({"world": {"proximity_radius": 1e-6},
                              "experiment": {"horizon_ms": 5_000.0, "warmup_ms": 0.0}})
        runner = ScenarioRunner(cfg, Policy.FOG_EDGE, 1)
        near = runner.world.near_grid
        assert near.nx * near.ny <= 2**20
        runner.run()
        assert runner.messages_sent == 0 < runner.messages_skipped
        check_grids(runner.world)


class TestContainmentInvariant:
    def test_avatars_stay_in_bounds_with_consistent_regions(self):
        world = World(GRID, 30, 3.0, RngStream(9, "movement"), GRID.cell)
        for _ in range(200):
            apply_round(world, 2.0)
            for avatar in world.avatars:
                assert 0 <= avatar.x <= GRID.width
                assert 0 <= avatar.y <= GRID.height
                assert divmod(avatar.region, GRID.regions_y) == \
                    region_of((avatar.x, avatar.y), GRID)


def test_construction_draws_each_position_then_waypoint():
    world = World(GRID, 5, 2.5, RngStream(21, "movement"), GRID.cell)
    rng = RngStream(21, "movement")
    for user, avatar in enumerate(world.avatars):
        x, y, wx, wy = (rng.random() * 1000 for _ in range(4))
        assert (avatar.x, avatar.y, divmod(avatar.region, GRID.regions_y)) == \
            (x, y, region_of((x, y), GRID))
        assert [s[user] for s in world._state] == [x, y, wx, wy]
        assert world._cell_of[user] == brute_force_index(world.count_grid, avatar)
        assert world._near_of[user] == brute_force_index(world.near_grid, avatar)


class TestMovementRounds:
    """The runner's round path against the scalar oracle, one tick per firing."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), width=st.floats(1.0, 300.0),
           height=st.floats(1.0, 300.0), regions=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           cell_share=st.floats(0.05, 1.0), radius_share=st.floats(0.01, 1.0),
           tick_ms=st.sampled_from([0.001, 0.25, 1000.0, 7.5]),
           share=st.sampled_from([0.0, 0.01, 0.3, 1.5]), seed=st.integers(0, 1_000))
    def test_rounds_equal_repeated_tick_avatar(self, data, n, width, height, regions,
                                               cell_share, radius_share, tick_ms, share, seed):
        cell = cell_share * min(width, height)
        # The speed as a share of the width per tick: 0 stays put, above 1
        # arrives on every tick and draws a fresh waypoint.
        dt_s = ms_to_us(tick_ms) / US_PER_S
        cfg = resolve_config({
            "world": {"width": width, "height": height, "regions_x": regions[0],
                      "regions_y": regions[1], "cell": cell,
                      "proximity_radius": radius_share * cell,
                      "movement_tick_ms": tick_ms, "avatar_speed": share * width / dt_s},
            "workload": {"user_count": n, "message_rate_per_user_per_s": 0.0,
                         "tx_rate_per_user_per_s": 0.0},
            "experiment": {"horizon_ms": 0.0, "warmup_ms": 0.0},
        })
        runner = ScenarioRunner(cfg, Policy.FOG_EDGE, seed)
        world = runner.world
        mirror = World(runner.grid, n, world.speed, RngStream(seed, "movement"), world.radius)
        walkers = walkers_of(mirror)
        assert runner.dt_s == dt_s
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for k, j in data.draw(st.lists(pairs, max_size=n), label="colocate"):
            for column in world._state:
                column[k] = column[j]
            src, dst = walkers[j], walkers[k]
            dst.x, dst.y, dst.wx, dst.wy = src.x, src.y, src.wx, src.wy
        firings = data.draw(st.integers(1, 5 * n), label="firings")
        cuts = sorted(set(data.draw(st.lists(st.integers(1, firings)), label="cuts"))
                      | {firings})
        tick = runner.tick_us
        expected = []
        lo = 0
        for hi in cuts:
            runner._on_movement_tick(lo, hi)
            for i in range(lo, hi):
                r, u = divmod(i, n)
                oracle_tick(mirror, walkers, u, dt_s)
                created = (u * tick) // n + (r + 1) * tick
                expected += [(0, u, created, 0), (1, u, created, mirror.collision_candidates(u))]
            lo = hi
            assert self._state(world) == self._state(mirror)
            # the world holds the round in progress: waypoints of the users ticked in it
            m = (hi - 1) % n + 1
            assert [column[:m].tolist() for column in world._state] == \
                [[getattr(w, f) for w in walkers[:m]] for f in ("x", "y", "wx", "wy")]
            if hi % n == 0:
                assert world.rng._rng.getstate() == mirror.rng._rng.getstate()
        buffer = runner.pipeline._buffer
        rows = [tuple(buffer[i:i + 5]) for i in range(0, len(buffer), 5)]
        assert [(kind, owner, created, cand) for kind, owner, created, _, cand in rows] \
            == expected

    @staticmethod
    def _state(world):
        return ([(a.x, a.y, a.region) for a in world.avatars],
                [[a.user for a in members] for members in world._members],
                world._near_of, world._cell_of, world._nbsum)

    def test_round_caps_an_exact_arrival_and_redraws(self):
        # a 3-4-5 step of exactly the distance lands on the waypoint
        world = World(GRID, 1, 5.0, RngStream(1, "movement"), GRID.cell)
        world._state = tuple(np.array([v]) for v in (0.0, 0.0, 3.0, 4.0))
        rng = RngStream(1, "movement")
        for _ in range(4):  # replay the construction draws
            rng.random()
        walker = movement_tick(Walker(0.0, 0.0, 3.0, 4.0, (0, 0)), 5.0, 1.0, rng, GRID)
        assert self._placed(world, world.next_round(1.0)) == (
            [3.0], [4.0], (0, 0), cell_index(world.count_grid, 0, 0),
            cell_index(world.near_grid, 0, 0))
        assert [s.tolist() for s in world._state] == [[3.0], [4.0], [walker.wx], [walker.wy]]

    def test_round_clamps_the_max_corner_into_the_last_region_and_cell(self):
        world = World(GRID, 1, 0.0, RngStream(1, "movement"), GRID.cell)
        world._state = tuple(np.array([v]) for v in (1000.0, 1000.0, 0.0, 0.0))
        near = world.near_grid
        assert self._placed(world, world.next_round(1.0)) == (
            [1000.0], [1000.0], (9, 9), cell_index(world.count_grid, 24, 24),
            cell_index(near, near.nx - 1, near.ny - 1))

    @staticmethod
    def _placed(world, round_):
        """A one-avatar round: positions, then region and cells after it, crossed or not."""
        region, c, p = round_.crossed.get(
            0, (world.avatars[0].region, world._cell_of[0], world._near_of[0]))
        return round_.x, round_.y, divmod(region, world.grid.regions_y), c, p

    def test_crossed_holds_a_change_of_region_or_either_cell_and_rebucket_moves_only_that(self):
        # 36 avatars on 60 x 60: 10-unit proximity cells inside 40-unit count cells,
        # 15-unit regions along x
        world = World(WorldGrid(60.0, 60.0, 4, 1, 40.0), 36, 0.0, RngStream(1, "movement"), 10.0)
        assert world.near_grid.side == 10.0

        def place(*firsts):  # the first avatars where given, the rest at (55, 55)
            xy = list(firsts) + [(55.0, 55.0)] * (36 - len(firsts))
            world._state = tuple(np.array(v) for v in zip(*[(x, y, x, y) for x, y in xy]))

        place((5.0, 5.0), (5.0, 5.0), (5.0, 5.0), (12.0, 5.0))
        apply_round(world, 1.0)
        # stay put; cross a proximity and a region border; cross every border;
        # cross a region border only
        place((5.0, 5.0), (15.0, 5.0), (45.0, 5.0), (16.0, 5.0))
        nbsum = list(world._nbsum)
        crossed = world.next_round(1.0).crossed
        count, near = world.count_grid, world.near_grid
        regions_y = world.grid.regions_y
        assert {u: (divmod(r, regions_y), c, p) for u, (r, c, p) in crossed.items()} == {
            1: ((1, 0), cell_index(count, 0, 0), cell_index(near, 1, 0)),
            2: ((3, 0), cell_index(count, 1, 0), cell_index(near, 4, 0)),
            3: ((1, 0), cell_index(count, 0, 0), cell_index(near, 1, 0))}
        world.tick(0, 2)
        assert world._nbsum == nbsum  # user 1's tick left the count grid as it was
        world.tick(2, 36)
        assert [divmod(a.region, regions_y) for a in world.avatars[:4]] == \
            [(0, 0), (1, 0), (3, 0), (1, 0)]
        check_grids(world)

    def test_round_refuses_non_positive_dt(self):
        with pytest.raises(SimulationError):
            World(GRID, 3, 1.0, RngStream(1, "movement"), GRID.cell).next_round(0.0)
