"""World geometry: regions, random-waypoint movement, proximity queries."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metafog.config import resolve_config
from metafog.engine import RngStream
from metafog.errors import ConfigError, SimulationError
from metafog.harness import ScenarioRunner
from metafog.workload import Policy
from metafog.world import Avatar, World, WorldGrid, movement_tick, region_of

GRID = WorldGrid(1000.0, 1000.0, 10, 10, 40.0)


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

    def test_every_position_maps_to_exactly_one_region(self):
        rng = random.Random(3)
        for _ in range(500):
            rx, ry = region_of((rng.uniform(0, 1000), rng.uniform(0, 1000)), GRID)
            assert 0 <= rx < 10 and 0 <= ry < 10


class TestMovementTick:
    def test_zero_speed_stays_put(self):
        avatar = Avatar(0, 10.0, 10.0, 500.0, 500.0, 0.0, (0, 0))
        movement_tick(avatar, 1.0, RngStream(1, "movement"), GRID)
        assert (avatar.x, avatar.y) == (10.0, 10.0)
        assert (avatar.wx, avatar.wy) == (500.0, 500.0)

    def test_exact_arrival_caps_on_waypoint_and_redraws(self):
        avatar = Avatar(0, 0.0, 0.0, 3.0, 4.0, 5.0, (0, 0))
        movement_tick(avatar, 1.0, RngStream(1, "movement"), GRID)
        assert (avatar.x, avatar.y) == (3.0, 4.0)
        assert (avatar.wx, avatar.wy) != (3.0, 4.0)  # fresh waypoint drawn

    def test_linear_interpolation_toward_waypoint(self):
        avatar = Avatar(0, 0.0, 0.0, 10.0, 0.0, 2.0, (0, 0))
        movement_tick(avatar, 1.0, RngStream(1, "movement"), GRID)
        assert (avatar.x, avatar.y) == (2.0, 0.0)

    def test_region_recomputed_after_tick(self):
        avatar = Avatar(0, 99.0, 0.0, 500.0, 0.0, 5.0, (0, 0))
        movement_tick(avatar, 1.0, RngStream(1, "movement"), GRID)
        assert avatar.region == region_of((avatar.x, avatar.y), GRID)

    def test_rejects_non_positive_dt(self):
        avatar = Avatar(0, 0.0, 0.0, 1.0, 1.0, 1.0, (0, 0))
        with pytest.raises(SimulationError):
            movement_tick(avatar, 0.0, RngStream(1, "movement"), GRID)


def brute_force_nearby(world, user, radius):
    me = world.avatars[user]
    out = set()
    for other in world.avatars:
        if other.user == user:
            continue
        if math.dist((me.x, me.y), (other.x, other.y)) <= radius:
            out.add(other.user)
    return out


def brute_force_cell(world, avatar):
    cell = world.grid.cell
    cx, cy = int(avatar.x / cell), int(avatar.y / cell)
    return min(cx, world.ncx - 1), min(cy, world.ncy - 1)


def brute_force_candidates(world, user):
    mx, my = brute_force_cell(world, world.avatars[user])
    count = 0
    for other in world.avatars:
        if other.user == user:
            continue
        ox, oy = brute_force_cell(world, other)
        if abs(ox - mx) <= 1 and abs(oy - my) <= 1:
            count += 1
    return count


class TestProximityQueries:
    def test_colocated_avatars_see_each_other(self):
        tiny = WorldGrid(10.0, 10.0, 1, 1, 10.0)  # a single hash cell
        world = World(tiny, 2, 0.0, RngStream(1, "movement"))
        for a in world.avatars:
            a.x = a.y = 5.0
        assert world.nearby_users(0, 1.0) == [1]
        assert world.nearby_users(1, 1.0) == [0]

    def test_lone_avatar_has_no_neighbors(self):
        world = World(GRID, 1, 1.0, RngStream(2, "movement"))
        assert world.nearby_users(0, 30.0) == []
        assert world.collision_candidates(0) == 0

    def test_radius_above_cell_rejected(self):
        world = World(GRID, 3, 1.0, RngStream(2, "movement"))
        with pytest.raises(ConfigError):
            world.nearby_users(0, GRID.cell + 1)

    def test_nearby_matches_brute_force_on_random_layouts(self):
        for seed in range(30):
            world = World(GRID, 50, 1.5, RngStream(seed, "movement"))
            for user in range(50):
                got = set(world.nearby_users(user, 30.0))
                assert got == brute_force_nearby(world, user, 30.0)

    def test_candidates_match_brute_force_after_movement(self):
        world = World(GRID, 40, 2.0, RngStream(11, "movement"))
        for step in range(20):
            for user in range(40):
                world.tick_avatar(user, 5.0)
            for user in range(40):
                assert world.collision_candidates(user) == brute_force_candidates(world, user)

    def test_colocated_clique_reports_k_minus_one(self):
        # k avatars dropped on the same spot: candidates == k - 1 for each
        world = World(WorldGrid(100.0, 100.0, 1, 1, 100.0), 5, 0.0, RngStream(4, "movement"))
        assert all(world.collision_candidates(u) == 4 for u in range(5))


class TestHashUnderMovement:
    """The spatial hash against brute force after random ticks and crossings."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), cell=st.floats(1.0, 50.0), width=st.floats(1.0, 200.0),
           height=st.floats(1.0, 200.0), n=st.integers(2, 60),
           cells_per_s=st.sampled_from([0.0, 0.05, 0.5, 1.0, 3.5]),
           radius_share=st.floats(0.0, 1.0, exclude_min=True), seed=st.integers(0, 1_000))
    def test_queries_match_brute_force_after_random_ticks(self, data, cell, width, height, n,
                                                          cells_per_s, radius_share, seed):
        grid = WorldGrid(width, height, 1, 1, cell)
        world = World(grid, n, cells_per_s * cell, RngStream(seed, "movement"))
        radius = radius_share * cell
        # Colocate avatars: k takes j's position and waypoint, so the same
        # first tick moves both to the same point (and keeps them there at
        # speed 0). The first round ticks every avatar, which rebuckets k.
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for k, j in data.draw(st.lists(pairs, max_size=n), label="colocate"):
            src, dst = world.avatars[j], world.avatars[k]
            dst.x, dst.y, dst.wx, dst.wy = src.x, src.y, src.wx, src.wy
        rounds = [list(range(n))] + data.draw(
            st.lists(st.lists(st.integers(0, n - 1), max_size=2 * n), min_size=1, max_size=6),
            label="tick sequences")
        for users in rounds:
            dt_s = data.draw(st.floats(0.1, 2.0), label="dt_s")
            for user in users:
                world.tick_avatar(user, dt_s)
            self._check(world, radius)
        # the block tuples alias the live member lists, never copies of them
        for c, block in enumerate(world._neighbors):
            assert all(members is world._members[nb]
                       for members, nb in zip(world._blocks[c], block, strict=True))

    @staticmethod
    def _check(world, radius):
        home = {}
        for c, members in enumerate(world._members):
            for avatar in members:
                assert id(avatar) not in home, "avatar in two member lists"
                home[id(avatar)] = c
        assert len(home) == len(world.avatars)
        for user, avatar in enumerate(world.avatars):
            cx, cy = brute_force_cell(world, avatar)
            assert home[id(avatar)] == world._cell_of[user] == cx * world.ncy + cy
            got = world.nearby_users(user, radius)
            assert len(got) == len(set(got))
            assert user not in got
            assert set(got) == {
                other.user for other in world.avatars
                if other.user != user
                and (other.x - avatar.x) ** 2 + (other.y - avatar.y) ** 2 <= radius ** 2
            }
            assert world.collision_candidates(user) == brute_force_candidates(world, user)


class TestContainmentInvariant:
    def test_avatars_stay_in_bounds_with_consistent_regions(self):
        world = World(GRID, 30, 3.0, RngStream(9, "movement"))
        for _ in range(200):
            for user in range(30):
                avatar = world.tick_avatar(user, 2.0)
                assert 0 <= avatar.x <= GRID.width
                assert 0 <= avatar.y <= GRID.height
                assert avatar.region == region_of((avatar.x, avatar.y), GRID)


def test_world_tick_equals_scalar_movement_tick():
    """The World path and the bare movement_tick op must agree draw for draw."""
    world = World(GRID, 1, 2.5, RngStream(21, "movement"))
    mirror_rng = RngStream(21, "movement")
    # replay the four construction draws (x, y, wx, wy)
    x, y, wx, wy = (mirror_rng.random() * 1000 for _ in range(4))
    mirror = Avatar(0, x, y, wx, wy, 2.5, region_of((x, y), GRID))
    for _ in range(500):
        world.tick_avatar(0, 3.0)
        movement_tick(mirror, 3.0, mirror_rng, GRID)
        real = world.avatars[0]
        assert (real.x, real.y, real.wx, real.wy) == (mirror.x, mirror.y, mirror.wx, mirror.wy)
        assert real.region == mirror.region


class TestMovementRounds:
    """The runner's round path against one tick_avatar call per firing."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), width=st.floats(1.0, 300.0),
           height=st.floats(1.0, 300.0), regions=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           cell_share=st.floats(0.05, 1.0), tick_ms=st.sampled_from([0.001, 0.25, 1000.0, 7.5]),
           seed=st.integers(0, 1_000))
    def test_rounds_equal_repeated_tick_avatar(self, data, n, width, height, regions,
                                               cell_share, tick_ms, seed):
        cell = cell_share * min(width, height)
        cfg = resolve_config({
            "world": {"width": width, "height": height, "regions_x": regions[0],
                      "regions_y": regions[1], "cell": cell, "proximity_radius": cell,
                      "movement_tick_ms": tick_ms},
            "workload": {"user_count": n, "message_rate_per_user_per_s": 0.0,
                         "tx_rate_per_user_per_s": 0.0},
            "experiment": {"horizon_ms": 0.0, "warmup_ms": 0.0},
        })
        runner = ScenarioRunner(cfg, Policy.FOG_EDGE, seed)
        world = runner.world
        mirror = World(runner.grid, n, 1.0, RngStream(seed, "movement"))
        dt_s = runner.dt_s
        # Speeds as a share of the width per tick: 0 stays put, above 1 arrives
        # on every tick and draws a fresh waypoint.
        shares = data.draw(st.lists(st.sampled_from([0.0, 0.01, 0.3, 1.5]),
                                    min_size=n, max_size=n), label="speed shares")
        for a, b, share in zip(world.avatars, mirror.avatars, shares):
            a.speed = b.speed = share * width / dt_s
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for k, j in data.draw(st.lists(pairs, max_size=n), label="colocate"):
            for w in (world, mirror):
                src, dst = w.avatars[j], w.avatars[k]
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
                mirror.tick_avatar(u, dt_s)
                created = (u * tick) // n + (r + 1) * tick
                expected += [(0, u, created, 0), (1, u, created, mirror.collision_candidates(u))]
            lo = hi
            assert self._state(world) == self._state(mirror)
            if hi % n == 0:
                assert world.rng._rng.getstate() == mirror.rng._rng.getstate()
        rows = [tuple(runner.pipeline._buffer[f] for f in range(i, i + 6))
                for i in range(0, len(runner.pipeline._buffer), 6)]
        assert [(kind, owner, created, cand) for _, kind, owner, created, _, cand in rows] \
            == expected

    @staticmethod
    def _state(world):
        return ([(a.x, a.y, a.wx, a.wy, a.region) for a in world.avatars],
                [[a.user for a in members] for members in world._members],
                world._cell_of, world._nbsum)

    def test_round_refuses_non_positive_dt(self):
        with pytest.raises(SimulationError):
            World(GRID, 3, 1.0, RngStream(1, "movement")).next_round(0.0)
