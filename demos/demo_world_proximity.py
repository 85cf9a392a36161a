"""
Avatars, regions and proximity
==============================

Avatars wander a 1000x1000 world under random-waypoint movement. A grid of
cells at least as large as the proximity radius answers "who is near me" with
a 3x3 cell scan; this demo cross-checks it against the obvious O(n^2) filter,
and every avatar's region against the region of its position.
A second grid, of world.cell cells, counts the avatars around each one: the
collision-candidate counts that feed the collision-detection task length.
"""

import math

from metafog import RngStream, World, WorldGrid

grid = WorldGrid(width=1000.0, height=1000.0, regions_x=10, regions_y=10, cell=40.0)
radius = 30.0
world = World(grid, n_users=60, speed=1.5, rng=RngStream(7, "movement"), radius=radius)

# advance everyone a few simulated seconds: next_round computes a round that
# moves every avatar once, and tick applies it, keeping each avatar's region
# and both grids current, and returns each avatar's collision-candidate count
for _ in range(10):
    world.next_round(dt_s=1.0)
    counts = world.tick(0, 60)


def region(x, y):
    """The index of the region a position lies in, rx * regions_y + ry.

    A border belongs to the higher region; the max edges of the world clamp
    into the last one.
    """
    rx = min(int(x / grid.region_width), grid.regions_x - 1)
    ry = min(int(y / grid.region_height), grid.regions_y - 1)
    return rx * grid.regions_y + ry


# every avatar's region is the one its position lies in
for avatar in world.avatars:
    assert avatar.region == region(avatar.x, avatar.y)
a = world.avatars[0]
print(f"avatar 0 at ({a.x:7.2f}, {a.y:7.2f}), region {a.region} "
      f"{divmod(a.region, grid.regions_y)}; "
      f"all {len(world.avatars)} avatars sit in the region of their position")


def brute_force(me):
    return {other.user for other in world.avatars
            if other is not me and math.dist((me.x, me.y), (other.x, other.y)) <= radius}


# every avatar's neighbours from the grid scan equal the O(n^2) filter
for avatar in world.avatars:
    assert set(world.nearby_users(avatar.user, radius)) == brute_force(avatar)
busiest = max(world.avatars, key=lambda a: len(brute_force(a)))
print(f"nearby within {radius} ({world.near_grid.side:.1f}-unit proximity cells): "
      f"avatar {busiest.user} sees {sorted(world.nearby_users(busiest.user, radius))}, "
      f"as brute force does")

# the counts the last tick returned, one per avatar
print(f"collision candidates: min {min(counts)}, max {max(counts)}, "
      f"mean {sum(counts) / len(counts):.2f}")
print("collision-detection task length = base_mi + per_neighbor_mi * candidates")
