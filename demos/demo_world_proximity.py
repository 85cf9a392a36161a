"""
Avatars, regions and proximity
==============================

Avatars wander a 1000x1000 world under random-waypoint movement. A spatial
hash answers "who is near me" with a 3x3 cell scan; this demo cross-checks it
against the obvious O(n^2) filter and shows how collision-candidate counts
feed the collision-detection task length.
"""

import math

from metafog import RngStream, World, WorldGrid, region_of

grid = WorldGrid(width=1000.0, height=1000.0, regions_x=10, regions_y=10, cell=40.0)
world = World(grid, n_users=60, speed=1.5, rng=RngStream(7, "movement"))

# advance everyone a few simulated seconds: each round moves every avatar once,
# and rebucket keeps the spatial hash current when an avatar crosses a cell border
for _ in range(10):
    for avatar, x, y, region, cell in zip(world.avatars, *world.next_round(dt_s=1.0)):
        avatar.x, avatar.y, avatar.region = x, y, region
        world.rebucket(avatar, cell)

a = world.avatars[0]
print(f"avatar 0 at ({a.x:7.2f}, {a.y:7.2f}), region {a.region} "
      f"== region_of(pos): {region_of((a.x, a.y), grid)}")

radius = 30.0
fast = set(world.nearby_users(0, radius))
slow = {
    other.user for other in world.avatars
    if other.user != 0 and math.dist((a.x, a.y), (other.x, other.y)) <= radius
}
print(f"nearby within {radius}: spatial hash {sorted(fast)} | brute force {sorted(slow)}")
assert fast == slow

counts = [world.collision_candidates(u) for u in range(60)]
print(f"collision candidates: min {min(counts)}, max {max(counts)}, "
      f"mean {sum(counts) / len(counts):.2f}")
print("collision-detection task length = base_mi + per_neighbor_mi * candidates")
