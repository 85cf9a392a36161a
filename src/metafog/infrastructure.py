"""Tiered network topology and the latency machinery built on it.

The network is a strict tree: end devices attach to fog servers, fog servers
to regional edge servers, edge servers to a single cloud. Each parent-child
pair carries one link with a one-way propagation delay and a bandwidth; every
route is the unique tree path between two nodes. Compute nodes serve tasks
from an unbounded FIFO queue, run-to-completion, so congestion shows up as
waiting time rather than loss.
"""

from __future__ import annotations

from functools import cached_property
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .engine import ceil_div, ms_to_us
from .errors import TopologyError


class Tier(IntEnum):
    END_DEVICE = 0
    FOG_SERVER = 1
    EDGE_SERVER = 2
    CLOUD_SERVER = 3


class Topology:
    """A validated tree, held as per-node columns indexed like node_ids.

    node_ids is sorted. The int64 columns are, per node: tier; parent, the
    index of its parent, the cloud being its own parent; capacity in MIPS;
    and uplink_us and uplink_mbps, the propagation delay and bandwidth of the
    link to its parent, 0 at the cloud. edges_by_region maps a region to the
    indexes of its edge servers in ascending order, which is the order of
    their ids as strings. cloud is the cloud's index and cloud_id its id.

    Topology(ids, tier, parent, capacity, uplink_us, uplink_mbps, region)
    takes the columns in any node order: parent indexes that order, -1 for
    none, and region is each edge server's region and None at other nodes.
    It checks them and raises TopologyError naming the offending node: ids
    are unique, capacities positive, there is exactly one cloud, it has no
    parent and every other node has one, one tier up, over a link with a
    delay >= 0 and a bandwidth > 0, and every edge server carries a region.
    """

    def __init__(self, ids: list[str], tier, parent, capacity, uplink_us, uplink_mbps,
                 region: list):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        self.node_ids = node_ids = [ids[i] for i in order]
        if len(set(node_ids)) < len(node_ids):
            twice = next(a for a, b in zip(node_ids, node_ids[1:]) if a == b)
            raise TopologyError(f"duplicate node id {twice!r}")
        order = np.array(order, dtype=np.int64)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        tier, parent, capacity, uplink_us, uplink_mbps = (
            np.asarray(column, dtype=np.int64).take(order)
            for column in (tier, parent, capacity, uplink_us, uplink_mbps))
        parent = np.where(parent < 0, -1, rank.take(parent))
        if (i := _first(capacity <= 0)) is not None:
            raise TopologyError(f"node {node_ids[i]!r}: capacity must be > 0")
        clouds = np.flatnonzero(tier == Tier.CLOUD_SERVER)
        if clouds.size != 1:
            raise TopologyError(f"expected exactly one cloud node, found {clouds.size}")
        cloud = int(clouds[0])
        if parent[cloud] >= 0:
            raise TopologyError(f"cloud node {node_ids[cloud]!r} must have no parent")
        parent[cloud] = cloud
        if (i := _first(parent < 0)) is not None:
            raise TopologyError(f"node {node_ids[i]!r} is an orphan (no parent link)")
        for bad, message in (((uplink_us < 0) | (uplink_mbps <= 0), "bad parameters"),
                             (tier.take(parent) != tier + 1, "does not connect adjacent tiers")):
            bad[cloud] = False
            if (i := _first(bad)) is not None:
                raise TopologyError(f"link {node_ids[i]!r}-{node_ids[parent[i]]!r}: {message}")
        self.edges_by_region: dict[tuple[int, int], list[int]] = {}
        edges = np.flatnonzero(tier == Tier.EDGE_SERVER)
        for i, at in zip(edges.tolist(), order.take(edges).tolist()):
            if region[at] is None:
                raise TopologyError(f"edge server {node_ids[i]!r} has no region")
            self.edges_by_region.setdefault(region[at], []).append(i)
        self.tier, self.parent, self.capacity = tier, parent, capacity
        self.uplink_us, self.uplink_mbps = uplink_us, uplink_mbps
        self.cloud, self.cloud_id = cloud, node_ids[cloud]
        self._to_cloud: dict[int, np.ndarray] = {}

    @cached_property
    def node_index(self) -> dict[str, int]:
        """The index of each node id, built on first use."""
        return {node_id: i for i, node_id in enumerate(self.node_ids)}

    def edge_of_region(self, region: tuple[int, int], owner: int = 0) -> int:
        """Index of the edge server serving a region; owner spreads load when several exist."""
        edges = self.edges_by_region.get(region)
        if not edges:
            raise TopologyError(f"region {region} has no edge server")
        return edges[owner % len(edges)]

    def transfer_to_cloud_us(self, payload_bytes: int) -> np.ndarray:
        """One-way transfer time of every node's path to the cloud, indexed like node_ids.

        Per hop: propagation plus payload_bits / bandwidth, the division
        rounded up to the next microsecond (bits / Mbps is exactly
        microseconds). The cloud's hop is free and it is its own parent, and
        no node is more than three hops below it, so a node's cost is its
        hop, its parent's and its grandparent's.
        """
        cost = self._to_cloud.get(payload_bytes)
        if cost is None:
            hop = self.uplink_us + ceil_div(payload_bytes * 8, np.maximum(self.uplink_mbps, 1))
            hop[self.cloud] = 0
            up = self.parent
            cost = self._to_cloud[payload_bytes] = hop + hop.take(up) + hop.take(up.take(up))
        return cost


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry, None if there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def service_time_us(length_mi, capacity_mips):
    """Service time of a task on a node: length / capacity, rounded up to 1 us.

    Lengths and capacities are integers, or int64 arrays of them element-wise.
    """
    return ceil_div(length_mi * 1_000_000, capacity_mips)


def fifo_completions(server: np.ndarray, arrival: np.ndarray, service: np.ndarray,
                     busy_until: np.ndarray) -> np.ndarray:
    """Completion times at non-preemptive FIFO servers, by Lindley's recurrence.

    Tasks come grouped by server and, within a server, in the order it serves
    them. Task i completes at C_i = max(A_i, C_{i-1}) + S_i: it starts when
    it has arrived and the task before it is done, then runs to completion.
    A server's first task here follows busy_until[server], the completion of
    its last earlier task, and busy_until is advanced in place, so calls over
    consecutive batches compose exactly.

    The recurrence is evaluated in its max-plus form,
    C_i = P_i + max_{j <= i}(A_j - P_{j-1}) with P the running service sum,
    as one running maximum over all servers, each server's terms lifted
    above the previous server's so that the maximum restarts per server.
    """
    n = server.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(server[1:], server[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    before = np.cumsum(service) - service  # service of earlier tasks ...
    before -= before[starts][group]  # ... of the same server
    lead = arrival - before
    lead[starts] = np.maximum(arrival[starts], busy_until[server[starts]])
    low = int(lead.min())
    span = int(lead.max()) - low + 1
    if span * starts.size >= 1 << 63:
        raise OverflowError("FIFO batch spans too long a time to resolve in int64")
    lift = group * span
    completion = np.maximum.accumulate(lead - low + lift) - lift + low + before + service
    last = np.append(starts[1:], n) - 1
    busy_until[server[last]] = completion[last]
    return completion


class LatencyRecord(NamedTuple):
    """End-to-end latency of one task, decomposed into its four components."""

    task_id: int
    kind: int
    owner: int
    policy: str
    placed_on: str
    created_us: int
    uplink_us: int
    wait_us: int
    service_us: int
    downlink_us: int
    total_us: int


def build_user_topology(
    user_regions: list[int],
    all_regions: list[tuple[int, int]],
    topology_cfg: dict,
) -> tuple[Topology, list[str], list[str]]:
    """Build the scenario topology for a concrete user population.

    topology_cfg is the validated "topology" section of a config: per-tier
    capacities, per-hop links, edges_per_region and devices_per_fog.
    user_regions holds each user's starting region as an index into
    all_regions, which names the regions. Every user u gets device dev-u
    under a fog in their starting region; fogs are created per region,
    devices_per_fog users each, and attach to the region's edge servers
    round-robin in the order they were created. Every region of the world
    grid gets its edge servers whether or not users start there. The nodes
    are rows of columns, filled tier by tier from the config.

    Returns (topology, device_id_per_user, home_fog_per_user).
    """
    edges_per_region = topology_cfg["edges_per_region"]
    devices_per_fog = topology_cfg["devices_per_fog"]
    # Per tier, indexed by Tier: capacity, and the delay and bandwidth of the uplink.
    mips = np.array([topology_cfg[f"{t}_mips"] for t in ("device", "fog", "edge", "cloud")])
    hops = [topology_cfg["links"][hop] for hop in ("device_fog", "fog_edge", "edge_cloud")]
    delay = np.array([*(ms_to_us(hop["propagation_ms"]) for hop in hops), 0])
    mbps = np.array([*(hop["bandwidth_mbps"] for hop in hops), 0])

    # Rows: the cloud; each region's edges, regions in all_regions order; the
    # fogs, region by region in sorted region order; one device per user.
    n_edges = len(all_regions) * edges_per_region
    if edges_per_region == 1:
        edge_ids = [f"edge-{rx}-{ry}" for rx, ry in all_regions]
    else:
        edge_ids = [f"edge-{rx}-{ry}-{k}" for rx, ry in all_regions for k in range(edges_per_region)]
    by_rank = sorted(range(len(all_regions)), key=all_regions.__getitem__)
    rank = np.empty(len(all_regions), dtype=np.int64)
    rank[by_rank] = np.arange(len(all_regions))
    # home: each user's starting region, as its rank in sorted region order
    home = rank.take(np.array(user_regions, dtype=np.int64))
    # A region's members, in user order, fill its fogs devices_per_fog at a time.
    members = np.bincount(home, minlength=len(all_regions))
    grouped = np.argsort(home, kind="stable")
    seat = np.empty_like(home)  # a user's position among the members of its region
    seat[grouped] = np.arange(home.size) - (np.cumsum(members) - members).take(home.take(grouped))
    fogs = ceil_div(members, devices_per_fog)
    first_fog = np.cumsum(fogs) - fogs
    fog_of = first_fog.take(home) + seat // devices_per_fog
    fog_ids = [f"fog-{rx}-{ry}-{i}" for (rx, ry), count in
               zip(map(all_regions.__getitem__, by_rank), fogs.tolist()) for i in range(count)]
    # Fog i of a region attaches to the region's edge i mod edges_per_region.
    fog_rank = np.repeat(np.arange(len(all_regions)), fogs)
    fog_parent = (1 + np.array(by_rank, dtype=np.int64).take(fog_rank) * edges_per_region
                  + (np.arange(len(fog_ids)) - first_fog.take(fog_rank)) % edges_per_region)
    device_ids = [f"dev-{user}" for user in range(len(user_regions))]

    tier = np.repeat([Tier.CLOUD_SERVER, Tier.EDGE_SERVER, Tier.FOG_SERVER, Tier.END_DEVICE],
                     [1, n_edges, len(fog_ids), len(device_ids)])
    parent = np.concatenate([[-1], np.zeros(n_edges, dtype=np.int64), fog_parent,
                             1 + n_edges + fog_of])
    region = [None, *(r for r in all_regions for _ in range(edges_per_region)),
              *[None] * (len(fog_ids) + len(device_ids))]
    topo = Topology(["cloud", *edge_ids, *fog_ids, *device_ids], tier, parent, mips.take(tier),
                    delay.take(tier), mbps.take(tier), region)
    return topo, device_ids, list(map(fog_ids.__getitem__, fog_of.tolist()))
