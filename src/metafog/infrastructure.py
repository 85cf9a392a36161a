"""Tiered network topology and the latency machinery built on it.

The network is a strict tree: end devices attach to fog servers, fog servers
to regional edge servers, edge servers to a single cloud. Each parent-child
pair carries one link with a one-way propagation delay and a bandwidth; every
route is the unique tree path between two nodes. Compute nodes serve tasks
from an unbounded FIFO queue, run-to-completion, so congestion shows up as
waiting time rather than loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .engine import ceil_div, ms_to_us


class Tier(IntEnum):
    END_DEVICE = 0
    FOG_SERVER = 1
    EDGE_SERVER = 2
    CLOUD_SERVER = 3


@dataclass(eq=False)
class Topology:
    """The scenario tree: a plain record of per-node columns in the builder's row order.

    node_ids names each row. The int64 columns are, per node: tier; parent,
    the row of its parent, the cloud (row 0) being its own parent; capacity
    in MIPS; and uplink_us and uplink_mbps, the propagation delay and
    bandwidth of the link to its parent, 0 at the cloud. edges holds the
    edge rows of each region, (regions x edges_per_region), in the order of
    their ids as strings; device holds user u's device row. Nothing is
    cached on it: transfer_to_cloud_us computes its costs on every call.
    """

    node_ids: list[str]
    tier: np.ndarray
    parent: np.ndarray
    capacity: np.ndarray
    uplink_us: np.ndarray
    uplink_mbps: np.ndarray
    edges: np.ndarray
    device: np.ndarray
    cloud = 0

    def transfer_to_cloud_us(self, payload_bytes: int) -> np.ndarray:
        """One-way transfer time of every node's path to the cloud, indexed like node_ids.

        Per hop: propagation plus payload_bits / bandwidth, the division
        rounded up to the next microsecond (bits / Mbps is exactly
        microseconds). The cloud's hop is free and it is its own parent, and
        no node is more than three hops below it, so a node's cost is its
        hop, its parent's and its grandparent's.
        """
        hop = self.uplink_us + ceil_div(payload_bytes * 8, np.maximum(self.uplink_mbps, 1))
        hop[self.cloud] = 0
        up = self.parent
        return hop + hop.take(up) + hop.take(up.take(up))


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
    # No completion passes the latest lead plus all the service: bound that in
    # float, with a factor-2 margin, before an int64 sum can wrap.
    latest = max(arrival.max(), busy_until[server[starts]].max()) + service.sum(dtype=float)
    if latest >= 2.0 ** 62:
        raise OverflowError("FIFO batch completes past the int64 microsecond range")
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
    regions_x: int,
    regions_y: int,
    topology_cfg: dict,
) -> Topology:
    """Build the scenario topology for a concrete user population.

    topology_cfg is the validated "topology" section of a config: per-tier
    capacities, per-hop links, edges_per_region and devices_per_fog.
    user_regions holds each user's starting region (rx, ry) as its index
    rx * regions_y + ry. Every user u gets device dev-u under a fog in their
    starting region; fogs are created per region, devices_per_fog users
    each, and attach to the region's edge servers round-robin in the order
    they were created. Every region gets its edge servers whether or not
    users start there. The nodes are rows of columns, filled tier by tier
    from the config: the cloud, the edges, the fogs, regions in index order,
    and the devices, so user u's device is row 1 + edges + fogs + u. The
    config is trusted: the tree is well formed by construction.
    """
    edges_per_region = topology_cfg["edges_per_region"]
    devices_per_fog = topology_cfg["devices_per_fog"]
    # Per tier, indexed by Tier: capacity, and the delay and bandwidth of the uplink.
    mips = np.array([topology_cfg[f"{t}_mips"] for t in ("device", "fog", "edge", "cloud")])
    hops = [topology_cfg["links"][hop] for hop in ("device_fog", "fog_edge", "edge_cloud")]
    delay = np.array([*(ms_to_us(hop["propagation_ms"]) for hop in hops), 0])
    mbps = np.array([*(hop["bandwidth_mbps"] for hop in hops), 0])

    n_regions = regions_x * regions_y
    names = [f"{rx}-{ry}" for rx in range(regions_x) for ry in range(regions_y)]
    n_edges = n_regions * edges_per_region
    suffixes = [""] if edges_per_region == 1 else [f"-{k}" for k in range(edges_per_region)]
    edge_ids = [f"edge-{name}{suffix}" for name in names for suffix in suffixes]
    by_id = sorted(range(edges_per_region), key=suffixes.__getitem__)  # edge-0-0-10 < edge-0-0-2
    edges = 1 + np.arange(n_edges).reshape(n_regions, edges_per_region)[:, by_id]
    home = np.array(user_regions, dtype=np.int64)
    # A region's members, in user order, fill its fogs devices_per_fog at a time.
    members = np.bincount(home, minlength=n_regions)
    grouped = np.argsort(home, kind="stable")
    seat = np.empty_like(home)  # a user's position among the members of its region
    seat[grouped] = np.arange(home.size) - (np.cumsum(members) - members).take(home.take(grouped))
    fogs = ceil_div(members, devices_per_fog)
    first_fog = np.cumsum(fogs) - fogs
    fog_of = first_fog.take(home) + seat // devices_per_fog
    fog_ids = [f"fog-{name}-{i}" for name, count in zip(names, fogs.tolist())
               for i in range(count)]
    # Fog i of a region attaches to the region's edge i mod edges_per_region.
    fog_region = np.repeat(np.arange(n_regions), fogs)
    fog_parent = (1 + fog_region * edges_per_region
                  + (np.arange(len(fog_ids)) - first_fog.take(fog_region)) % edges_per_region)
    n_users = home.size

    tier = np.repeat([Tier.CLOUD_SERVER, Tier.EDGE_SERVER, Tier.FOG_SERVER, Tier.END_DEVICE],
                     [1, n_edges, len(fog_ids), n_users])
    parent = np.concatenate([np.zeros(1 + n_edges, dtype=np.int64), fog_parent,
                             1 + n_edges + fog_of])
    return Topology(["cloud", *edge_ids, *fog_ids, *(f"dev-{u}" for u in range(n_users))],
                    tier, parent, mips.take(tier), delay.take(tier), mbps.take(tier), edges,
                    1 + n_edges + len(fog_ids) + np.arange(n_users))
