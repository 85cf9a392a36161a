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

from .engine import (
    STREAM_SERVICE,
    STREAM_TRANSACTIONS,
    RngStream,
    ceil_div,
    ms_to_us,
)
from .errors import TopologyError


class Tier(IntEnum):
    END_DEVICE = 0
    FOG_SERVER = 1
    EDGE_SERVER = 2
    CLOUD_SERVER = 3


@dataclass(frozen=True)
class NetworkNode:
    id: str
    tier: Tier
    capacity_mips: int
    region: tuple[int, int] | None = None  # required for edge servers
    parent: str | None = None  # None only for the cloud


@dataclass(frozen=True)
class Link:
    child: str
    parent: str
    propagation_us: int
    bandwidth_mbps: int


class Topology:
    """A validated tree of nodes plus path/transfer helpers.

    Construction checks the full set of structural invariants and raises
    TopologyError naming the offending node: exactly one cloud root, every
    other node has exactly one parent link, parents sit exactly one tier up,
    every edge server carries a region, every region referenced by an edge
    has at least one edge server, capacities are positive.
    """

    def __init__(self, nodes: list[NetworkNode], links: list[Link]):
        by_id: dict[str, NetworkNode] = {}
        for n in nodes:
            if n.id in by_id:
                raise TopologyError(f"duplicate node id {n.id!r}")
            if n.capacity_mips <= 0:
                raise TopologyError(f"node {n.id!r}: capacity must be > 0")
            if n.tier == Tier.EDGE_SERVER and n.region is None:
                raise TopologyError(f"edge server {n.id!r} has no region")
            by_id[n.id] = n
        self.nodes_by_id = by_id

        clouds = [n for n in nodes if n.tier == Tier.CLOUD_SERVER]
        if len(clouds) != 1:
            raise TopologyError(f"expected exactly one cloud node, found {len(clouds)}")

        parent_link: dict[str, Link] = {}
        for link in links:
            if link.child not in by_id:
                raise TopologyError(f"link references unknown node {link.child!r}")
            if link.parent not in by_id:
                raise TopologyError(f"link references unknown node {link.parent!r}")
            if link.child in parent_link:
                raise TopologyError(f"node {link.child!r} has two parents")
            if link.propagation_us < 0 or link.bandwidth_mbps <= 0:
                raise TopologyError(
                    f"link {link.child!r}-{link.parent!r}: bad parameters"
                )
            if by_id[link.parent].tier != by_id[link.child].tier + 1:
                raise TopologyError(
                    f"link {link.child!r}-{link.parent!r} does not connect adjacent tiers"
                )
            parent_link[link.child] = link

        cloud = clouds[0]
        for n in nodes:
            if n.tier == Tier.CLOUD_SERVER:
                if n.parent is not None or n.id in parent_link:
                    raise TopologyError(f"cloud node {n.id!r} must have no parent")
                continue
            link = parent_link.get(n.id)
            if link is None:
                raise TopologyError(f"node {n.id!r} is an orphan (no parent link)")
            if n.parent is not None and n.parent != link.parent:
                raise TopologyError(
                    f"node {n.id!r}: parent field {n.parent!r} does not match link {link.parent!r}"
                )

        self.cloud_id = cloud.id
        self._parent_link = parent_link
        self.links = list(parent_link.values())

        # Ancestor chain (self first, cloud last) per node; doubles as the
        # cycle check since tiers strictly ascend.
        self._chain: dict[str, tuple[str, ...]] = {}
        for n in nodes:
            chain = [n.id]
            cur = n.id
            while cur != cloud.id:
                cur = parent_link[cur].parent
                chain.append(cur)
            self._chain[n.id] = tuple(chain)

        self.edges_by_region: dict[tuple[int, int], list[str]] = {}
        for n in nodes:
            if n.tier == Tier.EDGE_SERVER:
                self.edges_by_region.setdefault(n.region, []).append(n.id)
        for region in self.edges_by_region:
            self.edges_by_region[region].sort()

        self.node_ids = sorted(by_id)
        self.node_index = {node_id: i for i, node_id in enumerate(self.node_ids)}
        self._to_cloud: dict[int, np.ndarray] = {}

    def edge_of_region(self, region: tuple[int, int], owner: int = 0) -> str:
        """The edge server serving a region; owner spreads load when several exist."""
        edges = self.edges_by_region.get(region)
        if not edges:
            raise TopologyError(f"region {region} has no edge server")
        return edges[owner % len(edges)]

    def path(self, src: str, dst: str) -> tuple[Link, ...]:
        """Ordered links of the unique tree path; path(n, n) is empty."""
        up = self._chain.get(src)
        down = self._chain.get(dst)
        if up is None:
            raise TopologyError(f"unknown node id {src!r}")
        if down is None:
            raise TopologyError(f"unknown node id {dst!r}")
        down_set = set(down)
        lca = next(node_id for node_id in up if node_id in down_set)
        hops = []
        for node_id in up:
            if node_id == lca:
                break
            hops.append(self._parent_link[node_id])
        descend = []
        for node_id in down:
            if node_id == lca:
                break
            descend.append(self._parent_link[node_id])
        hops.extend(reversed(descend))
        return tuple(hops)

    def ancestors(self, node_id: str) -> tuple[str, ...]:
        """The node and every node above it, the cloud last."""
        return self._chain[node_id]

    def transfer_to_cloud_us(self, payload_bytes: int) -> np.ndarray:
        """transfer_time(payload_bytes, path(node, cloud)) of every node, indexed like node_ids.

        A node's cost is its uplink hop plus its parent's cost, filled a tier
        at a time from the cloud down.
        """
        cost = self._to_cloud.get(payload_bytes)
        if cost is None:
            nodes = [self.nodes_by_id[node_id] for node_id in self.node_ids]
            up = [self._parent_link.get(node_id) for node_id in self.node_ids]
            parent = np.array([self.node_index[link.parent] if link else 0 for link in up])
            tier = np.array([n.tier for n in nodes])
            bandwidth = np.array([link.bandwidth_mbps if link else 1 for link in up])
            cost = np.array([link.propagation_us if link else 0 for link in up], dtype=np.int64)
            cost += ceil_div(payload_bytes * 8, bandwidth)
            cost[tier == Tier.CLOUD_SERVER] = 0
            for t in (Tier.EDGE_SERVER, Tier.FOG_SERVER, Tier.END_DEVICE):
                at = tier == t
                cost[at] += cost[parent[at]]
            self._to_cloud[payload_bytes] = cost
        return cost


def transfer_time(payload_bytes: int, route: tuple[Link, ...] | list[Link]) -> int:
    """One-way transfer time in microseconds over an ordered list of links.

    Per link: propagation plus payload_bits / bandwidth, the division rounded
    up to the next microsecond (bits / Mbps is exactly microseconds). An empty
    route costs nothing.
    """
    bits = payload_bytes * 8
    total = 0
    for link in route:
        total += link.propagation_us
        if bits:
            total += ceil_div(bits, link.bandwidth_mbps)
    return total


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


def simulate_mm1(arrival_rate_per_ms: float, service_rate_per_ms: float,
                 n_tasks: int, seed: int) -> dict:
    """Drive one FIFO compute queue with Poisson arrivals and exponential service.

    This is the queueing-theory validation harness: n_tasks interarrival
    gaps and service times come from their own streams, the queue is
    resolved by the same fifo_completions the scenarios use, and the
    returned mean wait can be held against the analytic M/M/1 value
    rho / (mu - lambda).
    """
    arrivals = RngStream(seed, STREAM_TRANSACTIONS)
    services = RngStream(seed, STREAM_SERVICE)
    arrival = np.cumsum([arrivals.exponential_us(arrival_rate_per_ms) for _ in range(n_tasks)],
                        dtype=np.int64)
    service = np.array([services.exponential_us(service_rate_per_ms) for _ in range(n_tasks)],
                       dtype=np.int64)
    completion = fifo_completions(np.zeros(n_tasks, dtype=np.int64), arrival, service,
                                  np.zeros(1, dtype=np.int64))
    wait_sum = int((completion - service - arrival).sum())
    return {"tasks": n_tasks, "mean_wait_us": wait_sum / n_tasks}


def build_user_topology(
    user_regions: list[tuple[int, int]],
    all_regions: list[tuple[int, int]],
    topology_cfg: dict,
) -> tuple[Topology, list[str], list[str]]:
    """Build the scenario topology for a concrete user population.

    topology_cfg is the validated "topology" section of a config: per-tier
    capacities, per-hop links, edges_per_region and devices_per_fog. Every
    user u gets device dev-u under a fog in their starting region; fogs are
    created per region, devices_per_fog users each, and attach to the
    region's edge servers round-robin. Every region of the world grid gets
    its edge servers whether or not users start there.

    Returns (topology, device_id_per_user, home_fog_per_user).
    """
    edges_per_region = topology_cfg["edges_per_region"]
    devices_per_fog = topology_cfg["devices_per_fog"]
    device_mips, fog_mips, edge_mips, cloud_mips = (
        topology_cfg[f"{tier}_mips"] for tier in ("device", "fog", "edge", "cloud"))
    links_cfg = topology_cfg["links"]
    device_fog, fog_edge, edge_cloud = (
        (ms_to_us(links_cfg[hop]["propagation_ms"]), links_cfg[hop]["bandwidth_mbps"])
        for hop in ("device_fog", "fog_edge", "edge_cloud"))
    nodes = [NetworkNode("cloud", Tier.CLOUD_SERVER, cloud_mips)]
    links: list[Link] = []
    edge_ids: dict[tuple[int, int], list[str]] = {}
    for rx, ry in all_regions:
        ids = []
        for k in range(edges_per_region):
            edge_id = f"edge-{rx}-{ry}" if edges_per_region == 1 else f"edge-{rx}-{ry}-{k}"
            nodes.append(NetworkNode(edge_id, Tier.EDGE_SERVER, edge_mips, (rx, ry), "cloud"))
            links.append(Link(edge_id, "cloud", *edge_cloud))
            ids.append(edge_id)
        edge_ids[(rx, ry)] = ids

    users_in_region: dict[tuple[int, int], list[int]] = {}
    for user, region in enumerate(user_regions):
        users_in_region.setdefault(region, []).append(user)

    device_of_user = [""] * len(user_regions)
    fog_of_user = [""] * len(user_regions)
    for region in sorted(users_in_region):
        members = users_in_region[region]
        edges = edge_ids[region]
        n_fogs = ceil_div(len(members), devices_per_fog)
        for i in range(n_fogs):
            fog_id = f"fog-{region[0]}-{region[1]}-{i}"
            parent_edge = edges[i % len(edges)]
            nodes.append(NetworkNode(fog_id, Tier.FOG_SERVER, fog_mips, None, parent_edge))
            links.append(Link(fog_id, parent_edge, *fog_edge))
            for user in members[i * devices_per_fog:(i + 1) * devices_per_fog]:
                dev_id = f"dev-{user}"
                nodes.append(NetworkNode(dev_id, Tier.END_DEVICE, device_mips, None, fog_id))
                links.append(Link(dev_id, fog_id, *device_fog))
                device_of_user[user] = dev_id
                fog_of_user[user] = fog_id
    return Topology(nodes, links), device_of_user, fog_of_user
