"""Object-level reference for the topology and placement columns.

The package holds a topology as per-node columns and places tasks by table
lookup. This module keeps the object-level forms they replace, written link
by link: the tree as NetworkNode and Link objects, the scenario builder that
made them, the unique tree path between two nodes, the transfer time over a
route and the placement function. Tests hold the builder's columns and the
placement tables against them; path, transfer time and placement read a
built Topology node by node.
"""

from dataclasses import dataclass

from metafog.engine import ceil_div, ms_to_us
from metafog.errors import ConfigError
from metafog.infrastructure import Tier, Topology
from metafog.workload import AVATAR_KINDS, KIND_LABELS, REGION_KINDS, Policy, TaskKind


@dataclass(frozen=True)
class NetworkNode:
    id: str
    tier: Tier
    capacity_mips: int
    region: int | None = None  # the region index, required for edge servers
    parent: str | None = None  # None only for the cloud


@dataclass(frozen=True)
class Link:
    child: str
    parent: str
    propagation_us: int
    bandwidth_mbps: int


def reference_topology(user_regions: list[int], regions_x: int, regions_y: int,
                       topology_cfg: dict) -> tuple[list[NetworkNode], list[Link], list[str],
                                                    list[str]]:
    """The scenario tree as objects: (nodes, links, device_id_per_user, home_fog_per_user).

    Region (rx, ry) has index rx * regions_y + ry, and user_regions holds
    each user's region index. Every region gets its edge servers; users are
    grouped into fogs per region, in region order, and a region's fogs
    attach to its edges round-robin in the order the edges were created.
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
    edge_ids: dict[int, list[str]] = {}
    for region in range(regions_x * regions_y):
        rx, ry = divmod(region, regions_y)
        ids = []
        for k in range(edges_per_region):
            edge_id = f"edge-{rx}-{ry}" if edges_per_region == 1 else f"edge-{rx}-{ry}-{k}"
            nodes.append(NetworkNode(edge_id, Tier.EDGE_SERVER, edge_mips, region, "cloud"))
            links.append(Link(edge_id, "cloud", *edge_cloud))
            ids.append(edge_id)
        edge_ids[region] = ids

    users_in_region: dict[int, list[int]] = {}
    for user, region in enumerate(user_regions):
        users_in_region.setdefault(region, []).append(user)

    device_of_user = [""] * len(user_regions)
    fog_of_user = [""] * len(user_regions)
    for region in sorted(users_in_region):
        members = users_in_region[region]
        edges = edge_ids[region]
        rx, ry = divmod(region, regions_y)
        for i in range(ceil_div(len(members), devices_per_fog)):
            fog_id = f"fog-{rx}-{ry}-{i}"
            parent_edge = edges[i % len(edges)]
            nodes.append(NetworkNode(fog_id, Tier.FOG_SERVER, fog_mips, None, parent_edge))
            links.append(Link(fog_id, parent_edge, *fog_edge))
            for user in members[i * devices_per_fog:(i + 1) * devices_per_fog]:
                dev_id = f"dev-{user}"
                nodes.append(NetworkNode(dev_id, Tier.END_DEVICE, device_mips, None, fog_id))
                links.append(Link(dev_id, fog_id, *device_fog))
                device_of_user[user] = dev_id
                fog_of_user[user] = fog_id
    return nodes, links, device_of_user, fog_of_user


def nodes_by_id(topo: Topology) -> dict[str, NetworkNode]:
    """Every node of a topology as a NetworkNode, by id."""
    region_by_edge = {edge: region for region, edges in enumerate(topo.edges.tolist())
                      for edge in edges}
    return {node_id: NetworkNode(node_id, Tier(int(topo.tier[i])), int(topo.capacity[i]),
                                 region_by_edge.get(i),
                                 None if i == topo.cloud else topo.node_ids[topo.parent[i]])
            for i, node_id in enumerate(topo.node_ids)}


def home_fogs(topo: Topology) -> list[str]:
    """Each user's home fog id: the parent of its device."""
    return [topo.node_ids[topo.parent[device]] for device in topo.device]


def uplink(topo: Topology, i: int) -> Link:
    """The link from node i to its parent."""
    return Link(topo.node_ids[i], topo.node_ids[topo.parent[i]], int(topo.uplink_us[i]),
                int(topo.uplink_mbps[i]))


def links(topo: Topology) -> list[Link]:
    """Every link of a topology, one per node but the cloud."""
    return [uplink(topo, i) for i in range(len(topo.node_ids)) if i != topo.cloud]


def _chain(topo: Topology, node_id: str) -> list[int]:
    """The node's index and those of every node above it, the cloud last."""
    index = {n: i for i, n in enumerate(topo.node_ids)}
    if node_id not in index:
        raise ValueError(f"unknown node id {node_id!r}")
    chain = [index[node_id]]
    while chain[-1] != topo.cloud:
        chain.append(int(topo.parent[chain[-1]]))
    return chain


def path(topo: Topology, src: str, dst: str) -> tuple[Link, ...]:
    """Ordered links of the unique tree path; path(n, n) is empty."""
    up, down = _chain(topo, src), _chain(topo, dst)
    lca = next(i for i in up if i in down)
    ascend = [uplink(topo, i) for i in up[:up.index(lca)]]
    descend = [uplink(topo, i) for i in down[:down.index(lca)]]
    return tuple(ascend + descend[::-1])


def transfer_time(payload_bytes: int, route) -> int:
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


def place(kind: TaskKind, policy: Policy, topo: Topology, home_fog: str | None = None,
          region: int | None = None, owner: int = 0) -> str:
    """Node that executes a task of this kind under the given policy.

    home_fog is the owner's home fog id, required under FogEdge for avatar
    tasks. Region-bound kinds use an edge server of region, the index of the
    owner's region when the task was created; owner spreads them round-robin
    in id order when it has several.
    """
    cloud_id = topo.node_ids[topo.cloud]
    if policy is Policy.CLOUD_ONLY:
        return cloud_id
    if kind in AVATAR_KINDS:
        if home_fog is None:
            raise ConfigError(f"{KIND_LABELS[kind]} task of owner {owner} has no home fog")
        return home_fog
    if kind in REGION_KINDS:
        if region is None:
            raise ConfigError(f"{KIND_LABELS[kind]} task carries no region")
        edges = sorted(n.id for n in nodes_by_id(topo).values() if n.region == region)
        return edges[owner % len(edges)]
    return cloud_id  # universe simulation
