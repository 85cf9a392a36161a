"""Metaverse task taxonomy and the placement policies under comparison.

Placement is a pure function: given a task's kind, its owner's region at
creation time, the owner's position in the topology tree and the active
policy, it always returns the same node. CloudOnly sends everything to the
cloud; FogEdge keeps avatar tasks at the owner's home fog, social and
transaction-validation tasks at the edge server of the region where the
avatar currently is, and universe simulation at the cloud. A Placement
tabulates place(), with the transfer and service times it implies, once per
topology and policy.
"""

from __future__ import annotations

import math
from enum import Enum, IntEnum

import numpy as np

from .errors import ConfigError
from .infrastructure import Topology, service_time_us

SYSTEM_OWNER = -1  # owner of world-level tasks (universe simulation)


class TaskKind(IntEnum):
    SPATIAL_NAVIGATION = 0
    COLLISION_DETECTION = 1
    SOCIAL_INTERACTION = 2
    TRANSACTION_VALIDATION = 3
    UNIVERSE_SIMULATION = 4


KIND_LABELS = {
    TaskKind.SPATIAL_NAVIGATION: "spatial_navigation",
    TaskKind.COLLISION_DETECTION: "collision_detection",
    TaskKind.SOCIAL_INTERACTION: "social_interaction",
    TaskKind.TRANSACTION_VALIDATION: "transaction_validation",
    TaskKind.UNIVERSE_SIMULATION: "universe_simulation",
}

KIND_LABEL_LIST = [KIND_LABELS[k] for k in TaskKind]
AVATAR_KINDS = (TaskKind.SPATIAL_NAVIGATION, TaskKind.COLLISION_DETECTION)  # at the home fog
REGION_KINDS = (TaskKind.SOCIAL_INTERACTION, TaskKind.TRANSACTION_VALIDATION)  # at a region edge


class Policy(str, Enum):
    CLOUD_ONLY = "cloudonly"
    FOG_EDGE = "fogedge"

    @staticmethod
    def parse(name: str) -> "Policy":
        lowered = name.strip().lower()
        if lowered in ("cloud", "cloudonly", "cloud-only"):
            return Policy.CLOUD_ONLY
        if lowered in ("fogedge", "fog-edge"):
            return Policy.FOG_EDGE
        raise ConfigError(f"unknown policy {name!r} (expected cloud or fogedge)")


def place(kind: TaskKind, policy: Policy, topo: Topology, home_fog: str | None = None,
          region: tuple[int, int] | None = None, owner: int = 0) -> str:
    """Node that executes a task of this kind under the given policy.

    home_fog is the owner's home fog id, required under FogEdge for avatar
    tasks. Region-bound kinds use an edge server of region, the owner's
    region when the task was created; owner spreads them when it has several.
    """
    if policy is Policy.CLOUD_ONLY:
        return topo.cloud_id
    if kind in AVATAR_KINDS:
        if home_fog is None:
            raise ConfigError(f"{KIND_LABELS[kind]} task of owner {owner} has no home fog")
        return home_fog
    if kind in REGION_KINDS:
        if region is None:
            raise ConfigError(f"{KIND_LABELS[kind]} task carries no region")
        return topo.edge_of_region(region, owner)
    return topo.cloud_id  # universe simulation


class Placement:
    """Server, transfers and service time of every task under one policy, as arrays.

    Built at set-up from place(): per kind, a server table indexed by the
    owner for avatar tasks, by (region, owner mod the edges of a region) for
    region-bound tasks, and one entry for universe simulation. Every server
    is on the owner's path to the cloud, or is an edge or the cloud, so a
    transfer is the difference of two per-node costs to the cloud when the
    server is above the owner, and their sum when the path runs through the
    cloud. Those costs are kept for every (kind, node) in one flat table per
    direction, entry kind * nodes + node. apply() maps buffered task columns
    to those values, with np.where for the table slot and take for every
    lookup; they equal place(), transfer_time over Topology.path and
    service_time_us task by task.
    """

    def __init__(self, policy: Policy, topo: Topology, profiles: dict,
                 device_of_user: list[str], home_fog_of_user: list[str],
                 regions: list[tuple[int, int]]):
        self.policy = policy
        self.node_ids = topo.node_ids
        index = topo.node_index
        self.capacity = np.array([topo.nodes_by_id[n].capacity_mips for n in topo.node_ids],
                                 dtype=np.int64)
        # Per owner: its device and the two nodes above it; the last entry
        # stands for SYSTEM_OWNER (index -1), whose tasks start at the cloud.
        chains = [topo.ancestors(d) for d in device_of_user] + [(topo.cloud_id,)]
        self._device, self._above, self._above2 = (
            np.array([index[chain[min(i, len(chain) - 1)]] for chain in chains])
            for i in (0, 1, 2))
        self._k = math.lcm(*map(len, topo.edges_by_region.values()))
        tables, offsets = [], []
        for kind in TaskKind:
            if kind in AVATAR_KINDS:
                by_fog = {f: place(kind, policy, topo, f) for f in dict.fromkeys(home_fog_of_user)}
                table = [by_fog[f] for f in home_fog_of_user]
            elif kind in REGION_KINDS:
                table = [place(kind, policy, topo, region=r, owner=j)
                         for r in regions for j in range(self._k)]
            else:
                table = [place(kind, policy, topo)]
            offsets.append(sum(map(len, tables)))
            tables.append([index[n] for n in table])
        self._server = np.array([i for table in tables for i in table])
        self._offset = np.array(offsets)
        self._scope = np.array([0 if k in AVATAR_KINDS else 1 if k in REGION_KINDS else 2
                                for k in TaskKind])
        labels = [profiles[KIND_LABELS[k]] for k in TaskKind]
        self._up, self._down = (
            np.concatenate([topo.transfer_to_cloud_us(p[key]) for p in labels])
            for key in ("upload_bytes", "download_bytes"))
        self._length = np.array([p.get("length_mi", p.get("base_length_mi")) for p in labels])
        self._per_candidate = np.array([p.get("per_neighbor_mi", 0) for p in labels])

    def apply(self, kind: np.ndarray, owner: np.ndarray, region: np.ndarray,
              candidates: np.ndarray) -> tuple[np.ndarray, ...]:
        """(server index, uplink, service, downlink) of each task, in microseconds."""
        scope, k = self._scope.take(kind), self._k
        slot = np.where(scope == 0, owner, np.where(scope == 1, region * k + owner % k, 0))
        server = self._server.take(self._offset.take(kind) + slot)
        sign = np.where((server == self._above.take(owner)) | (server == self._above2.take(owner)),
                        -1, 1)
        base = kind * len(self.node_ids)
        at_device = base + self._device.take(owner)
        at_server = base + server
        up = self._up.take(at_device) + sign * self._up.take(at_server)
        down = self._down.take(at_device) + sign * self._down.take(at_server)
        length = self._length.take(kind) + self._per_candidate.take(kind) * candidates
        return server, up, service_time_us(length, self.capacity.take(server)), down
