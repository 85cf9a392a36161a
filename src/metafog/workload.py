"""Metaverse task taxonomy and the placement policies under comparison.

Placement is a pure function: given a task's kind, its owner's region index
at creation time, the owner's device row in the topology and the active
policy, it always returns the same node. CloudOnly sends everything to the
cloud; FogEdge keeps avatar tasks at the owner's home fog, social and
transaction-validation tasks at the edge server of the region where the
avatar currently is, and universe simulation at the cloud. A Placement
tabulates that choice, with the transfer and service times it implies, once
per topology and policy.
"""

from __future__ import annotations

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


KIND_LABELS = (  # indexed by TaskKind
    "spatial_navigation",
    "collision_detection",
    "social_interaction",
    "transaction_validation",
    "universe_simulation",
)
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


class Placement:
    """Server, transfers and service time of every task under one policy, as arrays.

    Built at set-up from the topology's columns; an owner's home fog and
    that fog's edge are its device's parent and grandparent. There is one
    server table for the avatar kinds, indexed by the owner: its home fog
    under FogEdge. One for the region-bound kinds, indexed by (region index,
    owner mod the edges of a region): under FogEdge, each region's edge
    servers round-robin in id order, the rows of topo.edges. And one entry,
    the cloud, for universe simulation. CloudOnly puts the cloud in every
    entry.

    Every server is on the owner's path to the cloud, or is an edge or the
    cloud, so a transfer is the difference of two per-node costs to the cloud
    when the server is above the owner, and their sum when the path runs
    through the cloud. Those costs are kept for every (kind, node) in one
    flat table per direction, entry kind * nodes + node. apply() maps
    buffered task columns to those values, with np.where for the table slot
    and take for every lookup.
    """

    def __init__(self, policy: Policy, topo: Topology, profiles: dict):
        self.policy = policy
        self.node_ids = topo.node_ids
        self.capacity = topo.capacity
        # Per owner: its device and the two nodes above it; the last entry
        # stands for SYSTEM_OWNER (index -1), whose tasks start at the cloud.
        self._device = np.append(topo.device, topo.cloud)
        self._above = topo.parent.take(self._device)
        self._above2 = topo.parent.take(self._above)
        self._k = topo.edges.shape[1]
        users, slots = topo.device.size, topo.edges.size
        if policy is Policy.FOG_EDGE:
            self._server = np.concatenate([self._above[:users], topo.edges.ravel(), [topo.cloud]])
        else:
            self._server = np.full(users + slots + 1, topo.cloud)
        self._scope = np.array([0 if k in AVATAR_KINDS else 1 if k in REGION_KINDS else 2
                                for k in TaskKind])
        self._offset = np.array([0, users, users + slots]).take(self._scope)
        labels = [profiles[label] for label in KIND_LABELS]
        payloads = {p[key] for p in labels for key in ("upload_bytes", "download_bytes")}
        to_cloud = {size: topo.transfer_to_cloud_us(size) for size in payloads}
        self._up, self._down = (np.concatenate([to_cloud[p[key]] for p in labels])
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
