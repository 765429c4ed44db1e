"""Application communities: distributed learning and patch distribution."""

from repro.community.manager import (
    CommunityEnvironment,
    CommunityManager,
    DistributedLearningReport,
)
from repro.community.members import MemberFailure
from repro.community.node import CommunityNode, NodeStats
from repro.community.remote import (
    ChannelMember,
    ChannelTransport,
    DroppedMember,
    FramedChannel,
    LoopbackTransport,
    SocketTransport,
    connect_member,
    run_member,
)
from repro.community.sharding import ProcessTransport
from repro.community.strategies import (
    overlapping_assignments,
    partition_random,
    partition_round_robin,
)
from repro.community.transport import Message, MessageBus

__all__ = [
    "CommunityEnvironment", "CommunityManager",
    "DistributedLearningReport", "CommunityNode", "NodeStats",
    "MemberFailure", "DroppedMember", "ChannelMember", "ChannelTransport",
    "FramedChannel", "LoopbackTransport", "ProcessTransport",
    "SocketTransport", "connect_member", "run_member",
    "overlapping_assignments", "partition_random",
    "partition_round_robin", "Message", "MessageBus",
]
