"""Whisper: the paper's primary contribution.

Semantic Web services (WSDL-S annotated), SWS-proxies that semantically
discover b-peer groups on the JXTA-like network, b-peers with Bully-based
coordination and backend failover, and the whole-system builder that wires
clients → web server → service → proxy → P2P → b-peers → backends.
"""

from .autoscale import AutoscaleSpec, AutoscalingGroup, AutoscalePolicy
from .baselines import FailoverSoapClient, ReplicatedPlainService
from .bpeer import BPeer, ExecReply, ExecRequest
from .bpeer_group import BPeerGroup, deploy_bpeer_group, semantic_advertisement_for
from .breaker import BreakerSpec, CircuitBreaker
from .campaign import CampaignReport, FaultCampaign
from .config import ScenarioConfig
from .dispatch import (
    DispatchPolicy,
    LeastOutstandingDispatch,
    MemberLoad,
    QosWeightedDispatch,
    RoundRobinDispatch,
    dispatch_policy,
)
from .journal import DedupJournal, JournalEntry, JournalStats
from .errors import (
    AnnotationError,
    CircuitOpenError,
    InvocationFailedError,
    NoCoordinatorError,
    NoMatchingGroupError,
    UnsupportedScenarioError,
    WhisperError,
)
from .matching import GroupMatch, SemanticGroupMatcher, SyntacticGroupMatcher
from .proxy import ProxyStats, SwsProxy
from .rescache import ResultCacheSpec, SemanticResultCache
from .result import InvokeOutcome, InvokeResult
from .retry import Deadline, RetryPolicy
from .sws import SemanticWebService
from .system import DeployedService, WhisperSystem
from .webservice import PlainWebService, WhisperWebService

__all__ = [
    "AnnotationError",
    "AutoscalePolicy",
    "AutoscaleSpec",
    "AutoscalingGroup",
    "BPeer",
    "BPeerGroup",
    "BreakerSpec",
    "CircuitBreaker",
    "CircuitOpenError",
    "ResultCacheSpec",
    "SemanticResultCache",
    "CampaignReport",
    "Deadline",
    "DedupJournal",
    "DeployedService",
    "DispatchPolicy",
    "JournalEntry",
    "JournalStats",
    "FaultCampaign",
    "RetryPolicy",
    "ExecReply",
    "ExecRequest",
    "FailoverSoapClient",
    "InvokeOutcome",
    "InvokeResult",
    "LeastOutstandingDispatch",
    "MemberLoad",
    "QosWeightedDispatch",
    "ReplicatedPlainService",
    "RoundRobinDispatch",
    "GroupMatch",
    "InvocationFailedError",
    "NoCoordinatorError",
    "NoMatchingGroupError",
    "PlainWebService",
    "ProxyStats",
    "ScenarioConfig",
    "SemanticGroupMatcher",
    "SemanticWebService",
    "SwsProxy",
    "SyntacticGroupMatcher",
    "UnsupportedScenarioError",
    "WhisperError",
    "WhisperSystem",
    "WhisperWebService",
    "deploy_bpeer_group",
    "dispatch_policy",
    "semantic_advertisement_for",
]
