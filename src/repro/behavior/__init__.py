"""Composable validator behavior policies (the adversary engine).

The package splits a validator into "what the protocol requires" (the
node and broadcast state machines) and "what this validator chooses to
do" (a :class:`BehaviorPolicy` governing parent selection, proposal
timing, per-recipient fan-out, ack participation, and fetch service).
:class:`HonestPolicy` is the default and is transparent — honest runs
are byte-identical to a build without the policy layer.  The adversarial
policies in :mod:`repro.behavior.adversarial` implement the curated
attacks the scenario registry exposes.
"""

from repro.lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "repro.behavior.adversarial": (
        "EquivocationPolicy",
        "LazyLeaderPolicy",
        "ReputationGamingPolicy",
        "SilentFanoutPolicy",
        "VoteWithholdingPolicy",
        "withhold_leader_parent",
    ),
    "repro.behavior.coordination": (
        "AdaptiveEquivocationPolicy",
        "AdaptiveSilentFanoutPolicy",
        "AdversaryCoordinator",
        "CoalitionGamingPolicy",
        "ColludingSilencePolicy",
        "CoordinatedPolicy",
    ),
    "repro.behavior.policy": ("HONEST", "BehaviorPolicy", "FanoutPlan", "FanoutSend", "HonestPolicy", "full_fanout"),
})

__all__ = [
    "BehaviorPolicy",
    "HonestPolicy",
    "HONEST",
    "FanoutPlan",
    "FanoutSend",
    "full_fanout",
    "VoteWithholdingPolicy",
    "EquivocationPolicy",
    "SilentFanoutPolicy",
    "LazyLeaderPolicy",
    "ReputationGamingPolicy",
    "withhold_leader_parent",
    "AdversaryCoordinator",
    "CoordinatedPolicy",
    "ColludingSilencePolicy",
    "AdaptiveSilentFanoutPolicy",
    "AdaptiveEquivocationPolicy",
    "CoalitionGamingPolicy",
]
