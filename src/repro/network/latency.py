"""Latency models for the simulated network.

The paper deploys validators over thirteen AWS regions; the dominant
performance effect of that topology is the wide spread of inter-region
round-trip times (a few milliseconds inside Europe, ~300 ms between
Europe and the Asia-Pacific regions).  :class:`GeoLatencyModel` encodes
representative one-way delays between those regions.  The numbers are
approximations of publicly reported inter-region RTTs; their exact values
do not matter for the reproduction, only their spread, which is what makes
"remote" leaders slower than well-connected ones (Section 5, claim C1).
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.errors import NetworkError
from repro.types import Region, SimTime

# Approximate one-way latencies (seconds) between region groups.  Regions
# are clustered into coarse geographic areas; latency between two regions
# is looked up by area pair and perturbed per region pair so that no two
# links are exactly identical.
_AREA_OF_REGION: Dict[str, str] = {
    "us-east-1": "us-east",
    "us-west-2": "us-west",
    "ca-central-1": "us-east",
    "eu-central-1": "eu",
    "eu-west-1": "eu",
    "eu-west-2": "eu",
    "eu-west-3": "eu",
    "eu-north-1": "eu",
    "ap-south-1": "ap-south",
    "ap-southeast-1": "ap-se",
    "ap-southeast-2": "ap-au",
    "ap-northeast-1": "ap-ne",
    "ap-northeast-2": "ap-ne",
}

# One-way base latency in seconds between geographic areas.
_AREA_LATENCY: Dict[Tuple[str, str], float] = {
    ("us-east", "us-east"): 0.004,
    ("us-east", "us-west"): 0.032,
    ("us-east", "eu"): 0.042,
    ("us-east", "ap-south"): 0.095,
    ("us-east", "ap-se"): 0.105,
    ("us-east", "ap-au"): 0.100,
    ("us-east", "ap-ne"): 0.080,
    ("us-west", "us-west"): 0.003,
    ("us-west", "eu"): 0.070,
    ("us-west", "ap-south"): 0.110,
    ("us-west", "ap-se"): 0.085,
    ("us-west", "ap-au"): 0.070,
    ("us-west", "ap-ne"): 0.055,
    ("eu", "eu"): 0.010,
    ("eu", "ap-south"): 0.060,
    ("eu", "ap-se"): 0.085,
    ("eu", "ap-au"): 0.140,
    ("eu", "ap-ne"): 0.115,
    ("ap-south", "ap-south"): 0.003,
    ("ap-south", "ap-se"): 0.030,
    ("ap-south", "ap-au"): 0.075,
    ("ap-south", "ap-ne"): 0.065,
    ("ap-se", "ap-se"): 0.003,
    ("ap-se", "ap-au"): 0.048,
    ("ap-se", "ap-ne"): 0.035,
    ("ap-au", "ap-au"): 0.003,
    ("ap-au", "ap-ne"): 0.055,
    ("ap-ne", "ap-ne"): 0.005,
}


def _area_pair_latency(area_a: str, area_b: str) -> float:
    key = (area_a, area_b)
    if key in _AREA_LATENCY:
        return _AREA_LATENCY[key]
    key = (area_b, area_a)
    if key in _AREA_LATENCY:
        return _AREA_LATENCY[key]
    raise NetworkError(f"no latency information between areas {area_a} and {area_b}")


class LatencyModel:
    """Interface of latency models: one-way delay between two regions."""

    #: ``one_way_delay(sender_region, recipient_region, rng)``.
    one_way_delay: Callable[[Region, Region, random.Random], SimTime]

    def local_delay(self, rng: random.Random) -> SimTime:
        """Delay of a loop-back message (a node sending to itself)."""
        return 0.0005


class GeoLatencyModel(LatencyModel):
    """Latency model following the paper's thirteen-region AWS topology."""

    def __init__(
        self,
        jitter_fraction: float = 0.10,
        extra_latency: Optional[Mapping[str, SimTime]] = None,
    ) -> None:
        """Create the model.

        ``jitter_fraction`` scales multiplicative jitter on every message.
        ``extra_latency`` optionally adds a fixed per-region penalty, which
        the fault-injection layer uses to model "degraded" validators such
        as the ones in the Sui incident described in the introduction.
        """
        if jitter_fraction < 0:
            raise NetworkError("jitter_fraction must be non-negative")
        self.jitter_fraction = jitter_fraction
        self.extra_latency = dict(extra_latency or {})
        # Per-pair base delays are pure functions of the region names;
        # memoized because one is computed per message sent.  The dynamic
        # ``extra_latency`` penalties are applied outside the cache.
        self._base_cache: Dict[Tuple[str, str], SimTime] = {}

    def base_delay(self, sender_region: Region, recipient_region: Region) -> SimTime:
        key = (sender_region.name, recipient_region.name)
        cached = self._base_cache.get(key)
        if cached is not None:
            return cached
        area_a = _AREA_OF_REGION.get(sender_region.name)
        area_b = _AREA_OF_REGION.get(recipient_region.name)
        if area_a is None or area_b is None:
            # Unknown (synthetic) regions fall back to a moderate WAN delay.
            base = 0.060
        else:
            base = _area_pair_latency(area_a, area_b)
            # Perturb deterministically per region pair so links are not all
            # identical inside an area pair.  A stable checksum is used
            # instead of ``hash`` so the value does not depend on
            # PYTHONHASHSEED.
            checksum = zlib.crc32(f"{sender_region.name}|{recipient_region.name}".encode("ascii"))
            base += (checksum % 7) * 0.001
        self._base_cache[key] = base
        return base

    def one_way_delay(
        self,
        sender_region: Region,
        recipient_region: Region,
        rng: random.Random,
    ) -> SimTime:
        cached = self._base_cache.get((sender_region.name, recipient_region.name))
        base = cached if cached is not None else self.base_delay(sender_region, recipient_region)
        extra = self.extra_latency
        if extra:
            base += extra.get(sender_region.name, 0.0)
            base += extra.get(recipient_region.name, 0.0)
        jitter = base * self.jitter_fraction
        # Inlined ``rng.uniform(-jitter, jitter)``: uniform(a, b) computes
        # ``a + (b - a) * random()`` with b - a = 2 * jitter exactly, so
        # the expression below is bit-identical while skipping the method
        # call (one draw per message sent).
        return max(0.0002, base + (jitter * 2.0 * rng.random() - jitter))
