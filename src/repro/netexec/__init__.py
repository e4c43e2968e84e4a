"""Real-network execution backend (asyncio sockets) with a sim oracle.

The package has two halves with very different determinism stories:

``codec`` and ``lockstep`` are **pure**: a canonical length-prefixed
wire codec for the existing message dataclasses, and a lockstep
execution mode whose committed order is a content-deterministic
function of the :class:`~repro.sim.experiment.ExperimentConfig` alone
(round advancement waits for every expected vertex; crashes are
plan-driven round decisions; blocks are plan-synthesized).  Lockstep
runs unchanged on the discrete-event simulator (``--backend lockstep``,
the oracle) and over real sockets (``--backend net``), and both must
commit byte-identical ordering digests.

``clock``, ``transport``, and ``runner`` are the **deployment-facing**
half: they read monotonic wall clocks and sockets by design, and no
module on the commit path imports them.  What keeps the split honest is
the oracle: a socket run's ordering digest must equal the lockstep
run's for the same spec and seed.

The asyncio imports stay lazy here so that importing pure pieces (the
codec property tests, the lockstep oracle) never drags event-loop
machinery into sim-only processes.
"""

from repro.netexec.codec import (
    CodecError,
    FrameError,
    MAX_FRAME_BYTES,
    decode,
    decode_frames,
    encode,
    encode_frame,
)
from repro.netexec.lockstep import (
    LockstepNode,
    LockstepPlan,
    LockstepSimulationRunner,
    plan_for_config,
    run_lockstep_experiment,
)

__all__ = [
    "CodecError",
    "FrameError",
    "MAX_FRAME_BYTES",
    "decode",
    "decode_frames",
    "encode",
    "encode_frame",
    "LockstepNode",
    "LockstepPlan",
    "LockstepSimulationRunner",
    "plan_for_config",
    "run_lockstep_experiment",
]
