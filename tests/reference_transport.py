"""Reference transport: the delay from its definition, a fan-out as n sends.

``repro.network.transport`` inlines the default latency and synchrony
models into its fan-out loop and hoists what the sender fixes.  This
module is what that loop must reproduce, written the slow and obvious
way: one message is one :meth:`ReferenceNetwork.send`, its delay is the
latency model's ``one_way_delay`` / ``local_delay`` plus link extras
and window jitter, passed through the synchrony model's
``adjust_delay``; ``broadcast`` is a loop of ``send`` over the registered
nodes in registration order.

Nothing is pushed on a simulator: a scheduled delivery is the plain tuple
``(time, sequence, recipient, sender, message)`` in ``scheduled``, and
:meth:`advance` fires the due ones in ``(time, sequence)`` order into
``delivered``.  The models and the RNG are passed in and used through
their public methods only.  Imports: the standard library.
"""

from __future__ import annotations


class ReferenceNetwork:
    def __init__(self, rng, latency_model, synchrony):
        self.rng = rng
        self.latency_model = latency_model
        self.synchrony = synchrony
        self.now = 0.0
        self.nodes = {}  # node id -> state, in registration order
        self.groups = None
        self.windows = {}  # token -> (jitter, loss rate)
        self.next_token = 0
        self.sequence = 0
        self.scheduled = []
        self.pending = []
        self.delivered = []
        self.stats = dict.fromkeys(
            (
                "messages_sent", "messages_delivered", "messages_dropped",
                "broadcasts", "partition_drops", "loss_drops",
            ),
            0,
        )

    # -- configuration ---------------------------------------------------------

    def register(self, node_id, region):
        self.nodes[node_id] = {
            "region": region, "crashed": False, "inbound": 0.0, "outbound": 0.0,
        }

    def set_crashed(self, node_id, crashed):
        self.nodes[node_id]["crashed"] = crashed

    def set_link_degradation(self, node_id, inbound_extra, outbound_extra):
        self.nodes[node_id]["inbound"] = inbound_extra
        self.nodes[node_id]["outbound"] = outbound_extra

    def set_partition(self, groups):
        self.groups = None if groups is None else {
            node_id: index for index, group in enumerate(groups) for node_id in group
        }

    def add_disturbance(self, jitter, loss_rate):
        token = self.next_token
        self.next_token += 1
        self.windows[token] = (jitter, loss_rate)
        return token

    def remove_disturbance(self, token):
        self.windows.pop(token, None)

    def window_jitter(self):
        return max([0.0] + [jitter for jitter, _loss in self.windows.values()])

    def loss_rate(self):
        keep = 1.0
        for token in sorted(self.windows):
            keep *= 1.0 - self.windows[token][1]
        return 1.0 - keep

    # -- sending -----------------------------------------------------------------

    def delay(self, sender, recipient):
        source, destination = self.nodes[sender], self.nodes[recipient]
        if sender == recipient:
            delay = self.latency_model.local_delay(self.rng)
        else:
            delay = self.latency_model.one_way_delay(
                source["region"], destination["region"], self.rng
            )
        delay += source["outbound"] + destination["inbound"]
        if sender != recipient and self.window_jitter() > 0.0:
            delay += self.rng.uniform(0.0, self.window_jitter())
        return max(0.0, self.synchrony.adjust_delay(self.now, delay, self.rng))

    def send(self, sender, recipient, message):
        stats = self.stats
        stats["messages_sent"] += 1
        if self.nodes[sender]["crashed"]:
            stats["messages_dropped"] += 1
            return
        if sender != recipient:
            groups = self.groups
            if groups is not None and groups.get(sender, -1) != groups.get(recipient, -1):
                stats["messages_dropped"] += 1
                stats["partition_drops"] += 1
                return
            loss_rate = self.loss_rate()
            if loss_rate > 0.0 and self.rng.random() < loss_rate:
                stats["messages_dropped"] += 1
                stats["loss_drops"] += 1
                return
        entry = (self.now + self.delay(sender, recipient), self.sequence, recipient, sender, message)
        self.sequence += 1
        self.scheduled.append(entry)
        self.pending.append(entry)

    def broadcast(self, sender, message, include_self=True):
        self.stats["broadcasts"] += 1
        for recipient in self.nodes:
            if include_self or recipient != sender:
                self.send(sender, recipient, message)

    # -- delivery ------------------------------------------------------------------

    def advance(self, until):
        """Fire every delivery due at or before ``until``; the clock ends there."""
        self.pending.sort()
        while self.pending and self.pending[0][0] <= until:
            time, _sequence, recipient, sender, message = self.pending.pop(0)
            if self.nodes[recipient]["crashed"]:
                self.stats["messages_dropped"] += 1
            else:
                self.stats["messages_delivered"] += 1
                self.delivered.append((time, recipient, sender, message))
        self.now = max(self.now, until)
