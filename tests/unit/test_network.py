"""Unit tests for latency models, synchrony models, and the transport."""

import random

import pytest

from repro.committee.committee import DEFAULT_REGIONS
from repro.errors import NetworkError
from repro.network.latency import GeoLatencyModel
from repro.network.simulator import Simulator
from repro.network.synchrony import AlwaysSynchronous, PartialSynchrony
from repro.network.transport import Network
from repro.obs.trace import MemoryTracer
from repro.rbc.messages import ProposeMessage
from repro.types import Region
from tests.doubles import UniformLatencyModel


class TestUniformLatencyModel:
    def test_delay_close_to_base(self):
        model = UniformLatencyModel(base_delay=0.05, jitter=0.0)
        delay = model.one_way_delay(Region("a"), Region("b"), random.Random(0))
        assert delay == pytest.approx(0.05)

    def test_same_region_is_faster(self):
        model = UniformLatencyModel(base_delay=0.05, jitter=0.0)
        local = model.one_way_delay(Region("a"), Region("a"), random.Random(0))
        remote = model.one_way_delay(Region("a"), Region("b"), random.Random(0))
        assert local < remote

    def test_jitter_bounds(self):
        model = UniformLatencyModel(base_delay=0.05, jitter=0.01)
        rng = random.Random(1)
        for _ in range(100):
            delay = model.one_way_delay(Region("a"), Region("b"), rng)
            assert 0.04 <= delay <= 0.06

    def test_negative_delay_rejected(self):
        with pytest.raises(NetworkError):
            UniformLatencyModel(base_delay=-0.1)


class TestGeoLatencyModel:
    def test_intra_region_is_fast(self):
        model = GeoLatencyModel(jitter_fraction=0.0)
        region = Region("us-east-1")
        assert model.base_delay(region, region) < 0.02

    def test_transpacific_is_slow(self):
        model = GeoLatencyModel(jitter_fraction=0.0)
        delay = model.base_delay(Region("eu-west-1"), Region("ap-southeast-2"))
        assert delay > 0.10

    def test_all_paper_region_pairs_have_latencies(self):
        model = GeoLatencyModel(jitter_fraction=0.0)
        for source in DEFAULT_REGIONS:
            for destination in DEFAULT_REGIONS:
                delay = model.base_delay(Region(source), Region(destination))
                assert 0.0 < delay < 0.5

    def test_base_delay_is_deterministic(self):
        model_a = GeoLatencyModel(jitter_fraction=0.0)
        model_b = GeoLatencyModel(jitter_fraction=0.0)
        pair = (Region("us-east-1"), Region("ap-south-1"))
        assert model_a.base_delay(*pair) == model_b.base_delay(*pair)

    def test_unknown_region_gets_default_wan_delay(self):
        model = GeoLatencyModel(jitter_fraction=0.0)
        assert model.base_delay(Region("moon-base-1"), Region("us-east-1")) == pytest.approx(0.060)

    def test_extra_latency_degrades_region(self):
        slow = GeoLatencyModel(jitter_fraction=0.0, extra_latency={"us-east-1": 0.5})
        fast = GeoLatencyModel(jitter_fraction=0.0)
        rng = random.Random(0)
        pair = (Region("us-east-1"), Region("eu-west-1"))
        assert slow.one_way_delay(*pair, rng) > fast.one_way_delay(*pair, random.Random(0)) + 0.4

    def test_delay_is_never_negative(self):
        model = GeoLatencyModel(jitter_fraction=0.9)
        rng = random.Random(3)
        for _ in range(200):
            delay = model.one_way_delay(Region("eu-west-1"), Region("eu-west-2"), rng)
            assert delay > 0.0


class TestSynchronyModels:
    def test_always_synchronous_caps_at_delta(self):
        model = AlwaysSynchronous(delta=1.0)
        assert model.adjust_delay(0.0, 5.0, random.Random(0)) == 1.0
        assert model.adjust_delay(0.0, 0.5, random.Random(0)) == 0.5

    def test_partial_synchrony_respects_delta_after_gst(self):
        model = PartialSynchrony(gst=10.0, delta=1.0)
        rng = random.Random(0)
        assert model.adjust_delay(11.0, 5.0, rng) == 1.0
        assert model.adjust_delay(11.0, 0.2, rng) == 0.2

    def test_partial_synchrony_can_stretch_before_gst(self):
        model = PartialSynchrony(gst=10.0, delta=1.0, adversarial_probability=1.0)
        rng = random.Random(0)
        delays = [model.adjust_delay(0.0, 0.1, rng) for _ in range(50)]
        assert max(delays) > 0.1

    def test_pre_gst_messages_arrive_by_gst_plus_delta(self):
        model = PartialSynchrony(gst=10.0, delta=1.0, adversarial_probability=1.0)
        rng = random.Random(1)
        for send_time in (0.0, 3.0, 9.9):
            for _ in range(50):
                delay = model.adjust_delay(send_time, 0.1, rng)
                assert send_time + delay <= 10.0 + 1.0 + 1e-9

    def test_invalid_parameters_rejected(self):
        with pytest.raises(NetworkError):
            PartialSynchrony(gst=-1.0)
        with pytest.raises(NetworkError):
            PartialSynchrony(delta=0.0)
        with pytest.raises(NetworkError):
            AlwaysSynchronous(delta=0.0)
        with pytest.raises(NetworkError):
            PartialSynchrony(adversarial_probability=1.5)


class TestTransport:
    def _build(self, node_count=3, base_delay=0.01):
        simulator = Simulator(seed=1)
        network = Network(simulator, latency_model=UniformLatencyModel(base_delay, jitter=0.0))
        inboxes = {index: [] for index in range(node_count)}
        for index in range(node_count):
            network.register(
                index,
                Region(f"region-{index}"),
                lambda sender, message, index=index: inboxes[index].append((sender, message)),
            )
        return simulator, network, inboxes

    def test_send_delivers_to_recipient(self):
        simulator, network, inboxes = self._build()
        network.send(0, 1, "hello")
        simulator.run()
        assert inboxes[1] == [(0, "hello")]
        assert inboxes[2] == []

    def test_broadcast_delivers_to_everyone(self):
        simulator, network, inboxes = self._build()
        network.broadcast(0, "hi")
        simulator.run()
        assert all(inboxes[index] == [(0, "hi")] for index in inboxes)

    def test_broadcast_can_exclude_self(self):
        simulator, network, inboxes = self._build()
        network.broadcast(0, "hi", include_self=False)
        simulator.run()
        assert inboxes[0] == []
        assert inboxes[1] == [(0, "hi")]

    def test_crashed_sender_drops_messages(self):
        simulator, network, inboxes = self._build()
        network.set_crashed(0)
        network.send(0, 1, "lost")
        simulator.run()
        assert inboxes[1] == []
        assert network.stats.messages_dropped == 1

    def test_a_crashed_senders_broadcast_counts_every_recipient_as_dropped(self):
        simulator, network, inboxes = self._build()
        network.set_crashed(0)
        network.broadcast(0, "lost")
        simulator.run()
        assert all(inbox == [] for inbox in inboxes.values())
        assert network.stats.messages_sent == network.stats.messages_dropped == 3

    def test_crashed_recipient_drops_messages(self):
        simulator, network, inboxes = self._build()
        network.set_crashed(1)
        network.send(0, 1, "lost")
        simulator.run()
        assert inboxes[1] == []

    def test_crash_during_flight_drops_message(self):
        simulator, network, inboxes = self._build(base_delay=0.5)
        network.send(0, 1, "in flight")
        simulator.schedule(0.1, lambda: network.set_crashed(1))
        simulator.run()
        assert inboxes[1] == []

    def test_recovered_recipient_receives_again(self):
        simulator, network, inboxes = self._build()
        network.set_crashed(1)
        network.set_crashed(1, False)
        network.send(0, 1, "back")
        simulator.run()
        assert inboxes[1] == [(0, "back")]

    def test_unregistered_recipient_rejected(self):
        simulator, network, _ = self._build()
        with pytest.raises(NetworkError):
            network.send(0, 99, "x")

    def test_duplicate_registration_rejected(self):
        simulator, network, _ = self._build()
        with pytest.raises(NetworkError):
            network.register(0, Region("r"), lambda sender, message: None)

    def test_messages_are_counted(self):
        simulator, network, _ = self._build()
        network.send(0, 1, "a")
        network.broadcast(1, "b")
        simulator.run()
        assert network.stats.messages_sent == 4
        assert network.stats.messages_delivered == 4
        assert network.stats.broadcasts == 1

    def test_link_degradation_slows_delivery(self):
        simulator, network, inboxes = self._build()
        network.set_link_degradation(1, inbound_extra=0.5)
        network.send(0, 1, "slow")
        network.send(0, 2, "fast")
        simulator.run()
        # Both delivered, but the degraded node received later; verify via
        # the simulator clock having advanced past the degradation delay.
        assert simulator.now >= 0.5

    def test_delivery_takes_exactly_the_model_delay(self):
        simulator, network, arrivals = timed_cluster(UniformLatencyModel(0.25, jitter=0.0))
        network.send(0, 1, "timed")
        simulator.run()
        assert arrivals[1] == [(0.25, 0, "timed")]

    def test_link_degradation_adds_the_outbound_and_inbound_extras(self):
        simulator, network, arrivals = timed_cluster(UniformLatencyModel(0.01, jitter=0.0))
        network.set_link_degradation(0, outbound_extra=0.5)
        network.set_link_degradation(1, inbound_extra=0.25)
        network.send(0, 1, "both")
        network.send(0, 2, "outbound only")
        network.send(2, 1, "inbound only")
        simulator.run()
        assert [time for time, _, _ in arrivals[1]] == [pytest.approx(0.26), pytest.approx(0.76)]
        assert [time for time, _, _ in arrivals[2]] == [pytest.approx(0.51)]

    def test_negative_link_degradation_rejected(self):
        _, network, _ = self._build()
        with pytest.raises(NetworkError):
            network.set_link_degradation(0, inbound_extra=-0.1)
        with pytest.raises(NetworkError):
            network.set_link_degradation(0, outbound_extra=-0.1)

    def test_deliveries_and_timers_due_together_fire_in_push_order(self):
        simulator, network, _ = timed_cluster(UniformLatencyModel(1.0, jitter=0.0))
        order = []
        network.register(3, Region("region-3"), lambda sender, message: order.append(message))
        network.send(0, 3, "first delivery")
        simulator.schedule(1.0, lambda: order.append("timer"))
        network.send(1, 3, "second delivery")
        simulator.run()
        assert order == ["first delivery", "timer", "second delivery"]

    def test_a_broadcast_draws_the_delays_of_a_loop_of_sends(self):
        def arrivals_of(fan_out):
            simulator = Simulator(seed=7)
            network = Network(simulator, latency_model=GeoLatencyModel(jitter_fraction=0.2))
            arrivals = []
            for index, region in enumerate(DEFAULT_REGIONS[:5]):
                network.register(
                    index,
                    Region(region),
                    lambda sender, message, index=index: arrivals.append((simulator.now, index)),
                )
            fan_out(network)
            simulator.run()
            return arrivals

        def loop_of_sends(network):
            for recipient in range(5):
                network.send(2, recipient, "m")

        assert arrivals_of(lambda network: network.broadcast(2, "m")) == arrivals_of(loop_of_sends)


class TestPartitionAndDisturbance:
    def _build(self, node_count=4, base_delay=0.01):
        simulator = Simulator(seed=1)
        network = Network(simulator, latency_model=UniformLatencyModel(base_delay, jitter=0.0))
        inboxes = {index: [] for index in range(node_count)}
        for index in range(node_count):
            network.register(
                index,
                Region(f"region-{index}"),
                lambda sender, message, index=index: inboxes[index].append((sender, message)),
            )
        return simulator, network, inboxes

    def test_partition_drops_cross_group_messages(self):
        simulator, network, inboxes = self._build()
        network.set_partition([(0, 1), (2, 3)])
        network.send(0, 1, "same side")
        network.send(0, 2, "other side")
        simulator.run()
        assert inboxes[1] == [(0, "same side")]
        assert inboxes[2] == []
        assert network.stats.partition_drops == 1

    def test_unlisted_nodes_form_an_implicit_group(self):
        simulator, network, inboxes = self._build()
        network.set_partition([(0,)])
        network.send(2, 3, "both unlisted")
        network.send(2, 0, "into the island")
        simulator.run()
        assert inboxes[3] == [(2, "both unlisted")]
        assert inboxes[0] == []

    def test_clear_partition_restores_delivery(self):
        simulator, network, inboxes = self._build()
        network.set_partition([(0,), (1,)])
        network.clear_partition()
        network.send(0, 1, "healed")
        simulator.run()
        assert inboxes[1] == [(0, "healed")]

    def test_a_broadcast_across_a_partition_reaches_only_the_senders_group(self):
        simulator, network, inboxes = self._build()
        network.set_partition([(0, 1), (2, 3)])
        network.broadcast(1, "inside")
        simulator.run()
        assert [len(inboxes[index]) for index in range(4)] == [1, 1, 0, 0]
        assert network.stats.partition_drops == 2

    def test_partition_rejects_overlapping_groups(self):
        _, network, _ = self._build()
        with pytest.raises(NetworkError):
            network.set_partition([(0, 1), (1, 2)])

    def test_self_delivery_survives_partition(self):
        simulator, network, inboxes = self._build()
        network.set_partition([(0,), (1, 2, 3)])
        network.send(0, 0, "to self")
        simulator.run()
        assert inboxes[0] == [(0, "to self")]

    def test_loss_rate_drops_some_messages(self):
        simulator, network, inboxes = self._build()
        network.add_disturbance(loss_rate=0.5)
        for _ in range(100):
            network.send(0, 1, "maybe")
        simulator.run()
        assert 0 < len(inboxes[1]) < 100
        assert network.stats.loss_drops == 100 - len(inboxes[1])

    def test_loss_never_drops_self_delivery(self):
        simulator, network, inboxes = self._build()
        network.add_disturbance(loss_rate=0.9)
        for _ in range(50):
            network.send(1, 1, "local")
        simulator.run()
        assert len(inboxes[1]) == 50

    def test_jitter_stretches_delivery(self):
        simulator, network, _ = self._build(base_delay=0.01)
        network.add_disturbance(jitter=0.5)
        for _ in range(20):
            network.send(0, 1, "jittered")
        simulator.run()
        # With 0.5s of jitter at least one of 20 deliveries lands well
        # after the 0.01s base delay.
        assert simulator.now > 0.05

    def test_invalid_rates_rejected(self):
        _, network, _ = self._build()
        with pytest.raises(NetworkError):
            network.add_disturbance(loss_rate=1.0)
        with pytest.raises(NetworkError):
            network.add_disturbance(jitter=-0.1)


    def test_loss_drops_are_traced_against_the_newest_open_window(self):
        simulator, network, _ = self._build()
        tracer = MemoryTracer(clock=lambda: simulator.now)
        network.install_observability(tracer)
        first = network.add_disturbance(loss_rate=0.6)
        for _ in range(30):
            network.send(0, 1, "early")
        second = network.add_disturbance(loss_rate=0.6)
        for _ in range(30):
            network.send(0, 2, "late")
        network.set_partition([(0,), (1, 2, 3)])
        network.send(0, 3, "cut off")
        drops = [event for event in tracer.events if event["kind"] == "message_dropped"]
        windows = {event["destination"]: set() for event in drops}
        for event in drops:
            windows[event["destination"]].add(event.get("window"))
        assert windows == {1: {first}, 2: {second}, 3: {None}}
        assert [event["reason"] for event in drops if event["destination"] == 3] == ["partition"]

    def test_a_traced_drop_names_the_broadcast_it_carried(self):
        simulator, network, _ = self._build()
        tracer = MemoryTracer(clock=lambda: simulator.now)
        network.install_observability(tracer)
        network.set_partition([(0,), (1, 2, 3)])
        network.send(0, 1, ProposeMessage(origin=0, round=6, digest=b"d", payload="p"))
        network.send(0, 2, "no envelope")
        first, second = (event for event in tracer.events if event["kind"] == "message_dropped")
        assert (first["type"], first["origin"], first["round"]) == ("ProposeMessage", 0, 6)
        assert "origin" not in second and "round" not in second

    def test_overlapping_windows_take_the_larger_jitter(self):
        _, network, _ = self._build()
        small = network.add_disturbance(jitter=0.2)
        large = network.add_disturbance(jitter=0.5)
        assert network._jitter == 0.5
        network.remove_disturbance(large)
        assert network._jitter == 0.2
        network.remove_disturbance(small)
        assert network._jitter == 0.0

    def test_overlapping_losses_compose_as_independent_drops(self):
        _, network, _ = self._build()
        first = network.add_disturbance(loss_rate=0.5)
        network.add_disturbance(loss_rate=0.2)
        assert network._loss_rate == pytest.approx(1.0 - 0.5 * 0.8)
        network.remove_disturbance(first)
        assert network._loss_rate == pytest.approx(0.2)

    def test_closing_every_window_restores_a_clean_network(self):
        simulator, network, arrivals = timed_cluster(UniformLatencyModel(0.01, jitter=0.0))
        tokens = [network.add_disturbance(loss_rate=0.9), network.add_disturbance(jitter=0.5)]
        for token in tokens:
            network.remove_disturbance(token)
        for _ in range(50):
            network.send(0, 1, "clean")
        simulator.run()
        assert [time for time, _, _ in arrivals[1]] == [0.01] * 50
        assert network.stats.loss_drops == network.stats.messages_dropped == 0

    def test_closing_an_unknown_window_is_harmless(self):
        _, network, _ = self._build()
        token = network.add_disturbance(jitter=0.3, loss_rate=0.1)
        network.remove_disturbance(token + 1)
        network.remove_disturbance(token)
        network.remove_disturbance(token)
        assert (network._jitter, network._loss_rate) == (0.0, 0.0)

    def test_window_tokens_ascend_and_are_not_reused(self):
        _, network, _ = self._build()
        first = network.add_disturbance(jitter=0.1)
        network.remove_disturbance(first)
        second = network.add_disturbance(jitter=0.1)
        third = network.add_disturbance(loss_rate=0.1)
        assert first < second < third

    def test_window_jitter_never_delays_self_delivery(self):
        simulator, network, arrivals = timed_cluster(UniformLatencyModel(0.01, jitter=0.0))
        network.add_disturbance(jitter=5.0)
        for _ in range(20):
            network.send(1, 1, "local")
        simulator.run()
        assert {time for time, _, _ in arrivals[1]} == {0.0005}


def timed_cluster(latency_model, node_count=3):
    """A network of ``node_count`` nodes in distinct regions whose inboxes
    record ``(arrival time, sender, message)``."""
    simulator = Simulator(seed=1)
    network = Network(simulator, latency_model=latency_model)
    arrivals = {index: [] for index in range(node_count)}
    for index in range(node_count):
        network.register(
            index,
            Region(f"region-{index}"),
            lambda sender, message, index=index: arrivals[index].append((simulator.now, sender, message)),
        )
    return simulator, network, arrivals
