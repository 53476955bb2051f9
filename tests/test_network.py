"""Unit tests for the network fabric."""

import pytest

from repro.cluster.network import Network


def make_net(sim, latency=0.1, bandwidth=100.0):
    net = Network(sim, latency=latency, bandwidth=bandwidth)
    inboxes = {}
    for name in ("a", "b", "c"):
        inboxes[name] = []
        net.register(name, inboxes[name].append)
    return net, inboxes


class TestDelivery:
    def test_message_arrives_after_latency_plus_transmit(self, sim):
        net, inboxes = make_net(sim)  # latency .1, bw 100 B/s
        net.send("a", "b", "data", "hello", 50)
        sim.run()
        assert len(inboxes["b"]) == 1
        assert sim.now == pytest.approx(0.1 + 0.5)

    def test_payload_and_metadata_preserved(self, sim):
        net, inboxes = make_net(sim)
        net.send("a", "b", "stats", {"x": 1}, 10)
        sim.run()
        msg = inboxes["b"][0]
        assert msg.src == "a"
        assert msg.dst == "b"
        assert msg.kind == "stats"
        assert msg.payload == {"x": 1}
        assert msg.sent_at == 0.0

    def test_unknown_destination_rejected(self, sim):
        net, __ = make_net(sim)
        with pytest.raises(KeyError):
            net.send("a", "nope", "data", None, 1)

    def test_duplicate_endpoint_rejected(self, sim):
        net, __ = make_net(sim)
        with pytest.raises(ValueError):
            net.register("a", lambda m: None)

    def test_negative_size_rejected(self, sim):
        net, __ = make_net(sim)
        with pytest.raises(ValueError):
            net.send("a", "b", "data", None, -1)


class TestLinkSerialisation:
    def test_same_link_transfers_queue(self, sim):
        net, inboxes = make_net(sim)  # bw 100 B/s, latency .1
        net.send("a", "b", "data", 1, 100)  # occupies link 1s
        net.send("a", "b", "data", 2, 100)  # starts at t=1
        arrivals = []
        net._endpoints["b"] = lambda m: arrivals.append((m.payload, sim.now))
        sim.run()
        assert arrivals == [(1, pytest.approx(1.1)), (2, pytest.approx(2.1))]

    def test_fifo_order_preserved_even_with_small_followup(self, sim):
        # a small message sent after a big one must not overtake it
        net, __ = make_net(sim)
        arrivals = []
        net._endpoints["b"] = lambda m: arrivals.append(m.payload)
        net.send("a", "b", "data", "big", 1000)
        net.send("a", "b", "marker", "small", 1)
        sim.run()
        assert arrivals == ["big", "small"]

    def test_different_links_do_not_interfere(self, sim):
        net, __ = make_net(sim)
        arrivals = []
        net._endpoints["b"] = lambda m: arrivals.append(("b", sim.now))
        net._endpoints["c"] = lambda m: arrivals.append(("c", sim.now))
        net.send("a", "b", "data", None, 100)
        net.send("a", "c", "data", None, 100)
        sim.run()
        times = dict(arrivals)
        assert times["b"] == pytest.approx(times["c"])

    def test_reverse_direction_is_a_separate_link(self, sim):
        net, __ = make_net(sim)
        arrivals = []
        net._endpoints["a"] = lambda m: arrivals.append(("a", sim.now))
        net._endpoints["b"] = lambda m: arrivals.append(("b", sim.now))
        net.send("a", "b", "data", None, 100)
        net.send("b", "a", "data", None, 100)
        sim.run()
        times = dict(arrivals)
        assert times["a"] == pytest.approx(times["b"])


class TestStats:
    def test_control_vs_data_accounting(self, sim):
        net, __ = make_net(sim)
        net.send("a", "b", "stats", None, 10)
        net.send("a", "b", "tuple_batch", None, 500)
        sim.run()
        assert net.stats.messages == 2
        assert net.stats.bytes_sent == 510
        assert net.stats.control_messages == 1
        assert net.stats.control_bytes == 10

    def test_state_transfer_accounting(self, sim):
        net, __ = make_net(sim)
        net.send("a", "b", "state", None, 4000)
        sim.run()
        assert net.stats.state_transfer_bytes == 4000

    def test_transfer_duration_estimate(self, sim):
        net, __ = make_net(sim, latency=0.2, bandwidth=50.0)
        assert net.transfer_duration(100) == pytest.approx(0.2 + 2.0)

    def test_invalid_parameters_rejected(self, sim):
        with pytest.raises(ValueError):
            Network(sim, latency=-1)
        with pytest.raises(ValueError):
            Network(sim, bandwidth=0)
