"""Lossy-link model: determinism, loss/duplication/delay behavior, and
delivery ordering."""

import pytest

from cfaudit.channel import Channel, ChannelConfig, Link


def drain(ch, until):
    got = []
    for t in range(until):
        got += [(t, m) for m in ch.poll(t)]
    return got


def test_lossless_channel_delivers_everything_in_order():
    ch = Channel(ChannelConfig(loss=0.0, duplicate=0.0, delay_min=1,
                               delay_max=1, seed=1), "up")
    for i in range(20):
        ch.send(i, bytes([i]))
    got = drain(ch, 40)
    assert [m for _, m in got] == [bytes([i]) for i in range(20)]
    assert all(t == i + 1 for (t, _), i in zip(got, range(20)))
    assert ch.stats.sent == 20 and ch.stats.delivered == 20
    assert ch.stats.dropped == 0


def test_an_ideal_link_draws_nothing_and_delivers_in_order():
    link = Link.create(ChannelConfig(seed=5))
    for ch in (link.to_device, link.to_verifier):
        assert ch.rng is None
        for i in range(10):
            ch.send(i // 3, bytes([i]))
        got = drain(ch, 10)
        assert got == [(i // 3, bytes([i])) for i in range(10)]
        assert ch.stats.sent == ch.stats.delivered == 10


def test_total_loss_is_rejected():
    # a link that never delivers breaks the retransmission liveness argument,
    # so the config refuses it outright
    with pytest.raises(ValueError):
        ChannelConfig(loss=1.0, seed=3)


def test_heavy_loss_drops_most_messages():
    ch = Channel(ChannelConfig(loss=0.9, seed=3), "up")
    for i in range(200):
        ch.send(i, b"x")
    delivered = len(drain(ch, 400))
    assert ch.stats.dropped + delivered == 200
    assert delivered < 50


def test_always_duplicate_doubles_traffic():
    ch = Channel(ChannelConfig(loss=0.0, duplicate=1.0, delay_min=0,
                               delay_max=0, seed=5), "up")
    ch.send(0, b"a")
    got = [m for _, m in drain(ch, 10)]
    assert got == [b"a", b"a"]
    assert ch.stats.duplicated == 1


def test_same_seed_same_label_replays_identically():
    def run():
        ch = Channel(ChannelConfig(loss=0.4, duplicate=0.2, delay_min=1,
                                   delay_max=6, seed=77), "up")
        for i in range(50):
            ch.send(2 * i, bytes([i]))
        return drain(ch, 200), (ch.stats.dropped, ch.stats.duplicated)
    a, b = run(), run()
    assert a == b


def test_different_labels_roll_independent_dice():
    cfg = ChannelConfig(loss=0.5, seed=9)
    a = Channel(cfg, "up")
    b = Channel(cfg, "down")
    for i in range(60):
        a.send(i, b"m")
        b.send(i, b"m")
    assert a.stats.dropped != b.stats.dropped


def test_delay_window_respected():
    ch = Channel(ChannelConfig(loss=0.0, delay_min=3, delay_max=7, seed=11), "up")
    for i in range(40):
        ch.send(100, b"z")
    got = drain(ch, 200)
    assert len(got) == 40
    assert all(103 <= t <= 107 for t, _ in got)


def test_poll_only_returns_messages_due_now():
    ch = Channel(ChannelConfig(loss=0.0, delay_min=5, delay_max=5, seed=2), "up")
    ch.send(0, b"later")
    assert ch.poll(4) == []
    assert ch.pending() == 1
    assert ch.poll(5) == [b"later"]
    assert ch.pending() == 0


def test_equal_delivery_times_keep_send_order():
    ch = Channel(ChannelConfig(loss=0.0, delay_min=2, delay_max=2, seed=4), "up")
    for i in range(10):
        ch.send(0, bytes([i]))
    assert ch.poll(2) == [bytes([i]) for i in range(10)]


def test_link_bundles_two_directions():
    link = Link.create(ChannelConfig(loss=0.0, delay_min=1, delay_max=1, seed=8))
    link.to_device.send(0, b"req")
    link.to_verifier.send(0, b"rep")
    assert link.to_device.poll(1) == [b"req"]
    assert link.to_verifier.poll(1) == [b"rep"]
