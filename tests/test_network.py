"""Observation graphs, distances, schedules, and the knowledge-replay oracle."""

import json
from dataclasses import replace

import numpy as np
import pytest

from ratebound import verification
from ratebound.network import (
    Network,
    _display,
    build_schedule,
    distances,
    is_strongly_connected,
    network_from_json,
    network_to_json,
    replay_knowledge,
    voting_periods,
)


# -- construction -------------------------------------------------------------


def test_network_normalizes_neighborhoods():
    net = Network(3, ((2, 0, 0), (1, 0), (2,)))
    assert net.neighborhoods == ((0, 2), (0, 1), (2,))


def test_network_requires_self_observation_and_valid_indices():
    with pytest.raises(ValueError):
        Network(2, ((0,), (0,)))
    with pytest.raises(ValueError):
        Network(2, ((0, 5), (1,)))
    with pytest.raises(ValueError):
        Network(0, ())
    with pytest.raises(ValueError):
        Network(2, ((0,),))
    with pytest.raises(ValueError, match="must observe herself"):
        Network(2, ((), (1,)))
    for hood in ((0, 1.7), (0, True), (0, "1")):
        with pytest.raises(ValueError, match="integer indices"):
            Network(2, (hood, (1,)))
    for n in (2.0, True):
        with pytest.raises(ValueError, match="positive integer"):
            Network(n, ((0,), (1,)))


def test_complete_and_cycle_generators():
    net = Network.complete(4)
    assert all(h == (0, 1, 2, 3) for h in net.neighborhoods)
    cycle = Network.directed_cycle(4)
    assert cycle.neighborhoods == ((0, 3), (0, 1), (1, 2), (2, 3))


def test_random_networks_are_seeded_connected_and_self_looped():
    a = Network.random_strongly_connected(8, 0.3, seed=4)
    b = Network.random_strongly_connected(8, 0.3, seed=4)
    assert a == b
    assert is_strongly_connected(a)
    assert all(i in a.neighborhoods[i] for i in range(8))
    c = Network.random_strongly_connected(8, 0.3, seed=5)
    assert a != c
    with pytest.raises(ValueError):
        Network.random_strongly_connected(4, 0.0, seed=0)


def _redrawn_network(n, edge_prob, seed):
    """The redraw loop that built and normalized a Network for every draw
    and kept the first strongly connected one, as a reference; distances
    raises on a network that is not strongly connected."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(3,))
    rng = np.random.Generator(np.random.Philox(ss))
    while True:
        adjacency = rng.random((n, n)) < edge_prob
        np.fill_diagonal(adjacency, True)
        net = Network(n, tuple(tuple(np.flatnonzero(adjacency[i])) for i in range(n)))
        try:
            distances(net)
        except ValueError:
            continue
        return net


def test_random_networks_keep_the_draws_of_the_redraw_loop():
    # The coverage check's 100 random networks, rebuilt the way
    # _coverage_networks draws their sizes and edge probabilities.
    rng = np.random.default_rng(verification._SEED)
    expected = []
    for trial in range(100):
        edge_prob = float(rng.uniform(0.15, 0.6))
        expected.append(_redrawn_network(3 + trial % 10, edge_prob, trial))
    nets = verification._coverage_networks()[3:]
    assert [net.neighborhoods for net in nets] == [
        net.neighborhoods for net in expected
    ]


def test_network_json_round_trip():
    net = Network.random_strongly_connected(5, 0.5, seed=1)
    assert network_from_json(network_to_json(net)) == net
    # numpy integers are stored as plain ints, which JSON can write
    numpy_net = Network(np.int64(2), ((np.int64(0), 1), (0, np.int32(1))))
    assert type(numpy_net.n) is int
    assert json.loads(json.dumps(network_to_json(numpy_net))) == {
        "n": 2, "neighborhoods": [[0, 1], [0, 1]]
    }
    with pytest.raises(ValueError):
        network_from_json({"n": 3})


# -- connectivity and distances --------------------------------------------------


def test_strong_connectivity_detection():
    assert is_strongly_connected(Network.directed_cycle(5))
    assert is_strongly_connected(Network.complete(3))
    # Agent 0 observes nobody else, so no information ever reaches her.
    assert not is_strongly_connected(Network(3, ((0,), (0, 1), (1, 2))))


def test_distances_count_observation_hops():
    cycle = Network.directed_cycle(5)
    dist = distances(cycle)
    for i in range(5):
        assert dist[i, i] == 0
        for k in range(1, 5):
            assert dist[i, (i - k) % 5] == k
    # one hop exactly to the agents one observes
    net = Network.random_strongly_connected(7, 0.3, seed=2)
    dist = distances(net)
    for i in range(7):
        for j in range(7):
            if i != j:
                assert (dist[i, j] == 1) == (j in net.neighborhoods[i])
    with pytest.raises(ValueError):
        distances(Network(3, ((0,), (0, 1), (1, 2))))


# -- schedules --------------------------------------------------------------------


def test_block_length_formula():
    for n in (3, 5, 9):
        schedule = build_schedule(Network.complete(n))
        assert schedule.M == 1 + n * (n - 2)
        assert schedule.relay_source.shape == (schedule.M - 1, n)
        assert schedule.relay_offset.shape == (schedule.M - 1, n)
        assert schedule.harvest.shape == (n, n - 1, 2)
    for n in (1, 2):
        schedule = build_schedule(Network.complete(n))
        assert schedule.M == 1
        assert schedule.relay_source.shape == (0, n)
        assert schedule.harvest.shape == (n, n - 1, 2)


def test_two_agent_schedule_harvests_the_neighbor_directly():
    schedule = build_schedule(Network.complete(2))
    assert schedule.harvest.tolist() == [[[1, 0]], [[0, 0]]]
    knowledge = replay_knowledge(Network.complete(2), schedule)
    assert knowledge == [{0, 1}, {0, 1}]


def test_voting_period_arithmetic():
    schedule = build_schedule(Network.directed_cycle(4))
    assert schedule.M == 9
    assert list(voting_periods(30, schedule.M)) == [1, 10, 19, 28]
    assert 1 in voting_periods(1, schedule.M)
    assert 2 not in voting_periods(2, schedule.M)
    assert 10 in voting_periods(10, schedule.M)
    assert 0 not in voting_periods(0, schedule.M)


def test_schedules_certify_full_knowledge_on_random_graphs():
    rng = np.random.default_rng(8)
    for trial in range(20):
        n = int(rng.integers(3, 13))
        net = Network.random_strongly_connected(
            n, float(rng.uniform(0.15, 0.6)), seed=trial + 100
        )
        knowledge = replay_knowledge(net, build_schedule(net))
        assert all(known == set(range(n)) for known in knowledge)


def test_schedules_certify_full_knowledge_at_large_n():
    nets = [Network.directed_cycle(100)] + [
        Network.random_strongly_connected(n, 0.08, seed=n) for n in (60, 70, 80)
    ]
    for net in nets:
        schedule = build_schedule(net)
        assert schedule.M == 1 + net.n * (net.n - 2)
        assert schedule.relay_source.shape == (schedule.M - 1, net.n)
        assert schedule.harvest.shape == (net.n, net.n - 1, 2)
        knowledge = replay_knowledge(net, schedule)
        assert all(known == set(range(net.n)) for known in knowledge)


def test_schedule_carriers_match_a_brute_force_search():
    # Round (j, k) sits at offset (j+1) + k*n. An agent at distance k+1 from
    # j relays j's vote from the lowest-indexed neighbor at distance k, read
    # at the offset where that neighbor showed it (j's own vote: offset 0);
    # everyone else repeats her own vote. Harvests use the same carriers.
    net = Network.random_strongly_connected(20, 0.12, seed=4)
    n = net.n
    dist = distances(net)
    assert dist.max() >= 4

    def carrier(i, j):
        return next(u for u in range(n)
                    if u in net.neighborhoods[i] and dist[u, j] == dist[i, j] - 1)

    def shown(u, j):
        return 0 if u == j else (j + 1) + (dist[u, j] - 1) * n

    schedule = build_schedule(net)
    ties = 0
    for offset in range(1, schedule.M):
        j, k = (offset - 1) % n, (offset - 1) // n
        for i in range(n):
            expected = (i, 0)
            if dist[i, j] == k + 1:
                u = carrier(i, j)
                expected = (u, shown(u, j))
                ties += sum(dist[v, j] == k for v in net.neighborhoods[i]) > 1
            got = (schedule.relay_source[offset - 1, i],
                   schedule.relay_offset[offset - 1, i])
            assert got == expected
    assert ties > 0
    for i in range(n):
        for m, j in enumerate(j for j in range(n) if j != i):
            u = carrier(i, j)
            assert tuple(schedule.harvest[i, m]) == (u, shown(u, j))


def test_pointer_doubled_display_equals_an_offset_by_offset_replay():
    # The check's 103 networks, then complete networks and directed cycles:
    # a cycle of n agents relays along chains n - 1 directives long.
    nets = [*verification._coverage_networks(),
            *(Network.complete(n) for n in range(2, 13)),
            *(Network.directed_cycle(n) for n in range(3, 13))]
    for net in nets:
        schedule = build_schedule(net)
        source, offset = schedule.relay_source, schedule.relay_offset
        expected = np.empty((schedule.M, net.n), dtype=np.intp)
        expected[0] = np.arange(net.n)
        for o in range(1, schedule.M):
            expected[o] = expected[offset[o - 1], source[o - 1]]
        np.testing.assert_array_equal(_display(source, offset), expected)


def test_schedule_arrays_are_read_only():
    schedule = build_schedule(Network.directed_cycle(4))
    for array in (schedule.relay_source, schedule.relay_offset, schedule.harvest):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1


def test_build_schedule_requires_strong_connectivity():
    with pytest.raises(ValueError):
        build_schedule(Network(3, ((0,), (0, 1), (1, 2))))


def _corrupted(schedule, name, index, value):
    array = getattr(schedule, name).copy()
    array[index] = value
    return replace(schedule, **{name: array})


def test_replay_rejects_imitating_an_unobserved_agent():
    cycle = Network.directed_cycle(3)
    # agent 2 does not observe agent 0, so this relay is illegal
    corrupted = _corrupted(build_schedule(cycle), "relay_source", (0, 2), 0)
    with pytest.raises(RuntimeError, match="imitate unobserved agent 0"):
        replay_knowledge(cycle, corrupted)


def test_replay_rejects_reading_the_future():
    cycle = Network.directed_cycle(3)
    corrupted = _corrupted(build_schedule(cycle), "relay_offset", (0, 0), 1)
    with pytest.raises(RuntimeError, match="future"):
        replay_knowledge(cycle, corrupted)


def test_replay_rejects_a_harvest_entry_that_lies():
    cycle = Network.directed_cycle(3)
    # agent 0 learns agent 1's vote from agent 2 at offset 2; agent 2 shows
    # her own vote at offset 0
    corrupted = _corrupted(build_schedule(cycle), "harvest", (0, 0, 1), 0)
    with pytest.raises(RuntimeError, match="expected agent 2 to show 1's vote"):
        replay_knowledge(cycle, corrupted)


def test_replay_rejects_a_harvest_from_an_unobserved_agent():
    cycle = Network.directed_cycle(3)
    # agent 0 observes agents 0 and 2 only
    corrupted = _corrupted(build_schedule(cycle), "harvest", (0, 0, 0), 1)
    with pytest.raises(RuntimeError, match="harvest entry of agent 0 reads unobserved"):
        replay_knowledge(cycle, corrupted)


def test_replay_rejects_a_negative_relay_offset():
    cycle = Network.directed_cycle(4)
    corrupted = _corrupted(build_schedule(cycle), "relay_offset", (3, 1), -1)
    with pytest.raises(RuntimeError, match="agent 1 read negative offset -1"):
        replay_knowledge(cycle, corrupted)


def test_replay_rejects_a_harvest_offset_outside_the_block():
    cycle = Network.directed_cycle(3)
    schedule = build_schedule(cycle)
    for offset in (-1, schedule.M):
        corrupted = _corrupted(schedule, "harvest", (0, 0, 1), offset)
        message = f"agent 0 reads offset {offset}, outside"
        with pytest.raises(RuntimeError, match=message):
            replay_knowledge(cycle, corrupted)
