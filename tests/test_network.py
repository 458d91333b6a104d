"""Observation graphs, distances, schedules, and the knowledge-replay oracle."""

import json
import math
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ratebound import verification
from ratebound.network import (
    Network,
    _shown,
    build_schedule,
    distances,
    harvest_owners,
    is_complete,
    is_strongly_connected,
    network_from_json,
    network_to_json,
    replay_knowledge,
    schedule_too_large,
    voting_periods,
)
from ratebound.signal_models import BinarySymmetric, SignalModel, StateSpace
from ratebound.sim_engine import SimConfig
from ratebound.strategies import CoordinationComplete


# -- construction -------------------------------------------------------------


def test_network_normalizes_neighborhoods():
    net = Network.from_neighborhoods(3, ((2, 0, 0), (1, 0), (2,)))
    assert net.neighborhoods == ((0, 2), (0, 1), (2,))


def test_network_requires_self_observation_and_valid_indices():
    with pytest.raises(ValueError):
        Network.from_neighborhoods(2, ((0,), (0,)))
    with pytest.raises(ValueError):
        Network.from_neighborhoods(2, ((0, 5), (1,)))
    with pytest.raises(ValueError):
        Network.from_neighborhoods(0, ())
    with pytest.raises(ValueError):
        Network.from_neighborhoods(2, ((0,),))
    with pytest.raises(ValueError, match="must observe herself"):
        Network.from_neighborhoods(2, ((), (1,)))
    for hood in ((0, 1.7), (0, True), (0, "1")):
        with pytest.raises(ValueError, match="integer indices"):
            Network.from_neighborhoods(2, (hood, (1,)))
    for n in (2.0, True):
        with pytest.raises(ValueError, match="positive integer"):
            Network.from_neighborhoods(n, ((0,), (1,)))


def test_the_matrix_is_checked_and_made_read_only():
    with pytest.raises(ValueError, match="positive integer"):
        Network(np.ones((0, 0), dtype=bool))
    with pytest.raises(ValueError, match="agent 1 must observe herself"):
        Network(np.array([[True, True], [True, False]]))
    with pytest.raises(TypeError, match="square"):
        Network(np.ones((2, 3), dtype=bool))
    with pytest.raises(TypeError, match="bool"):
        Network(np.ones((2, 2)))
    observes = np.eye(3, dtype=bool)
    net = Network(observes)
    assert net.observes is observes and not observes.flags.writeable
    assert net.n == 3 and net.neighborhoods == ((0,), (1,), (2,))


def test_networks_are_equal_and_hash_alike_when_their_matrices_are():
    listed = Network.from_neighborhoods(3, [[2, 0, 2, 0], [1, 0, 1], [2, 1, 2]])
    in_order = Network.from_neighborhoods(3, ((0, 2), (0, 1), (1, 2)))
    assert listed == in_order and hash(listed) == hash(in_order)
    assert listed.neighborhoods == in_order.neighborhoods
    wider = Network.from_neighborhoods(3, ((0, 2), (0, 1, 2), (1, 2)))
    assert listed != wider
    assert listed != Network.complete(3) and listed != Network.complete(2)
    rebuilt = pickle.loads(pickle.dumps(listed))
    assert rebuilt == listed and not rebuilt.observes.flags.writeable


def test_a_ten_thousand_agent_complete_config_builds_from_the_matrix():
    n = 10_000
    net = Network.complete(n)
    model = SignalModel(StateSpace((0, 1)), BinarySymmetric(0.75), n)
    config = SimConfig(model, net, CoordinationComplete(), 30, 1, 0)
    assert is_complete(config.network)
    assert "neighborhoods" not in vars(net)


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


def test_random_networks_refuse_seeds_and_edge_probabilities_of_the_wrong_type():
    # seed None drew an unreproducible graph from OS entropy; True passed as
    # seed 1 and as edge probability 1
    for seed in (None, True, -1, 2.5, "3"):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            Network.random_strongly_connected(4, 0.5, seed)
    for edge_prob in (True, "0.5", None, math.nan, 0.0, 1.5):
        with pytest.raises(ValueError, match=r"edge_prob must lie in \(0, 1\]"):
            Network.random_strongly_connected(4, edge_prob, 0)
    assert Network.random_strongly_connected(4, 1, np.int64(0)) == Network.complete(4)


def _redrawn_network(n, edge_prob, seed):
    """The redraw loop that built and normalized a Network for every draw
    and kept the first strongly connected one, as a reference; distances
    marks -1 on a network that is not strongly connected."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(3,))
    rng = np.random.Generator(np.random.Philox(ss))
    while True:
        adjacency = rng.random((n, n)) < edge_prob
        np.fill_diagonal(adjacency, True)
        net = Network.from_neighborhoods(
            n, tuple(tuple(np.flatnonzero(adjacency[i])) for i in range(n))
        )
        if not (distances(net) < 0).any():
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
    numpy_net = Network.from_neighborhoods(
        np.int64(2), ((np.int64(0), 1), (0, np.int32(1)))
    )
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
    disconnected = Network.from_neighborhoods(3, ((0,), (0, 1), (1, 2)))
    assert not is_strongly_connected(disconnected)


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
    # agent 0 observes nobody else: no other agent's action reaches her
    dist = distances(Network.from_neighborhoods(3, ((0,), (0, 1), (1, 2))))
    assert dist.tolist() == [[0, -1, -1], [1, 0, -1], [2, 1, 0]]


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
    assert knowledge.dtype == bool and knowledge.tolist() == [[True, True]] * 2


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
        assert knowledge.dtype == bool and knowledge.shape == (n, n)
        assert knowledge.all()


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
        assert knowledge.dtype == bool and knowledge.shape == (net.n, net.n)
        assert knowledge.all()


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


def test_walked_chains_equal_an_offset_by_offset_replay():
    # The check's 103 networks, then complete networks and directed cycles:
    # a cycle of n agents relays along chains n - 1 directives long. Every
    # (offset, agent) cell of the block is walked, not only the harvested.
    nets = [*verification._coverage_networks(),
            *(Network.complete(n) for n in range(2, 13)),
            *(Network.directed_cycle(n) for n in range(3, 13))]
    assert len(nets) == 124
    for net in nets:
        schedule = build_schedule(net)
        source, offset = schedule.relay_source, schedule.relay_offset
        expected = np.empty((schedule.M, net.n), dtype=np.intp)
        expected[0] = np.arange(net.n)
        for o in range(1, schedule.M):
            expected[o] = expected[offset[o - 1], source[o - 1]]
        cells = np.indices((schedule.M, net.n))
        np.testing.assert_array_equal(_shown(schedule, *cells), expected)


def test_schedule_arrays_are_read_only():
    schedule = build_schedule(Network.directed_cycle(4))
    for array in (schedule.relay_source, schedule.relay_offset, schedule.harvest):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1


def _one_distances_pass(monkeypatch):
    """Make the squaring connectivity test fail if run, and record each
    distances call."""
    def fail(*args):
        raise AssertionError("build_schedule ran the squaring connectivity test")
    calls = []

    def counted(net):
        calls.append(net)
        return distances(net)
    monkeypatch.setattr("ratebound.network._reaches_everyone", fail)
    monkeypatch.setattr("ratebound.network.distances", counted)
    return calls


def test_build_schedule_requires_strong_connectivity(monkeypatch):
    calls = _one_distances_pass(monkeypatch)
    with pytest.raises(ValueError) as excinfo:
        build_schedule(Network.from_neighborhoods(3, ((0,), (0, 1), (1, 2))))
    assert str(excinfo.value) == (
        "a propagation schedule requires a strongly connected network")
    assert len(calls) == 1


def test_build_schedule_runs_one_graph_traversal(monkeypatch):
    nets = [Network.complete(1), Network.complete(2), Network.directed_cycle(5),
            Network.random_strongly_connected(9, 0.3, seed=3)]
    calls = _one_distances_pass(monkeypatch)
    for net in nets:
        calls.clear()
        assert replay_knowledge(net, build_schedule(net)).all()
        assert calls == [net]


def test_harvest_owners_list_the_other_agents_in_ascending_order():
    assert harvest_owners(1).shape == (1, 0)
    assert harvest_owners(2).tolist() == [[1], [0]]
    for n in (3, 7):
        assert harvest_owners(n).tolist() == [
            [j for j in range(n) if j != i] for i in range(n)
        ]


def test_build_schedule_refuses_a_schedule_too_large_to_hold(monkeypatch):
    # relay tables hold n^2 (n - 2) entries: 16,646,144 at n = 256 and
    # 16,842,495 at n = 257, on either side of 2^24
    assert schedule_too_large(256) is None
    assert schedule_too_large(257) == (
        "a propagation schedule on 257 agents needs relay tables of 16842495 "
        "entries; at most 2^24 (256 agents) are supported")
    assert all(schedule_too_large(n) is None for n in (1, 2, 3))
    # distances and the connectivity test are never reached, so none of the
    # schedule's O(n^3) arrays is built
    def fail(*args):
        raise AssertionError("a refused schedule reached the graph routines")
    monkeypatch.setattr("ratebound.network.distances", fail)
    monkeypatch.setattr("ratebound.network._reaches_everyone", fail)
    with pytest.raises(ValueError) as excinfo:
        build_schedule(Network.complete(2048))
    assert str(excinfo.value) == schedule_too_large(2048)


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


def test_replay_rejects_sources_outside_the_network():
    net = Network.complete(3)
    schedule = build_schedule(net)
    # -1 must not wrap around to agent 2, nor 3 escape as an IndexError
    for value in (-1, 3):
        corrupted = _corrupted(schedule, "relay_source", (0, 1), value)
        with pytest.raises(RuntimeError) as excinfo:
            replay_knowledge(net, corrupted)
        assert str(excinfo.value) == (
            f"directive at offset 1 makes agent 1 imitate agent {value}, "
            f"outside the network's 0..2")
        corrupted = _corrupted(schedule, "harvest", (1, 1, 0), value)
        with pytest.raises(RuntimeError) as excinfo:
            replay_knowledge(net, corrupted)
        assert str(excinfo.value) == (
            f"harvest entry of agent 1 reads agent {value}, outside the "
            f"network's 0..2")


def test_replay_refuses_a_relay_that_drops_a_chain_midway():
    # on a cycle of 6, agent 0 learns agent 1's vote along 1 -> 2 -> ... -> 5
    # -> 0; agent 3 repeating her own vote in place of relaying it makes
    # every later link show agent 3's vote
    cycle = Network.directed_cycle(6)
    schedule = build_schedule(cycle)
    source, offset = schedule.harvest[0, 0]
    chain = [(source, offset)]
    while offset:
        source, offset = (schedule.relay_source[offset - 1, source],
                          schedule.relay_offset[offset - 1, source])
        chain.append((source, offset))
    assert [agent for agent, _ in chain] == [5, 4, 3, 2, 1]
    at = chain[2][1] - 1
    corrupted = _corrupted(schedule, "relay_source", (at, 3), 3)
    corrupted = _corrupted(corrupted, "relay_offset", (at, 3), 0)
    with pytest.raises(RuntimeError) as excinfo:
        replay_knowledge(cycle, corrupted)
    assert str(excinfo.value) == (
        f"harvest entry of agent 0 expected agent 5 to show 1's vote at "
        f"offset {chain[0][1]}")


def test_replay_refuses_a_harvest_of_the_harvester_herself():
    # each agent shows her own vote at offset 0, never another's
    nets = verification._coverage_networks()
    assert len(nets) == 103
    for net in nets:
        schedule = build_schedule(net)
        i = net.n // 2
        corrupted = _corrupted(schedule, "harvest", (i, 0), (i, 0))
        with pytest.raises(RuntimeError, match=f"harvest entry of agent {i} "
                           f"expected agent {i} to show"):
            replay_knowledge(net, corrupted)


def test_replay_holds_no_copy_of_the_relay_tables():
    # the relay tables of complete(128) hold 2 x 16 MB of int64 entries;
    # the replay reads them in place and walks only the harvested cells
    net = Network.complete(128)
    schedule = build_schedule(net)
    tracemalloc.start()
    try:
        knowledge = replay_knowledge(net, schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert knowledge.all()
    assert peak <= 16 * 2**20
