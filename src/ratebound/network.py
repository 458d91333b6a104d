"""Directed observation graphs, connectivity facts, and the propagation schedule."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ratebound.signal_models import is_count, is_real

_DOMAIN_GRAPH = 3


def _agents(n) -> int:
    """n as an int, once it is a count of at least one agent."""
    if not is_count(n, 1):
        raise ValueError("a network needs a positive integer number of agents")
    return operator.index(n)


@dataclass(frozen=True, eq=False)
class Network:
    """Directed observation graph: observes[i, j] iff agent i observes agent j.

    observes is a read-only (n, n) bool matrix with the diagonal set: every
    agent observes herself. The network takes over the array it is given and
    makes it read-only. Networks are equal, and hash alike, when their
    matrices are. from_neighborhoods reads neighborhood lists.
    """

    observes: np.ndarray

    def __post_init__(self) -> None:
        observes, n = self.observes, _agents(len(self.observes))
        if getattr(observes, "dtype", None) != bool or observes.shape != (n, n):
            raise TypeError("observes must be a square bool ndarray")
        missing = np.flatnonzero(~observes.diagonal())
        if len(missing):
            raise ValueError(f"agent {missing[0]} must observe herself")
        observes.flags.writeable = False

    @property
    def n(self) -> int:
        return self.observes.shape[0]

    @cached_property
    def neighborhoods(self) -> tuple[tuple[int, ...], ...]:
        """neighborhoods[i]: the agents i observes, ascending."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.observes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return np.array_equal(self.observes, other.observes)

    def __hash__(self) -> int:
        return hash((self.n, np.packbits(self.observes).tobytes()))

    def __reduce__(self):
        return Network, (self.observes,)

    @staticmethod
    def from_neighborhoods(n, neighborhoods) -> "Network":
        """The network in which agent i observes the members of
        neighborhoods[i], listed in any order, repeats allowed."""
        n = _agents(n)
        if not isinstance(neighborhoods, (list, tuple)):
            raise ValueError("neighborhoods must be a list of index lists")
        if len(neighborhoods) != n:
            raise ValueError("need one neighborhood per agent")
        observes = np.zeros((n, n), dtype=bool)
        for i, hood in enumerate(neighborhoods):
            try:
                members = list(map(operator.index, hood))
            except TypeError:
                members = None
            if members is None or bool in map(type, hood):
                raise ValueError(f"neighborhood of agent {i} must list integer indices")
            if members and (min(members) < 0 or max(members) >= n):
                raise ValueError(f"neighborhood of agent {i} has out-of-range indices")
            observes[i, members] = True
            if not observes[i, i]:
                raise ValueError(f"agent {i} must observe herself")
        return Network(observes)

    @staticmethod
    def complete(n: int) -> "Network":
        n = _agents(n)
        return Network(np.ones((n, n), dtype=bool))

    @staticmethod
    def directed_cycle(n: int) -> "Network":
        """Each agent observes herself and her predecessor (i-1 mod n)."""
        n = _agents(n)
        observes = np.eye(n, dtype=bool)
        observes[np.arange(n), np.arange(n) - 1] = True
        return Network(observes)

    @staticmethod
    def random_strongly_connected(n: int, edge_prob: float, seed) -> "Network":
        """Erdos-Renyi directed graph with self-loops, redrawn until strongly connected."""
        if not (is_real(edge_prob) and 0.0 < edge_prob <= 1.0):
            raise ValueError("edge_prob must lie in (0, 1]")
        if not is_count(seed, 0):
            raise ValueError("seed must be a nonnegative integer")
        n = _agents(n)
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(_DOMAIN_GRAPH,))
        rng = np.random.Generator(np.random.Philox(ss))
        for _ in range(10_000):
            adjacency = rng.random((n, n)) < edge_prob
            np.fill_diagonal(adjacency, True)
            if _reaches_everyone(adjacency):
                return Network(adjacency)
        raise RuntimeError(
            f"no strongly connected graph found for n={n}, edge_prob={edge_prob}"
        )


def network_from_json(doc: dict) -> Network:
    """Build a Network from {"n": k, "neighborhoods": [[...], ...]}."""
    if not isinstance(doc, dict) or "n" not in doc or "neighborhoods" not in doc:
        raise ValueError('network document needs "n" and "neighborhoods"')
    return Network.from_neighborhoods(doc["n"], doc["neighborhoods"])


def network_to_json(net: Network) -> dict:
    return {"n": net.n, "neighborhoods": [list(h) for h in net.neighborhoods]}


def _reaches_everyone(observes: np.ndarray) -> bool:
    """True iff the boolean (n, n) observation matrix, diagonal set, links
    every agent to every other. An agent who observes no one else, or whom
    no one else observes, is refused first, with no squaring. Each squaring
    of the 0/1 reachability matrix doubles the path length it covers, until
    every pair is reached or no pair is added."""
    if len(observes) > 1 and (observes.sum(axis=0).min() < 2
                              or observes.sum(axis=1).min() < 2):
        return False
    reach = observes.astype(np.float32)
    known = np.count_nonzero(reach)
    while known < reach.size:
        reach = np.minimum(reach @ reach, 1.0)
        wider = np.count_nonzero(reach)
        if wider == known:
            return False
        known = wider
    return True


def is_strongly_connected(net: Network) -> bool:
    """True iff every agent reaches every other along observation edges."""
    return _reaches_everyone(net.observes)


def is_complete(net: Network) -> bool:
    """True iff every agent observes every agent."""
    return bool(net.observes.all())


def distances(net: Network) -> np.ndarray:
    """All-pairs shortest path lengths d(i, j) along observation steps.

    A step goes from an observer to an agent she observes, so d(i, j) = 1
    exactly when j is a neighbor of i (j's action reaches i in one hop).
    d(i, j) = -1 when j's action never reaches i, so the graph is strongly
    connected iff no entry is -1; the others are at most n-1. One
    breadth-first level for every source at once per matrix product:
    frontier[i, u] marks the agents u at the current distance from i.
    """
    n = net.n
    dist = np.where(np.eye(n, dtype=bool), 0, -1)
    observes = net.observes.astype(np.float32)
    frontier = np.eye(n, dtype=bool)
    for level in range(1, n):
        frontier = (frontier.astype(np.float32) @ observes > 0) & (dist < 0)
        if not frontier.any():
            break
        dist[frontier] = level
    return dist


def harvest_owners(n: int) -> np.ndarray:
    """owners[i, m], the m-th agent other than i in ascending order, shape
    (n, n-1): whose vote harvest entry (i, m) of a schedule on n agents
    delivers."""
    m = np.arange(n - 1)
    return m + (m >= np.arange(n)[:, None])


def voting_periods(horizon: int, block: int) -> range:
    """Voting periods 1, 1+M, 1+2M, ... up to horizon, for block length M.

    The periods in between are propagation periods."""
    return range(1, horizon + 1, block)


@dataclass(frozen=True)
class PropagationSchedule:
    """Per-block relay plan that spreads voting actions through the graph.

    Each block of M periods starts with a voting period (see voting_periods);
    the M-1 offsets after it are propagation periods. At block offset o >= 1
    agent i displays the action that agent relay_source[o-1, i] took at block
    offset relay_offset[o-1, i]; relay_source[o-1, i] == i means she repeats
    her own vote (offset 0). harvest[i, m] = (source, offset): agent i learns
    the vote of agent harvest_owners(n)[i, m] by watching source (a neighbor)
    act at that block offset. The arrays, of shapes (M-1, n), (M-1, n) and
    (n, n-1, 2), are read-only.
    """

    M: int
    relay_source: np.ndarray
    relay_offset: np.ndarray
    harvest: np.ndarray


def schedule_too_large(n: int) -> str | None:
    """Why no propagation schedule is built on n agents, or None.

    The relay tables of a schedule on n agents hold (M - 1) n = n^2 (n - 2)
    entries each, and building them takes about 18 n^3 bytes of working
    arrays (8 GB at n = 2000). Tables of more than 2^24 entries, that is
    past 256 agents, are refused before any of them is allocated."""
    entries = n * n * (n - 2)
    if entries <= 2**24:
        return None
    return (f"a propagation schedule on {n} agents needs relay tables of "
            f"{entries} entries; at most 2^24 (256 agents) are supported")


def build_schedule(net: Network) -> PropagationSchedule:
    """Construct the relay plan for a strongly connected network.

    Block length is M = 1 + n(n-2) for n >= 3 (M = 1 for n <= 2: every
    period is a voting period). Offset o = (j+1) + k*n is round (j, k):
    agents at distance k+1 from j display j's voting action, read from
    their carrier for j, the lowest-indexed neighbor at distance k from j,
    who displayed it at offset o - n (at distance 1 the carrier is j, read
    at offset 0); everyone else repeats her own voting action. One pass per
    distance level reaches distance n-2; agents at distance n-1 still learn
    the vote by observing their carrier, which replay_knowledge certifies.
    A network of more than 256 agents is refused (see schedule_too_large),
    and so is one whose distances hold a -1 (not strongly connected).
    """
    too_large = schedule_too_large(net.n)
    if too_large:
        raise ValueError(too_large)
    n = net.n
    dist = distances(net)
    if (dist < 0).any():
        raise ValueError("a propagation schedule requires a strongly connected network")
    agents = np.arange(n)
    # carrier[i, j]: the lowest u with observes[i, u] and d(u, j) = d(i, j) - 1
    steps = net.observes[:, :, None] & (dist[None, :, :] == dist[:, None, :] - 1)
    carrier = steps.argmax(axis=1)
    # shown[u, j]: the block offset at which u displays j's vote, 0 for u = j
    # and else that of round (j, d(u, j) - 1); carriers are within n-2 of j
    shown = np.where(dist == 0, 0, agents + 1 + (dist - 1) * n)
    relay_at = shown[carrier, agents]
    # rounds (k, j) in offset order; agent i relays in round (d(i, j) - 1, j)
    relaying = dist.T == np.arange(1, n - 1)[:, None, None]
    M = max(1, 1 + n * (n - 2))
    relay_source = np.where(relaying, carrier.T, agents).reshape(M - 1, n)
    relay_offset = np.where(relaying, relay_at.T, 0).reshape(M - 1, n)
    harvest = np.stack([carrier, relay_at], -1)[agents[:, None], harvest_owners(n)]
    for array in (relay_source, relay_offset, harvest):
        array.flags.writeable = False
    return PropagationSchedule(M, relay_source, relay_offset, harvest)


def _shown(schedule: PropagationSchedule, offset, source) -> np.ndarray:
    """The agent whose vote `source` shows at block `offset`, cell by cell
    over index arrays of one shape.

    Each cell follows its directive chain through the schedule's relay
    tables back to offset 0, where every agent shows her own vote. Every
    directive must read an earlier offset (replay_knowledge refuses any
    other), so each hop goes strictly back and every walk ends.
    """
    shape = np.shape(source)
    offset, source = np.array(offset).ravel(), np.array(source).ravel()
    walking = np.flatnonzero(offset)  # the cells not yet back at offset 0
    while len(walking):
        o, u = offset[walking] - 1, source[walking]
        offset[walking] = schedule.relay_offset[o, u]
        source[walking] = schedule.relay_source[o, u]
        walking = walking[offset[walking] > 0]
    return source.reshape(shape)


def _refuse(mask: np.ndarray, message) -> None:
    """Raise RuntimeError(message(*index)) at mask's first set entry, if any."""
    if mask.any():
        raise RuntimeError(message(*np.argwhere(mask)[0]))


def replay_knowledge(net: Network, schedule: PropagationSchedule) -> np.ndarray:
    """Symbolically replay one block; return whose votes each agent ends up knowing.

    Every relay is checked against the network and its directive against
    the block's order, and every harvest entry is checked to deliver the
    vote it claims: the cell it reads is walked back along its directive
    chain to the vote it shows (_shown). The result is the
    schedule-correctness oracle, an (n, n) bool matrix whose row i marks
    agent i herself and the votes her harvest delivers. It is full exactly
    when the function returns, since each entry that delivers a vote other
    than its owner's raises.
    """
    n = net.n
    agents = np.arange(n)
    observes = net.observes
    source, offset = schedule.relay_source, schedule.relay_offset
    _refuse((source < 0) | (source >= n), lambda o, i: (
        f"directive at offset {o + 1} makes agent {i} imitate agent "
        f"{source[o, i]}, outside the network's 0..{n - 1}"))
    _refuse(~observes[agents, source], lambda o, i: (
        f"directive at offset {o + 1} makes agent {i} imitate "
        f"unobserved agent {source[o, i]}"))
    _refuse(offset < 0, lambda o, i: (
        f"directive at offset {o + 1} makes agent {i} read negative "
        f"offset {offset[o, i]}"))
    _refuse(offset >= np.arange(1, schedule.M)[:, None],
            lambda o, i: f"directive at offset {o + 1} reads a future offset")
    owners = harvest_owners(n)
    source, offset = schedule.harvest[..., 0], schedule.harvest[..., 1]
    _refuse((source < 0) | (source >= n), lambda i, m: (
        f"harvest entry of agent {i} reads agent {source[i, m]}, outside "
        f"the network's 0..{n - 1}"))
    _refuse(~observes[agents[:, None], source], lambda i, m: (
        f"harvest entry of agent {i} reads unobserved agent {source[i, m]}"))
    _refuse((offset < 0) | (offset >= schedule.M), lambda i, m: (
        f"harvest entry of agent {i} reads offset {offset[i, m]}, outside "
        f"the block's 0..{schedule.M - 1}"))
    delivered = _shown(schedule, offset, source)
    _refuse(delivered != owners, lambda i, m: (
        f"harvest entry of agent {i} expected agent {source[i, m]} to show "
        f"{owners[i, m]}'s vote at offset {offset[i, m]}"))
    knowledge = np.eye(n, dtype=bool)
    knowledge[agents[:, None], delivered] = True
    return knowledge
