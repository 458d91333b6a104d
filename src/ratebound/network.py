"""Directed observation graphs, connectivity facts, and the propagation schedule."""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from ratebound.signal_models import is_count

_DOMAIN_GRAPH = 3


@dataclass(frozen=True)
class Network:
    """Directed observation graph: neighborhoods[i] lists the agents i observes.

    Every agent observes herself (i in neighborhoods[i]). Immutable.
    """

    n: int
    neighborhoods: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not is_count(self.n, 1):
            raise ValueError("a network needs a positive integer number of agents")
        object.__setattr__(self, "n", operator.index(self.n))
        if len(self.neighborhoods) != self.n:
            raise ValueError("need one neighborhood per agent")
        normalized = []
        for i, hood in enumerate(self.neighborhoods):
            try:
                members = sorted(set(map(operator.index, hood)))
            except TypeError:
                members = None
            if members is None or bool in map(type, hood):
                raise ValueError(f"neighborhood of agent {i} must list integer indices")
            if members and (members[0] < 0 or members[-1] >= self.n):
                raise ValueError(f"neighborhood of agent {i} has out-of-range indices")
            if i not in members:
                raise ValueError(f"agent {i} must observe herself")
            normalized.append(tuple(members))
        object.__setattr__(self, "neighborhoods", tuple(normalized))

    @staticmethod
    def complete(n: int) -> "Network":
        everyone = tuple(range(n))
        return Network(n, tuple(everyone for _ in range(n)))

    @staticmethod
    def directed_cycle(n: int) -> "Network":
        """Each agent observes herself and her predecessor (i-1 mod n)."""
        return Network(n, tuple((i, (i - 1) % n) for i in range(n)))

    @staticmethod
    def random_strongly_connected(n: int, edge_prob: float, seed) -> "Network":
        """Erdos-Renyi directed graph with self-loops, redrawn until strongly connected."""
        if not 0.0 < edge_prob <= 1.0:
            raise ValueError("edge_prob must lie in (0, 1]")
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(_DOMAIN_GRAPH,))
        rng = np.random.Generator(np.random.Philox(ss))
        for _ in range(10_000):
            adjacency = rng.random((n, n)) < edge_prob
            np.fill_diagonal(adjacency, True)
            if _reaches_everyone(adjacency):
                return Network(
                    n, tuple(tuple(np.flatnonzero(row).tolist()) for row in adjacency)
                )
        raise RuntimeError(
            f"no strongly connected graph found for n={n}, edge_prob={edge_prob}"
        )


def network_from_json(doc: dict) -> Network:
    """Build a Network from {"n": k, "neighborhoods": [[...], ...]}."""
    if not isinstance(doc, dict) or "n" not in doc or "neighborhoods" not in doc:
        raise ValueError('network document needs "n" and "neighborhoods"')
    return Network(doc["n"], tuple(tuple(h) for h in doc["neighborhoods"]))


def network_to_json(net: Network) -> dict:
    return {"n": net.n, "neighborhoods": [list(h) for h in net.neighborhoods]}


def _observes(net: Network) -> np.ndarray:
    """Boolean (n, n) matrix: observes[i, u] iff u is in i's neighborhood."""
    observes = np.zeros((net.n, net.n), dtype=bool)
    for i, hood in enumerate(net.neighborhoods):
        observes[i, list(hood)] = True
    return observes


def _reaches_everyone(observes: np.ndarray) -> bool:
    """True iff the boolean (n, n) observation matrix, diagonal set, links
    every agent to every other. Each squaring of the 0/1 reachability matrix
    doubles the path length it covers, until every pair is reached or no
    pair is added."""
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
    return _reaches_everyone(_observes(net))


def is_complete(net: Network) -> bool:
    """True iff every agent observes every agent."""
    everyone = tuple(range(net.n))
    return all(hood == everyone for hood in net.neighborhoods)


def distances(net: Network) -> np.ndarray:
    """All-pairs shortest path lengths d(i, j) along observation steps.

    A step goes from an observer to an agent she observes, so d(i, j) = 1
    exactly when j is a neighbor of i (j's action reaches i in one hop).
    Entries are at most n-1 on strongly connected graphs.
    """
    n = net.n
    dist = np.full((n, n), -1, dtype=np.int64)
    for i in range(n):
        dist[i, i] = 0
        queue = deque([i])
        while queue:
            u = queue.popleft()
            for v in net.neighborhoods[u]:
                if dist[i, v] < 0:
                    dist[i, v] = dist[i, u] + 1
                    queue.append(v)
    if np.any(dist < 0):
        raise ValueError("distances are undefined: network is not strongly connected")
    return dist


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
    the vote of the m-th agent other than herself, in ascending order, by
    watching source (a neighbor) act at that block offset. The arrays, of
    shapes (M-1, n), (M-1, n) and (n, n-1, 2), are read-only.
    """

    M: int
    relay_source: np.ndarray
    relay_offset: np.ndarray
    harvest: np.ndarray


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
    """
    if not is_strongly_connected(net):
        raise ValueError("a propagation schedule requires a strongly connected network")
    n = net.n
    dist = distances(net)
    agents = np.arange(n)
    # carrier[i, j]: the lowest u with observes[i, u] and d(u, j) = d(i, j) - 1
    steps = _observes(net)[:, :, None] & (dist[None, :, :] == dist[:, None, :] - 1)
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
    others = ~np.eye(n, dtype=bool)
    harvest = np.stack([carrier, relay_at], axis=-1)[others].reshape(n, n - 1, 2)
    for array in (relay_source, relay_offset, harvest):
        array.flags.writeable = False
    return PropagationSchedule(M, relay_source, relay_offset, harvest)


def _display(source: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """display[o, u], the agent whose vote u shows at block offset o, for
    directives that each read an earlier offset: by pointer doubling.

    Cell (o, u) points at the cell (offset, source) of its directive, and
    row 0 at itself. Since every directive reads an earlier offset, each
    chain of pointers ends in row 0; jumping every pointer to its target's
    target halves the chains until none moves, and each cell then points at
    the row-0 cell of the agent whose vote it shows.
    """
    n = source.shape[1]
    pointer = np.concatenate([np.arange(n), (offset * n + source).ravel()])
    while True:
        jumped = pointer[pointer]
        if np.array_equal(jumped, pointer):
            return (pointer % n).reshape(-1, n)
        pointer = jumped


def replay_knowledge(net: Network, schedule: PropagationSchedule) -> list[set[int]]:
    """Symbolically replay one block; return whose votes each agent ends up knowing.

    display[o, u] is the agent whose voting action u shows at block offset o
    (offset 0: everyone shows her own vote). Every relay is checked against
    the network and against what its source actually displays, and every
    harvest entry is checked to deliver the vote it claims. The result is the
    schedule-correctness oracle: full knowledge means every set equals
    {0, ..., n-1}.
    """
    n = net.n
    agents = np.arange(n)
    observes = _observes(net)
    source, offset = schedule.relay_source, schedule.relay_offset
    unobserved = np.argwhere(~observes[agents, source])
    if len(unobserved):
        o, i = unobserved[0]
        raise RuntimeError(
            f"directive at offset {o + 1} makes agent {i} imitate "
            f"unobserved agent {source[o, i]}"
        )
    negative = np.argwhere(offset < 0)
    if len(negative):
        o, i = negative[0]
        raise RuntimeError(
            f"directive at offset {o + 1} makes agent {i} read negative "
            f"offset {offset[o, i]}"
        )
    future = np.argwhere(offset >= np.arange(1, schedule.M)[:, None])
    if len(future):
        raise RuntimeError(f"directive at offset {future[0, 0] + 1} reads a future offset")
    display = _display(source, offset)
    owners = np.broadcast_to(agents, (n, n))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    source, offset = schedule.harvest[..., 0], schedule.harvest[..., 1]
    unobserved = np.argwhere(~observes[agents[:, None], source])
    if len(unobserved):
        i, m = unobserved[0]
        raise RuntimeError(
            f"harvest entry of agent {i} reads unobserved agent {source[i, m]}"
        )
    outside = np.argwhere((offset < 0) | (offset >= schedule.M))
    if len(outside):
        i, m = outside[0]
        raise RuntimeError(
            f"harvest entry of agent {i} reads offset {offset[i, m]}, outside "
            f"the block's 0..{schedule.M - 1}"
        )
    lies = np.argwhere(display[offset, source] != owners)
    if len(lies):
        i, m = lies[0]
        raise RuntimeError(
            f"harvest entry of agent {i} expected agent {source[i, m]} to show "
            f"{owners[i, m]}'s vote at offset {offset[i, m]}"
        )
    # shows[u, a]: u displays a's vote at some offset of the block
    shows = np.zeros((n, n), dtype=bool)
    shows[agents, display] = True
    knowledge = observes @ shows
    return [set(np.flatnonzero(row).tolist()) for row in knowledge]
