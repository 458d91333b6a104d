"""Directed observation graphs, connectivity facts, and the propagation schedule."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

_DOMAIN_GRAPH = 3


@dataclass(frozen=True)
class Network:
    """Directed observation graph: neighborhoods[i] lists the agents i observes.

    Every agent observes herself (i in neighborhoods[i]). Immutable.
    """

    n: int
    neighborhoods: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a network needs at least one agent")
        if len(self.neighborhoods) != self.n:
            raise ValueError("need one neighborhood per agent")
        normalized = []
        for i, hood in enumerate(self.neighborhoods):
            members = sorted(set(int(j) for j in hood))
            if any(j < 0 or j >= self.n for j in members):
                raise ValueError(f"neighborhood of agent {i} has out-of-range indices")
            if i not in members:
                raise ValueError(f"agent {i} must observe herself")
            normalized.append(tuple(members))
        object.__setattr__(self, "neighborhoods", tuple(normalized))

    @property
    def max_degree(self) -> int:
        """Largest neighborhood size (self included)."""
        return max(len(hood) for hood in self.neighborhoods)

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
            net = Network(
                n, tuple(tuple(np.flatnonzero(adjacency[i])) for i in range(n))
            )
            if is_strongly_connected(net):
                return net
        raise RuntimeError(
            f"no strongly connected graph found for n={n}, edge_prob={edge_prob}"
        )


def network_from_json(doc: dict) -> Network:
    """Build a Network from {"n": k, "neighborhoods": [[...], ...]}."""
    if not isinstance(doc, dict) or "n" not in doc or "neighborhoods" not in doc:
        raise ValueError('network document needs "n" and "neighborhoods"')
    return Network(int(doc["n"]), tuple(tuple(h) for h in doc["neighborhoods"]))


def network_to_json(net: Network) -> dict:
    return {"n": net.n, "neighborhoods": [list(h) for h in net.neighborhoods]}


def _reachable(net: Network, start: int, reverse: bool) -> set[int]:
    if reverse:
        edges: list[list[int]] = [[] for _ in range(net.n)]
        for i, hood in enumerate(net.neighborhoods):
            for j in hood:
                edges[j].append(i)
    else:
        edges = [list(hood) for hood in net.neighborhoods]
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in edges[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def is_strongly_connected(net: Network) -> bool:
    """True iff every agent reaches every other along observation edges."""
    full = set(range(net.n))
    return _reachable(net, 0, False) == full and _reachable(net, 0, True) == full


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


@dataclass(frozen=True)
class Imitate:
    """Display source's action from the given block offset (0 = voting period)."""

    source: int
    source_offset: int


@dataclass(frozen=True)
class Repeat:
    """Display one's own action from the given block offset (0 = voting period)."""

    own_offset: int = 0


@dataclass(frozen=True)
class PropagationSchedule:
    """Per-block relay plan that spreads voting actions through the graph.

    Periods {1, 1+M, 1+2M, ...} are voting periods; the M-1 offsets in
    between are propagation periods. directives[o-1][i] tells agent i what to
    display at block offset o. harvest[i] lists (vote_owner, source, offset)
    triples: agent i learns vote_owner's voting action by watching source (a
    neighbor or herself) act at the given block offset.
    """

    n: int
    M: int
    directives: tuple[tuple[Imitate | Repeat, ...], ...]
    harvest: tuple[tuple[tuple[int, int, int], ...], ...]

    def is_voting_period(self, t: int) -> bool:
        return t >= 1 and (t - 1) % self.M == 0

    def voting_periods(self, horizon: int) -> list[int]:
        return list(range(1, horizon + 1, self.M))


def build_schedule(net: Network) -> PropagationSchedule:
    """Construct the relay plan for a strongly connected network.

    Block length is M = 1 + n(n-2) for n >= 3 (M = 1 for n <= 2: every
    period is a voting period). Offset o = (j+1) + k*n is round (j, k):
    agents at distance k+1 from j display j's voting action, read from the
    lowest-indexed neighbor at distance k who displayed it at offset o - n
    (at distance 1, from j's own vote at offset 0); everyone else repeats
    her own voting action. One pass per distance level reaches distance
    n-2; agents at distance n-1 still learn the vote by observing a
    distance-(n-2) displayer, which replay_knowledge certifies.
    """
    if not is_strongly_connected(net):
        raise ValueError("a propagation schedule requires a strongly connected network")
    n = net.n
    if n <= 2:
        harvest = tuple(
            tuple((j, j, 0) for j in net.neighborhoods[i] if j != i)
            for i in range(n)
        )
        return PropagationSchedule(n=n, M=1, directives=(), harvest=harvest)
    dist = distances(net)
    directives: list[tuple[Imitate | Repeat, ...]] = []
    for offset in range(1, n * (n - 2) + 1):
        j = (offset - 1) % n
        k = (offset - 1) // n
        row: list[Imitate | Repeat] = []
        for i in range(n):
            if dist[i, j] != k + 1:
                row.append(Repeat(0))
            elif k == 0:
                row.append(Imitate(j, 0))
            else:
                source = _carrier(net, dist, i, j, k)
                row.append(Imitate(source, offset - n))
        directives.append(tuple(row))
    harvest: list[tuple[tuple[int, int, int], ...]] = []
    for i in range(n):
        entries = []
        for j in range(n):
            if j == i:
                continue
            if j in net.neighborhoods[i]:
                entries.append((j, j, 0))
            else:
                d = int(dist[i, j])
                source = _carrier(net, dist, i, j, d - 1)
                entries.append((j, source, (j + 1) + (d - 2) * n))
        harvest.append(tuple(entries))
    return PropagationSchedule(
        n=n, M=1 + n * (n - 2), directives=tuple(directives), harvest=tuple(harvest)
    )


def _carrier(net: Network, dist: np.ndarray, i: int, j: int, k: int) -> int:
    """Lowest-indexed neighbor of i at distance k from j."""
    for u in net.neighborhoods[i]:
        if dist[u, j] == k:
            return u
    raise RuntimeError(
        f"no carrier at distance {k} from {j} among neighbors of {i}"
    )


def replay_knowledge(net: Network, schedule: PropagationSchedule) -> list[set[int]]:
    """Symbolically replay one block; return whose votes each agent ends up knowing.

    display[o][u] is the agent whose voting action u shows at block offset o
    (offset 0: everyone shows her own vote). Every Imitate directive is checked
    against the network and against what the source actually displays, and
    every harvest entry is checked to deliver the vote it claims. The result
    is the schedule-correctness oracle: full knowledge means every set equals
    {0, ..., n-1}.
    """
    n = net.n
    display = [list(range(n))]
    for offset in range(1, schedule.M):
        row = []
        for i, directive in enumerate(schedule.directives[offset - 1]):
            if isinstance(directive, Repeat):
                if directive.own_offset >= offset:
                    raise RuntimeError(
                        f"directive at offset {offset} reads a future offset"
                    )
                row.append(display[directive.own_offset][i])
            else:
                if directive.source not in net.neighborhoods[i]:
                    raise RuntimeError(
                        f"directive at offset {offset} makes agent {i} imitate "
                        f"unobserved agent {directive.source}"
                    )
                if directive.source_offset >= offset:
                    raise RuntimeError(
                        f"directive at offset {offset} reads a future offset"
                    )
                row.append(display[directive.source_offset][directive.source])
        display.append(row)
    knowledge: list[set[int]] = []
    for i in range(n):
        known = {i}
        for u in net.neighborhoods[i]:
            for offset in range(schedule.M):
                known.add(display[offset][u])
        for vote_owner, source, offset in schedule.harvest[i]:
            if source not in net.neighborhoods[i]:
                raise RuntimeError(
                    f"harvest entry of agent {i} reads unobserved agent {source}"
                )
            if display[offset][source] != vote_owner:
                raise RuntimeError(
                    f"harvest entry of agent {i} expected agent {source} to show "
                    f"{vote_owner}'s vote at offset {offset}"
                )
        knowledge.append(known)
    return knowledge
