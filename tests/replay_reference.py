"""Scalar reference for the batched engine: one trajectory, one agent and one
period at a time, over full k x k evidence matrices.

Each agent keeps her own evidence and the action records of exactly the
agents she observes (reading any other agent's record is a KeyError). The
tests compare ratebound.sim_engine._replay with `replay`, bit for bit.
"""

from collections import Counter
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from ratebound.ldp_numerics import checked_delta, llr_table, pair_table
from ratebound.network import build_schedule
from ratebound.strategies import (
    AutarkyML,
    Coordination,
    CoordinationComplete,
    CoordinationConnected,
    OddEven,
    first_action,
    prior_log_matrix,
)


def most_popular(actions):
    """Plurality action; ties go to the lowest state index."""
    counts = Counter(actions)
    if not counts:
        raise ValueError("most_popular needs at least one action")
    return max(counts.items(), key=lambda item: (item[1], -item[0]))[0]


def increment_fns(model):
    """Per agent, signal -> k x k log-likelihood-ratio increment; finite
    families receive a support index, Gaussian ones the raw value."""
    if model.has_finite_support:
        return [lambda signal, table=table: table[int(signal)]
                for table in llr_table(model)]
    k = model.states.n_states
    fns = []
    for agent in range(model.n_agents):
        means = model.means[agent]
        sigma = model.family.sigma
        diff = means[:, None] - means[None, :]
        avg = (means[:, None] + means[None, :]) / 2.0
        var = sigma * sigma
        fns.append(
            lambda signal, diff=diff, avg=avg, var=var:
            diff * (float(signal) - avg) / var
        )
    return fns


def dominant_row(L, cut):
    """Lowest state f with L[f, g] >= cut[f, g] for every g != f, or None."""
    k = len(L)
    for f in range(k):
        if all(L[f, g] >= cut[f, g] for g in range(k) if g != f):
            return f
    return None


def ml_action(L):
    """Lowest dominating row; failing that, the largest row sum taken left
    to right over g != f, ties to the lowest state."""
    f = dominant_row(L, np.zeros_like(L))
    if f is not None:
        return f
    k = len(L)
    sums = [sum(L[f, g] for g in range(k) if g != f) for f in range(k)]
    return max(range(k), key=lambda f: sums[f])


@lru_cache(maxsize=16)
def _constants(config):
    """What replay reads of a config besides the signals, built once per
    config and shared by its trajectories."""
    model, strat = config.model, config.strategy
    constants = SimpleNamespace(
        prior=prior_log_matrix(model),
        increments=increment_fns(model),
        first=first_action(model.states.prior),
    )
    if isinstance(strat, Coordination):
        constants.delta = checked_delta(pair_table(model), strat.delta)
        constants.means = pair_table(model).mean
    if isinstance(strat, CoordinationConnected):
        constants.schedule = build_schedule(config.network)
    if isinstance(strat, OddEven):
        constants.weight = llr_table(model)[0, 0, 0, 1]
    return constants


def replay(config, signals):
    """Actions (n_agents, horizon) of one trajectory from its signals."""
    net, strat = config.network, config.strategy
    n, horizon = signals.shape
    c = _constants(config)
    acc = [np.zeros_like(c.prior) for _ in range(n)]
    seen = [{j: [] for j in net.neighborhoods[i]} for i in range(n)]

    def coordinate(i, L, t, votes):
        f = dominant_row(L, (c.means[i] - c.delta) * t)
        return most_popular(votes()) if f is None else f

    def decide(i, t):
        L = c.prior + acc[i]
        history = seen[i]
        if isinstance(strat, AutarkyML):
            return ml_action(L)
        if isinstance(strat, Coordination) and t == 1:
            return c.first
        if isinstance(strat, CoordinationComplete):
            return coordinate(i, L, t, lambda: [history[j][t - 2] for j in range(n)])
        if isinstance(strat, CoordinationConnected):
            schedule = c.schedule
            offset = (t - 1) % schedule.M
            start = t - offset
            if offset == 0:
                previous = t - schedule.M
                return coordinate(i, L, t, lambda: [history[i][previous - 1]] + [
                    history[source][previous + source_offset - 1]
                    for source, source_offset in schedule.harvest[i].tolist()
                ])
            source = int(schedule.relay_source[offset - 1, i])
            return history[source][start + int(schedule.relay_offset[offset - 1, i]) - 1]
        if isinstance(strat, OddEven):
            if i % 2 == 1:
                return int(signals[i, t - 1])
            revealed = [a for j in range(1, n, 2) for a in history[j]]
            balance = revealed.count(0) - revealed.count(1)
            score = c.prior[0, 1] + balance * c.weight
            return 0 if score >= 0.0 else 1
        return strat.state

    actions = np.empty((n, horizon), dtype=np.int64)
    for t in range(1, horizon + 1):
        for i in range(n):
            acc[i] += c.increments[i](signals[i, t - 1])
        acts = [decide(i, t) for i in range(n)]
        for i in range(n):
            for j in seen[i]:
                seen[i][j].append(acts[j])
        actions[:, t - 1] = acts
    return actions
