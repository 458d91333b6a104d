"""The benchmark's workloads.

Each workload builds the program's inputs from the benchmark's seed; the
program only ever sees the built `SimConfig` (or, for `verify-light`, the
names of the shipped checks). Why each workload exists is in README.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ratebound.network import Network
from ratebound.signal_models import BinarySymmetric, Gaussian, SignalModel, StateSpace
from ratebound.sim_engine import SimConfig
from ratebound.strategies import CoordinationComplete, CoordinationConnected

DEFAULT_SEED = 1
DIGESTS_PATH = Path(__file__).with_name("digests.json")

# The acceptance checks that fit a short run. Left out: coordination-dominance
# (the herd config at 10^6 replications, about 100 s), slowest-agent-cap
# (repeats the herd and relay paths) and determinism (starts 3 workers).
VERIFY_CHECKS = (
    "rate-sweep",
    "conjugate-identities",
    "autarky-exactness",
    "schedule-coverage",
    "small-system-exact",
)
SMOKE_CHECKS = ("schedule-coverage", "small-system-exact")


def herd(seed: int, smoke: bool = False) -> SimConfig:
    """Binary coordination on a complete network: the vectorized path."""
    n, horizon, reps = (6, 8, 2048) if smoke else (50, 30, 32_768)
    model = SignalModel(StateSpace((0, 1)), BinarySymmetric(0.75), n)
    return SimConfig(
        model, Network.complete(n), CoordinationComplete(delta=0.05),
        horizon=horizon, replications=reps, seed=seed,
    )


def relay(seed: int, smoke: bool = False) -> SimConfig:
    """Three-state Gaussian coordination on a directed cycle: the generic
    replay. The horizon 2M + 4 holds three voting periods (M = 1 + n(n-2))."""
    n, reps = (3, 64) if smoke else (5, 1024)
    horizon = 2 * (1 + n * (n - 2)) + 4
    model = SignalModel(
        StateSpace((0, 1, 2)), Gaussian(means=(0.0, 0.6, 1.2), sigma=1.0), n
    )
    return SimConfig(
        model, Network.directed_cycle(n), CoordinationConnected(),
        horizon=horizon, replications=reps, seed=seed,
    )


def verify_light(seed: int, smoke: bool = False) -> tuple[str, ...]:
    """The shipped checks fix their own seed, so `seed` does not reach them."""
    return SMOKE_CHECKS if smoke else VERIFY_CHECKS


@dataclass(frozen=True)
class Workload:
    name: str
    build: object  # (seed, smoke) -> SimConfig | tuple of check names
    curve: bool  # True: one mistake_curve call per pass; False: verify checks

    def digest_key(self, smoke: bool) -> str:
        return self.name + ("-smoke" if smoke else "")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("herd", herd, True),
        Workload("relay", relay, True),
        Workload("verify-light", verify_light, False),
    )
}


def agent_periods(config: SimConfig) -> int:
    """Simulated agent-periods of one mistake_curve call."""
    return (
        config.model.states.n_states
        * config.replications
        * config.network.n
        * config.horizon
    )


def counts_digest(counts: np.ndarray) -> str:
    """sha256 over the shape and the little-endian int64 bytes of the counts."""
    arr = np.ascontiguousarray(counts, dtype="<i8")
    digest = hashlib.sha256(repr(arr.shape).encode())
    digest.update(arr.tobytes())
    return digest.hexdigest()


def recorded_digests() -> dict[str, dict[str, str]]:
    """Counts digests recorded from the program, keyed by workload, then seed."""
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def count_violations(config: SimConfig, counts: np.ndarray) -> list[str]:
    """Properties every correct mistake-count array has, whatever the seed."""
    k, n, horizon = config.model.states.n_states, config.network.n, config.horizon
    if counts.shape != (k, n, horizon):
        return [f"counts shape {counts.shape}, expected {(k, n, horizon)}"]
    problems = []
    if counts.min() < 0 or counts.max() > config.replications:
        problems.append("a count lies outside [0, replications]")
    # Both coordination strategies play the prior's first action (state 0
    # under a uniform prior) in period 1, before any signal counts.
    if counts[0, :, 0].any() or (counts[1:, :, 0] != config.replications).any():
        problems.append("period-1 counts disagree with the first action")
    return problems
