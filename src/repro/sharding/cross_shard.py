"""Probability that a transaction is cross-shard (Appendix B, Equation 3).

A ``d``-argument transaction touches ``d`` state keys; keys are mapped to the
``k`` shards uniformly at random by a cryptographic hash.  The number of
distinct shards touched then follows the classic occupancy distribution, and
the transaction is cross-shard whenever it touches more than one shard.

The module also provides the lock-**contention** analysis used to size the
contended workloads of the conflict-policy experiments: the probability that
two concurrent ``d``-key transactions collide on at least one key, and the
expected number of conflicting peers among ``m`` in-flight transactions —
which is what turns into 2PL aborts (or waits) under the cross-shard
protocol.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List

from repro.errors import ConfigurationError


@lru_cache(maxsize=4096)
def _stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind (ways to partition n items into k groups)."""
    if n == k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    if k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def cross_shard_probability(num_arguments: int, num_shards: int, exactly: int) -> float:
    """Probability that a ``num_arguments``-argument transaction touches exactly ``exactly`` shards.

    This is the occupancy form of the paper's Equation 3:
    ``P[X = x] = C(k, x) * S(d, x) * x! / k^d`` where ``S`` is the Stirling
    number of the second kind — the probability that ``d`` uniformly random
    key placements cover exactly ``x`` of ``k`` shards.
    """
    if num_arguments < 0 or num_shards < 1:
        raise ConfigurationError("need num_arguments >= 0 and num_shards >= 1")
    if exactly < 0 or exactly > min(num_arguments, num_shards):
        return 0.0
    if num_arguments == 0:
        return 1.0 if exactly == 0 else 0.0
    ways = math.comb(num_shards, exactly) * _stirling2(num_arguments, exactly) * math.factorial(exactly)
    return ways / (num_shards ** num_arguments)


def probability_cross_shard(num_arguments: int, num_shards: int) -> float:
    """Probability that the transaction touches more than one shard."""
    if num_arguments <= 1 or num_shards <= 1:
        return 0.0
    return 1.0 - cross_shard_probability(num_arguments, num_shards, 1)


def expected_shards_touched(num_arguments: int, num_shards: int) -> float:
    """Expected number of distinct shards touched by a d-argument transaction."""
    if num_shards < 1:
        raise ConfigurationError("num_shards must be at least 1")
    if num_arguments <= 0:
        return 0.0
    return num_shards * (1.0 - (1.0 - 1.0 / num_shards) ** num_arguments)


def distribution_over_shards(num_arguments: int, num_shards: int) -> Dict[int, float]:
    """Full distribution of the number of shards touched."""
    upper = min(num_arguments, num_shards)
    return {
        x: cross_shard_probability(num_arguments, num_shards, x)
        for x in range(1, upper + 1)
    }


def pairwise_conflict_probability(num_keys: int, keys_per_tx: int) -> float:
    """Probability that two concurrent transactions share at least one key.

    Both transactions draw ``keys_per_tx`` distinct keys uniformly from a
    ``num_keys`` key space; the complement is a hypergeometric miss:
    ``P[conflict] = 1 - C(K - d, d) / C(K, d)``.  (Zipf-skewed workloads
    conflict strictly more often — this is the uniform lower bound.)
    """
    if num_keys < 1 or keys_per_tx < 0:
        raise ConfigurationError("need num_keys >= 1 and keys_per_tx >= 0")
    if keys_per_tx == 0:
        return 0.0
    if 2 * keys_per_tx > num_keys:
        return 1.0
    miss = math.comb(num_keys - keys_per_tx, keys_per_tx) / math.comb(num_keys, keys_per_tx)
    return 1.0 - miss


def expected_conflicting_peers(num_keys: int, keys_per_tx: int,
                               in_flight: int) -> float:
    """Expected number of the other ``in_flight - 1`` concurrent transactions
    a given transaction conflicts with (uniform keys, independent draws)."""
    if in_flight < 1:
        raise ConfigurationError("in_flight must be at least 1")
    return (in_flight - 1) * pairwise_conflict_probability(num_keys, keys_per_tx)


def contention_probability(num_keys: int, keys_per_tx: int, in_flight: int) -> float:
    """Probability that a transaction conflicts with *any* concurrent peer.

    This is what an ``abort``-policy run turns into its abort rate floor: a
    conflicting pair costs at least one of the pair a PrepareNotOK, while the
    ``wait``/``wound-wait`` policies convert most of these conflicts into
    queueing delay instead.
    """
    if in_flight < 1:
        raise ConfigurationError("in_flight must be at least 1")
    p = pairwise_conflict_probability(num_keys, keys_per_tx)
    return 1.0 - (1.0 - p) ** (in_flight - 1)
