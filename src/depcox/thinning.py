"""Multi-level thinning: rate ladders, level assignment, and the modified
birth/death acceptance ratios.

A ladder replaces the single global intensity bound by an ordered set of
fractional levels. Each thinned point carries the index of the level it is
currently assigned, which upper-bounds the sigmoid of its function value.
With a one-level ladder everything here reduces exactly to the classic
single-bound scheme.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Newly assigned sigmoid values stay below SLACK times their level, so the
# function can move without immediately hitting the bound.
SLACK = 0.9


@dataclass(frozen=True)
class RateLadder:
    """Ordered bound fractions ``levels`` (last one exactly 1); a value is
    assigned against each level scaled by ``SLACK``."""

    levels: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        levels = tuple(float(v) for v in self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) == 0:
            raise ValidationError("ladder needs at least one level")
        if any(not 0.0 < v <= 1.0 for v in levels):
            raise ValidationError(f"levels must lie in (0, 1]: {levels}")
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise ValidationError(f"levels must be strictly increasing: {levels}")
        if levels[-1] != 1.0:
            raise ValidationError(f"last level must be exactly 1: {levels}")
        # the slack-scaled levels ``assign`` searches, each rounded as
        # ``as_array() * SLACK`` rounds it
        object.__setattr__(self, "_scaled", tuple(v * SLACK for v in levels))

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def assign(self, sigmoid_value: float) -> int:
        """Index (0-based) of the smallest level whose slack-scaled value
        covers the float ``sigmoid_value``, searched with ``bisect_left``
        and no numpy call. Falls back to the top level when even the
        slack-scaled top is exceeded, so the level always upper-bounds the
        sigmoid; NaN gets the top level too."""
        top = len(self._scaled) - 1
        if sigmoid_value != sigmoid_value:  # NaN
            return top
        return min(bisect_left(self._scaled, sigmoid_value), top)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.levels)


def thinned_prob(sigmoid_value: float, level: float) -> float:
    """Probability of a thinned point at a site with the given sigmoid and level."""
    if sigmoid_value > level:
        raise ValidationError(
            f"sigmoid value {sigmoid_value} exceeds its assigned level {level}"
        )
    return (level - sigmoid_value) / level


def accept_insert(
    n_thinned: int,
    volume: float,
    lambda_star: float,
    level: float,
    sigmoid_value: float,
    b: float = 0.5,
) -> float:
    """Acceptance ratio for inserting a thinned point at the given site.

    ``n_thinned`` is the count before the insertion; ``b`` is the constant
    insertion proposal probability.
    """
    p = thinned_prob(sigmoid_value, level)
    return ((1.0 - b) * volume * lambda_star * level * p) / ((n_thinned + 1) * b)


def accept_delete(
    n_thinned: int,
    volume: float,
    lambda_star: float,
    level: float,
    sigmoid_value: float,
    b: float = 0.5,
) -> float:
    """Acceptance ratio for deleting one of ``n_thinned`` thinned points.

    Reciprocal of :func:`accept_insert` for the matching configuration. A
    point sitting exactly on its level is deleted with certainty (+inf).
    """
    if n_thinned < 1:
        raise ValidationError("cannot delete from an empty thinned set")
    p = thinned_prob(sigmoid_value, level)
    denom = (1.0 - b) * volume * lambda_star * level * p
    if denom == 0.0:
        return float("inf")
    return (n_thinned * b) / denom


def accept_move(
    old_level: float, old_sigmoid: float, new_level: float, new_sigmoid: float
) -> float:
    """Acceptance ratio for relocating a thinned point.

    Product of the insertion and deletion criteria; the count, volume and
    bound terms cancel, leaving the ratio of level-weighted thinning
    probabilities.
    """
    num = new_level * thinned_prob(new_sigmoid, new_level)
    den = old_level * thinned_prob(old_sigmoid, old_level)
    if den == 0.0:
        return float("inf")
    return num / den


def estimate_total(data_rate_idx, thinned_rate_idx, ladder: RateLadder) -> float:
    """Level-weighted estimate of the single-bound point total.

    Each point counts as the reciprocal of its level fraction; with a
    one-level ladder this is exactly the raw count.
    """
    levels = ladder.as_array()
    data_idx = np.asarray(data_rate_idx, dtype=int)
    thin_idx = np.asarray(thinned_rate_idx, dtype=int)
    for idx in (data_idx, thin_idx):
        if idx.size and (idx.min() < 0 or idx.max() >= ladder.n_levels):
            raise ValidationError("rate index out of range for ladder")
    total = 0.0
    if data_idx.size:
        total += float(np.sum(1.0 / levels[data_idx]))
    if thin_idx.size:
        total += float(np.sum(1.0 / levels[thin_idx]))
    return total
