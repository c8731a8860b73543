"""Finite unions of disjoint closed intervals on the nonnegative axis.

Every localization set this library computes constrains only the modulus
t = |z|, so its exact shape is a set of radii: a finite union of closed
intervals in [0, inf).  Canonical form keeps intervals sorted, disjoint and
separated by positive gaps (touching intervals are merged).
"""

import math


def _canonicalize(intervals):
    cleaned = []
    for lo, hi in intervals:
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval endpoints must be finite, got [{lo}, {hi}]")
        if lo < 0 or lo > hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]: need 0 <= lo <= hi")
        cleaned.append((lo, hi))
    cleaned.sort()
    merged = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


class IntervalSet:
    """Canonical union of disjoint closed intervals [lo, hi], 0 <= lo <= hi."""

    __slots__ = ("intervals",)

    def __init__(self, intervals=()):
        object.__setattr__(self, "intervals", _canonicalize(intervals))

    def __setattr__(self, name, value):
        raise AttributeError("IntervalSet is immutable")

    @classmethod
    def closed(cls, lo: float, hi: float) -> "IntervalSet":
        return cls(((lo, hi),))

    def sup(self):
        """Largest point of the set, or None when empty."""
        return self.intervals[-1][1] if self.intervals else None

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def contains(self, t: float, slack: float = 0.0) -> bool:
        """Membership of t, with each interval inflated by ``slack``."""
        if slack < 0:
            raise ValueError("slack must be >= 0")
        return any(lo - slack <= t <= hi + slack for lo, hi in self.intervals)

    def uncovered_by(self, other: "IntervalSet", slack: float = 0.0):
        """Intervals of self not contained in a single interval of ``other``
        inflated by ``slack``.  Empty list means self is a subset of other."""
        big = other
        if slack > 0:  # inflated intervals that come to touch merge
            big = IntervalSet((max(0.0, lo - slack), hi + slack) for lo, hi in other.intervals)
        bad = []
        for lo, hi in self.intervals:
            if not any(blo <= lo and hi <= bhi for blo, bhi in big.intervals):
                bad.append((lo, hi))
        return bad

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        if not self.intervals:
            return "IntervalSet(empty)"
        body = " u ".join(f"[{lo:g}, {hi:g}]" for lo, hi in self.intervals)
        return f"IntervalSet({body})"

