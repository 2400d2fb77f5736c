"""Aggregate functions, classified as in slide 34.

* **distributive** — sum, count, min, max: the final value can be
  computed from partial aggregates of disjoint sub-bags.
* **algebraic** — avg, stdev: computable from a fixed-size tuple of
  distributive aggregates.
* **holistic** — median/quantile, count-distinct: no constant-size
  partial state suffices.

Every function supports ``add`` / ``merge`` / ``result``.  ``merge`` is
what two-level (LFTA→HFTA) partial aggregation relies on (slide 37): the
low level ships partial states, the high level merges them.  Holistic
functions are still *mergeable* here, but their state grows with the
data — exactly why slide 35's bounded-memory analysis singles them out;
approximate, bounded alternatives live in :mod:`repro.synopses`.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Callable

from repro.errors import SynopsisError

__all__ = [
    "AggregateFunction",
    "Count",
    "Sum",
    "Min",
    "Max",
    "Avg",
    "StdDev",
    "First",
    "Last",
    "CountDistinct",
    "Median",
    "Quantile",
    "make_aggregate",
    "AGGREGATE_REGISTRY",
]


class AggregateFunction:
    """Incremental aggregate state."""

    #: "distributive", "algebraic", or "holistic" (slide 34).
    kind = "distributive"
    #: Whether the state size is independent of the input (slide 35).
    bounded_state = True

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def merge(self, other: "AggregateFunction") -> None:
        """Fold another partial state of the same type into this one."""
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError

    def state_size(self) -> int:
        """Abstract size of the internal state (1 = constant)."""
        return 1

    def copy(self) -> "AggregateFunction":
        """A detached copy: adding to either side leaves the other as is.

        Operator snapshots and restores copy every group's states
        through this method, so it runs once per group per checkpoint.
        The default is ``copy.deepcopy(self)``, which is correct for any
        state; custom subclasses inherit it and may override it with an
        explicit copy of their fields for speed, as the built-ins do.  A
        subclass of a built-in that adds fields must override it too:
        the built-ins copy only their own fields.
        """
        return copy.deepcopy(self)


def _blank(fn: AggregateFunction) -> Any:
    """An uninitialised instance of ``fn``'s class, for ``copy()``."""
    cls = type(fn)
    return cls.__new__(cls)


class Count(AggregateFunction):
    """Tuple count; the simplest distributive aggregate."""

    kind = "distributive"

    def __init__(self) -> None:
        self.n = 0

    def add(self, value: Any) -> None:
        self.n += 1

    def merge(self, other: "Count") -> None:
        self.n += other.n

    def result(self) -> int:
        return self.n

    def copy(self) -> "Count":
        new = _blank(self)
        new.n = self.n
        return new


class _ExactSum:
    """Order-independent numeric accumulator.

    Exact types (int, Decimal, Fraction) accumulate directly.  Floats
    are kept as a Shewchuk expansion — a list of non-overlapping
    partials whose exact real sum equals the exact sum of every value
    added — so the rounded result does not depend on addition order.
    That property is what lets partial aggregation (per-shard or
    LFTA-level sub-sums, merged later) produce *bit-identical* results
    to a single accumulator fed in arrival order; with naive ``+=`` the
    two differ in the last ulp.  Non-finite floats degrade to naive
    accumulation, matching ``+=`` propagation of inf/nan.
    """

    __slots__ = ("exact", "partials")

    def __init__(self) -> None:
        self.exact: Any = 0
        self.partials: list[float] = []

    def add(self, value: Any) -> None:
        if isinstance(value, float) and math.isfinite(value):
            self._grow(value)
        else:
            self.exact += value

    def merge(self, other: "_ExactSum") -> None:
        self.exact += other.exact
        for p in other.partials:
            self._grow(p)

    def _grow(self, x: float) -> None:
        partials = self.partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def value(self) -> Any:
        if not self.partials:
            return self.exact
        return self.exact + math.fsum(self.partials)

    def copy(self) -> "_ExactSum":
        new = _ExactSum.__new__(_ExactSum)
        new.exact = self.exact
        new.partials = self.partials[:]
        return new


class Sum(AggregateFunction):
    """Numeric sum (distributive).

    Uses exact float summation so that merging partial sums yields the
    same value as adding in arrival order — sum is then distributive
    over floats not just mathematically but bit-for-bit.
    """

    kind = "distributive"

    def __init__(self) -> None:
        self._sum = _ExactSum()

    @property
    def total(self) -> Any:
        return self._sum.value()

    def add(self, value: Any) -> None:
        self._sum.add(value)

    def merge(self, other: "Sum") -> None:
        self._sum.merge(other._sum)

    def result(self) -> Any:
        return self._sum.value()

    def copy(self) -> "Sum":
        new = _blank(self)
        new._sum = self._sum.copy()
        return new


class Min(AggregateFunction):
    """Running minimum (distributive); ``None`` on an empty group."""

    kind = "distributive"

    def __init__(self) -> None:
        self.current: Any = None

    def add(self, value: Any) -> None:
        if self.current is None or value < self.current:
            self.current = value

    def merge(self, other: "Min") -> None:
        if other.current is not None:
            self.add(other.current)

    def result(self) -> Any:
        return self.current

    def copy(self) -> "Min":
        new = _blank(self)
        new.current = self.current
        return new


class Max(AggregateFunction):
    """Running maximum (distributive); ``None`` on an empty group."""

    kind = "distributive"

    def __init__(self) -> None:
        self.current: Any = None

    def add(self, value: Any) -> None:
        if self.current is None or value > self.current:
            self.current = value

    def merge(self, other: "Max") -> None:
        if other.current is not None:
            self.add(other.current)

    def result(self) -> Any:
        return self.current

    def copy(self) -> "Max":
        new = _blank(self)
        new.current = self.current
        return new


class Avg(AggregateFunction):
    """Arithmetic mean: algebraic — (sum, count) is its partial state."""

    kind = "algebraic"

    def __init__(self) -> None:
        self._sum = _ExactSum()
        self.n = 0

    def add(self, value: Any) -> None:
        self._sum.add(value)
        self.n += 1

    def merge(self, other: "Avg") -> None:
        self._sum.merge(other._sum)
        self.n += other.n

    def result(self) -> float | None:
        if self.n == 0:
            return None
        return self._sum.value() / self.n

    def copy(self) -> "Avg":
        new = _blank(self)
        new._sum = self._sum.copy()
        new.n = self.n
        return new


class StdDev(AggregateFunction):
    """Population standard deviation from (n, sum, sum of squares)."""

    kind = "algebraic"

    def __init__(self) -> None:
        self.n = 0
        self._sum = _ExactSum()
        self._sum_sq = _ExactSum()

    def add(self, value: Any) -> None:
        self.n += 1
        self._sum.add(value)
        self._sum_sq.add(value * value)

    def merge(self, other: "StdDev") -> None:
        self.n += other.n
        self._sum.merge(other._sum)
        self._sum_sq.merge(other._sum_sq)

    def result(self) -> float | None:
        if self.n == 0:
            return None
        mean = self._sum.value() / self.n
        var = max(self._sum_sq.value() / self.n - mean * mean, 0.0)
        return math.sqrt(var)

    def copy(self) -> "StdDev":
        new = _blank(self)
        new.n = self.n
        new._sum = self._sum.copy()
        new._sum_sq = self._sum_sq.copy()
        return new


class First(AggregateFunction):
    """First value seen in arrival order."""

    kind = "distributive"

    def __init__(self) -> None:
        self.value: Any = None
        self.seen = False

    def add(self, value: Any) -> None:
        if not self.seen:
            self.value = value
            self.seen = True

    def merge(self, other: "First") -> None:
        if not self.seen and other.seen:
            self.value = other.value
            self.seen = True

    def result(self) -> Any:
        return self.value

    def copy(self) -> "First":
        new = _blank(self)
        new.value = self.value
        new.seen = self.seen
        return new


class Last(AggregateFunction):
    """Most recent value seen in arrival order."""

    kind = "distributive"

    def __init__(self) -> None:
        self.value: Any = None

    def add(self, value: Any) -> None:
        self.value = value

    def merge(self, other: "Last") -> None:
        if other.value is not None:
            self.value = other.value

    def result(self) -> Any:
        return self.value

    def copy(self) -> "Last":
        new = _blank(self)
        new.value = self.value
        return new


class CountDistinct(AggregateFunction):
    """Exact distinct count: holistic, unbounded state (slide 34)."""

    kind = "holistic"
    bounded_state = False

    def __init__(self) -> None:
        self.values: set = set()

    def add(self, value: Any) -> None:
        self.values.add(value)

    def merge(self, other: "CountDistinct") -> None:
        self.values |= other.values

    def result(self) -> int:
        return len(self.values)

    def state_size(self) -> int:
        return len(self.values)

    def copy(self) -> "CountDistinct":
        new = _blank(self)
        new.values = set(self.values)
        return new


class Quantile(AggregateFunction):
    """Exact quantile: holistic, keeps all values."""

    kind = "holistic"
    bounded_state = False

    def __init__(self, q: float = 0.5) -> None:
        if not 0.0 <= q <= 1.0:
            raise SynopsisError(f"quantile fraction must be in [0,1]; got {q}")
        self.q = q
        self.values: list = []

    def add(self, value: Any) -> None:
        self.values.append(value)

    def merge(self, other: "Quantile") -> None:
        self.values.extend(other.values)

    def result(self) -> Any:
        if not self.values:
            return None
        ordered = sorted(self.values)
        idx = min(int(self.q * len(ordered)), len(ordered) - 1)
        return ordered[idx]

    def state_size(self) -> int:
        return len(self.values)

    def copy(self) -> "Quantile":
        new = _blank(self)
        new.q = self.q
        new.values = self.values[:]
        return new


class Median(Quantile):
    """Exact median — the canonical holistic aggregate (slide 34)."""

    def __init__(self) -> None:
        super().__init__(0.5)


#: name -> zero-argument factory
AGGREGATE_REGISTRY: dict[str, Callable[[], AggregateFunction]] = {
    "count": Count,
    "sum": Sum,
    "min": Min,
    "max": Max,
    "avg": Avg,
    "stdev": StdDev,
    "first": First,
    "last": Last,
    "count_distinct": CountDistinct,
    "median": Median,
}


def make_aggregate(name: str) -> AggregateFunction:
    """Instantiate a registered aggregate function by name."""
    try:
        return AGGREGATE_REGISTRY[name]()
    except KeyError:
        raise SynopsisError(
            f"unknown aggregate {name!r}; known: {sorted(AGGREGATE_REGISTRY)}"
        ) from None
