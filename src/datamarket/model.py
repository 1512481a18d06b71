"""Core domain types and file I/O for data-market pricing.

A market instance is a set of buyers, each with a budget and a row of
per-dataset valuations, facing ``m`` non-rivalrous datasets.  Pricing comes in
two flavours: a flat per-unit price per dataset (a price vector), or a
piecewise-linear convex curve per dataset represented as a sequence of
"shards" -- contiguous fractions of the dataset sold at a fixed per-unit
price (the shard's slope).

Budgets may be infinite (``math.inf``); prices, values and slopes are always
finite and non-negative.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Global comparison tolerance for money/fraction equalities.
TOLERANCE = 1e-9

INFINITY = math.inf

#: Largest accepted total of an instance's values: half the largest float.
MAX_VALUE_TOTAL = sys.float_info.max / 2


class FormatError(ValueError):
    """A document does not match the expected file schema."""


class ValidationError(ValueError):
    """A parsed object violates a structural invariant."""


def _require_number(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise FormatError(f"{what} must be a number, got {x!r}")
    try:
        return float(x) + 0.0  # -0.0 reads as 0.0
    except OverflowError:
        raise FormatError(f"{what} is an integer too large for a float") from None


@dataclass(frozen=True)
class Instance:
    """A market of ``n`` buyers over ``m`` datasets.

    ``budgets[i]`` is buyer ``i``'s budget (finite or ``math.inf``);
    ``values[i][j]`` is buyer ``i``'s value for the whole of dataset ``j``.

    An instance holds tuples: the budgets and every value row are turned
    into tuples when it is built, so it cannot change afterwards, whatever
    sequences it was given.  Its arrays are therefore built once, on first
    use, and read-only: ``array``, the ``n x m`` values; ``ranking``, each
    dataset's buyers in value order; and ``distinct``, each dataset's
    distinct values.  They are not fields, so equality and hashing read the
    tuples alone, and a copy or a pickle carries the fields alone, so its
    arrays are built afresh, read-only.
    """

    budgets: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "budgets", tuple(self.budgets))
        object.__setattr__(self, "values", tuple(map(tuple, self.values)))

    @property
    def n(self) -> int:
        return len(self.budgets)

    @property
    def m(self) -> int:
        return len(self.values[0]) if self.values else 0

    @cached_property
    def array(self) -> np.ndarray:
        """The values as a read-only ``n x m`` float array."""
        return _read_only(np.array(self.values, dtype=float).reshape(self.n, self.m))

    @cached_property
    def ranking(self) -> tuple[np.ndarray, np.ndarray]:
        """The value index, two read-only ``n x m`` arrays: ``order[:, j]``,
        dataset ``j``'s buyers by ascending value (a stable sort, so ties
        keep buyer order), and ``ranked[:, j]``, their values in that order.
        The buyers who want a price are a suffix of that order (see
        ``revenue.first_interested``)."""
        order = np.argsort(self.array, axis=0, kind="stable")
        return _read_only(order), _read_only(np.take_along_axis(self.array, order, axis=0))

    @cached_property
    def distinct(self) -> tuple[np.ndarray, ...]:
        """Each dataset's distinct values, ascending, as read-only arrays:
        the values of each ranked column that exceed the one before them."""
        return tuple(_read_only(column[np.diff(column, prepend=-np.inf) > 0])
                     for column in self.ranking[1].T)

    def __getstate__(self) -> dict:
        return {"budgets": self.budgets, "values": self.values}

    @classmethod
    def make(cls, budgets, values) -> "Instance":
        """Build and validate an Instance from plain sequences; -0.0 reads
        as 0.0, as it does in a file."""
        inst = cls((float(b) + 0.0 for b in budgets),
                   ((float(v) + 0.0 for v in row) for row in values))
        problems = validate_instance(inst)
        if problems:
            raise ValidationError("; ".join(problems))
        return inst


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def validate_instance(inst: Instance) -> list[str]:
    """Return all invariant violations of ``inst`` (empty list means valid)."""
    problems = []
    n = len(inst.budgets)
    if n < 1:
        problems.append("instance must have at least one buyer")
    if len(inst.values) != n:
        problems.append(
            f"dimension mismatch: {len(inst.values)} value rows for {n} budgets"
        )
    m = len(inst.values[0]) if inst.values else 0
    if m < 1:
        problems.append("instance must have at least one dataset")
    for i, row in enumerate(inst.values):
        if len(row) != m:
            problems.append(f"dimension mismatch: value row {i} has length {len(row)}, expected {m}")
        for j, v in enumerate(row):
            if math.isnan(v) or math.isinf(v):
                problems.append(f"non-finite value at ({i}, {j})")
            elif v < 0:
                problems.append(f"negative value at ({i}, {j})")
    # every desire and revenue is at most the values' exact total, so with
    # that total at most half the largest float no sum of them can overflow,
    # in any order and with its rounding
    if not problems:  # every value is finite and non-negative
        try:
            total = math.fsum(itertools.chain.from_iterable(inst.values))
        except OverflowError:
            total = INFINITY
        if total > MAX_VALUE_TOTAL:
            problems.append(f"values total more than {MAX_VALUE_TOTAL:g}, half the largest float")
    for i, b in enumerate(inst.budgets):
        if math.isnan(b) or b == -INFINITY:
            problems.append(f"invalid budget for buyer {i}")
        elif b < 0:
            problems.append(f"negative budget for buyer {i}")
    if not any(b > 0 for b in inst.budgets):
        problems.append("no positive budget")
    return problems


@dataclass(frozen=True)
class ShardCurve:
    """A piecewise-linear convex per-dataset pricing curve.

    ``shards`` is an ordered tuple of ``(size, slope)`` pairs: the first
    ``size`` fraction of the dataset is priced at per-unit price ``slope``,
    the next shard at the next (strictly larger) slope, and so on.  Sizes sum
    to one.
    """

    shards: tuple[tuple[float, float], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "ShardCurve":
        """Canonicalize ``(size, slope)`` pairs into a valid curve.

        Sorts by slope, drops zero-size shards, and merges shards with equal
        slopes.  Raises ValidationError if sizes do not sum to one.
        """
        kept: list[list[float]] = []
        for size, slope in sorted(pairs, key=lambda p: p[1]):
            if size <= TOLERANCE:
                continue
            if kept and abs(kept[-1][1] - slope) <= TOLERANCE:
                kept[-1][0] += size
            else:
                kept.append([float(size), float(slope)])
        curve = cls(tuple((s, a) for s, a in kept))
        problems = curve.validate()
        if problems:
            raise ValidationError("; ".join(problems))
        return curve

    def validate(self) -> list[str]:
        problems = []
        if not self.shards:
            problems.append("curve has no shards")
            return problems
        total = 0.0
        prev_slope = -INFINITY
        for size, slope in self.shards:
            if not (size > 0):
                problems.append(f"non-positive shard size {size}")
            if math.isnan(slope) or math.isinf(slope) or slope < 0:
                problems.append(f"invalid shard slope {slope}")
            if slope <= prev_slope + TOLERANCE:
                problems.append("shard slopes are not strictly increasing")
            prev_slope = slope
            total += size
        if abs(total - 1.0) > TOLERANCE:
            problems.append(f"shard sizes sum to {total}, expected 1")
        return problems

    def price(self, x: float) -> float:
        """Price of buying the first ``x`` fraction of the dataset."""
        paid = 0.0
        remaining = x
        for size, slope in self.shards:
            take = min(size, remaining)
            if take <= 0:
                break
            paid += slope * take
            remaining -= take
        return paid

    def buyer_cost(self, value: float) -> float:
        """Total price of every shard a buyer with per-unit ``value`` wants.

        A buyer purchases a shard exactly when its slope does not exceed her
        per-unit value (ties included, within tolerance; see
        ``revenue.interested``).
        """
        from .revenue import shard_desires  # revenue imports this module

        return float(shard_desires([value], (self,)))


#: A ShardSet is one curve per dataset.
ShardSet = tuple[ShardCurve, ...]

#: A Partition assigns each dataset to the buyer whose value prices it
#: (``None`` means the dataset is unpriced, i.e. price 0).
Partition = tuple[int | None, ...]


def partition_prices(inst: Instance, part: Partition) -> tuple[float, ...]:
    """Price vector induced by a partition: each dataset is priced at the
    assigned buyer's value for it, or 0 if unassigned."""
    if len(part) != inst.m:
        raise ValidationError(f"partition has length {len(part)}, expected {inst.m}")
    for j, who in enumerate(part):
        if who is not None and not (0 <= who < inst.n):
            raise ValidationError(f"partition entry {j} out of range: {who}")
    return tuple(0.0 if who is None else inst.values[who][j] for j, who in enumerate(part))


def check_prices(prices, count: int, items: str = "datasets") -> np.ndarray:
    """A linear price vector of ``count`` prices as a new float array.

    Raises ValidationError unless it holds exactly ``count`` prices and each
    is finite and non-negative, the invariant in this module's docstring.
    The array is always a copy, which a caller may change in place.
    """
    q = np.array(prices, dtype=float)
    if q.shape != (count,):
        raise ValidationError(f"got {q.size} prices for {count} {items}")
    bad = np.flatnonzero(~(np.isfinite(q) & (q >= 0)))
    if bad.size:
        raise ValidationError(f"invalid price at index {bad[0]}: {float(q[bad[0]])}")
    return q


def prices_to_shardset(prices) -> ShardSet:
    """Encode a linear price vector as a one-shard-per-dataset ShardSet."""
    return tuple(ShardCurve(((1.0, p),)) for p in check_prices(prices, len(prices)).tolist())


@dataclass(frozen=True)
class Bundle:
    """Per-dataset fractions bought by one buyer, plus the payment due."""

    fractions: tuple[float, ...]
    payment: float


@dataclass(frozen=True)
class Allocation:
    bundles: tuple[Bundle, ...]
    total_revenue: float


# ---------------------------------------------------------------------------
# File I/O.  Instances, shard sets and price vectors are stored as JSON
# objects, one line with sorted keys; the default float formatting
# round-trips exactly.
# ---------------------------------------------------------------------------

def _read_json(path, keys, shape: str, not_arrays: str | None = None) -> list:
    """The arrays under ``keys`` of the JSON object in ``path``.

    Raises FormatError with ``shape`` unless the document is an object holding
    every key, and with ``not_arrays`` (default ``shape``) unless each of
    their values is an array.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
            raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not all(key in doc for key in keys):
        raise FormatError(shape)
    if not all(isinstance(doc[key], list) for key in keys):
        raise FormatError(not_arrays or shape)
    return [doc[key] for key in keys]


def _write_json(doc, path) -> None:
    """Write ``doc`` as one line of JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> Instance:
    """Load an instance from a JSON file: {"budgets": [...], "values": [[...]]}.

    Budgets given as the string "inf" map to an infinite budget.
    """
    raw_budgets, raw_values = _read_json(
        path, ("budgets", "values"), 'instance file must be an object with "budgets" and "values"',
        '"budgets" and "values" must be arrays')
    budgets = [INFINITY if b == "inf" else _require_number(b, "budget") for b in raw_budgets]
    values = []
    for row in raw_values:
        if not isinstance(row, list):
            raise FormatError("each value row must be an array")
        values.append([_require_number(v, "value") for v in row])
    return Instance.make(budgets, values)


def save_instance(inst: Instance, path) -> None:
    _write_json({
        "budgets": ["inf" if math.isinf(b) else b for b in inst.budgets],
        "values": [list(row) for row in inst.values],
    }, path)


def load_shardset(path) -> ShardSet:
    """Load a ShardSet from JSON: {"curves": [[{"size": s, "slope": a}, ...], ...]}."""
    (raw_curves,) = _read_json(
        path, ("curves",), 'shard set file must be an object with a "curves" array')
    curves = []
    for raw in raw_curves:
        if not isinstance(raw, list):
            raise FormatError("each curve must be an array of shards")
        pairs = []
        for shard in raw:
            if not isinstance(shard, dict) or "size" not in shard or "slope" not in shard:
                raise FormatError('each shard must be an object with "size" and "slope"')
            pairs.append((_require_number(shard["size"], "size"),
                          _require_number(shard["slope"], "slope")))
        curves.append(ShardCurve.from_pairs(pairs))
    return tuple(curves)


def save_shardset(shards: ShardSet, path) -> None:
    _write_json(shardset_to_dict(shards), path)


def shardset_to_dict(shards: ShardSet) -> dict:
    return {
        "curves": [[{"size": s, "slope": a} for s, a in curve.shards] for curve in shards]
    }


def load_prices(path) -> tuple[float, ...]:
    """Load a price vector from JSON: {"prices": [...]}."""
    (raw_prices,) = _read_json(
        path, ("prices",), 'price file must be an object with a "prices" array')
    prices = [_require_number(p, "price") for p in raw_prices]
    return tuple(check_prices(prices, len(prices)).tolist())


def save_prices(prices, path) -> None:
    _write_json({"prices": list(prices)}, path)
