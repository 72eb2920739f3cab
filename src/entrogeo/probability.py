"""Finite probability distributions and the constructions entropies quantify over.

A distribution on W outcomes is a vector p = (p_1, ..., p_W) with p_i >= 0 and
sum p_i = 1.  Validation is strict and never renormalizes: a vector either is a
distribution at the stated tolerance or construction fails.  The module also
provides the product p (x) q (independent joint, row-major) and JSON/CSV
loading for the CLI.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import InitVar, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidArgument, LengthMismatch, NegativeWeight, SumNotOne

#: |sum(p) - 1| allowed when constructing in memory.
SIMPLEX_TOL = 1e-12

#: Default tolerance for distributions read from files (round-trips lose digits).
FILE_TOL = 1e-9


@dataclass(frozen=True)
class ProbDist:
    """A probability vector, validated at construction.

    Weights are stored exactly as given (as float64), never renormalized.
    The array is frozen, so instances are safe to share between threads.
    `tol` must be >= 0: a nan or negative one raises InvalidArgument.
    """

    weights: np.ndarray
    tol: InitVar[float] = SIMPLEX_TOL

    def __post_init__(self, tol: float) -> None:
        if not tol >= 0.0:  # a nan tolerance would pass every sum
            raise InvalidArgument(f"tol must be a non-negative number, got {tol}")
        w = np.array(self.weights, dtype=float, copy=True).reshape(-1)
        if w.size == 0:
            raise LengthMismatch("a distribution needs at least one outcome")
        if not np.all(np.isfinite(w)):
            raise NegativeWeight("weights must be finite")
        if np.any(w < 0.0):
            raise NegativeWeight(f"negative weight at index {int(np.argmin(w))}")
        deviation = abs(float(w.sum()) - 1.0)
        if deviation > tol:
            raise SumNotOne(deviation, tol)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        """Number of outcomes W."""
        return int(self.weights.size)

    def __len__(self) -> int:
        return self.size


def validate(weights: Sequence[float] | np.ndarray, tol: float = SIMPLEX_TOL) -> ProbDist:
    """Validate a weight sequence at tolerance `tol` and wrap it."""
    return ProbDist(np.asarray(weights, dtype=float), tol)


def uniform(size: int) -> ProbDist:
    """The uniform distribution on `size` outcomes."""
    if size < 1:
        raise LengthMismatch(f"need at least one outcome, got {size}")
    return ProbDist(np.full(size, 1.0 / size))


def product(p: ProbDist, q: ProbDist) -> ProbDist:
    """Independent joint distribution p (x) q, flattened row-major.

    Entry (i-1)*len(q) + j holds p_i * q_j, so the blocks of the result walk
    through q for each fixed outcome of p.
    """
    return ProbDist(np.outer(p.weights, q.weights).reshape(-1))


def loads_distribution(text: str, tol: float = FILE_TOL) -> ProbDist:
    """Parse a distribution from JSON (`{"weights": [...]}`) or single-column CSV."""
    stripped = text.strip()
    if not stripped:
        raise LengthMismatch("empty distribution input")
    try:
        doc = json.loads(stripped)
    except json.JSONDecodeError:
        return validate(_csv_column(stripped), tol)
    if not isinstance(doc, dict) or "weights" not in doc:
        raise LengthMismatch('JSON distribution must be an object with a "weights" key')
    weights = doc["weights"]
    # numpy would read true as 1 and "0.5" as 0.5; map(type) keeps the scan in C
    if not isinstance(weights, list) or not {bool, str}.isdisjoint(map(type, weights)):
        raise LengthMismatch('"weights" must be a list of numbers')
    try:
        array = np.asarray(weights, dtype=float)
    except (TypeError, ValueError) as exc:  # non-numeric entries or a ragged nest
        raise LengthMismatch('"weights" must be a list of numbers') from exc
    if array.ndim != 1:
        raise LengthMismatch(f'"weights" must be a flat list of numbers, got shape {array.shape}')
    return validate(array, tol)


def load_distribution(path: str | Path, tol: float = FILE_TOL) -> ProbDist:
    """Load a distribution file (JSON object or single-column CSV) of UTF-8 text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LengthMismatch(f"distribution file {str(path)!r} is not UTF-8 text: {exc}") from exc
    return loads_distribution(text, tol)


def _csv_column(text: str) -> np.ndarray:
    values = []
    for row in csv.reader(io.StringIO(text)):
        cells = [c.strip() for c in row if c.strip()]
        if not cells:
            continue
        if len(cells) != 1:
            raise LengthMismatch(f"expected one column, got row {row!r}")
        try:
            values.append(float(cells[0]))
        except ValueError as exc:
            raise LengthMismatch(f"not a number: {cells[0]!r}") from exc
    if not values:
        raise LengthMismatch("no numeric rows in CSV input")
    return np.asarray(values, dtype=float)
