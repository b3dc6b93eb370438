"""Core domain types: spillover matrix, economy parameters, quality state.

All types are immutable after construction and validate their invariants
eagerly, so any instance that exists is safe to share between threads.
The row convention is fixed here once: entry (i, j) of a spillover matrix
is the spillover technology i RECEIVES from technology j, so the row
product F[i] @ q is the total inflow feeding R&D on technology i.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


class SpillnetError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SpillnetError):
    """Malformed model input (bad shapes, ranges, or values)."""


class DimensionMismatchError(ValidationError):
    """Matrix/vector sizes disagree or a matrix is not square."""


class NonFiniteEntryError(ValidationError):
    """An input contains NaN or infinity."""


class ParameterRangeError(ValidationError):
    """A scalar parameter is outside its admissible range."""


class PreconditionError(ValidationError):
    """The input does not have the structure an analysis requires."""


class NegativeProductivityError(SpillnetError):
    """Some row productivity F_i q + alpha is negative; shares undefined."""


class DegenerateEconomyError(SpillnetError):
    """All qualities are zero; market statics are undefined."""


class NumericalError(SpillnetError):
    """A numerical procedure failed (blow-up, non-convergence)."""


class IntegrationBlowupError(NumericalError):
    """Integrator produced a non-finite state or could not advance.

    last_good_time defaults to None so that pickle, which rebuilds an
    exception from its message alone and then restores its attributes,
    can carry the error across process boundaries.
    """

    def __init__(self, message: str, last_good_time: float | None = None):
        super().__init__(message)
        self.last_good_time = last_good_time


class InertTechnologyWarning(UserWarning):
    """Technologies whose quality can never change under the given model."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SpilloverMatrix:
    """N x N cross-technology interaction matrix (row = receiving technology)."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionMismatchError(
                f"spillover matrix must be square, got shape {entries.shape}"
            )
        if entries.shape[0] == 0:
            raise DimensionMismatchError("spillover matrix must be at least 1x1")
        if not np.all(np.isfinite(entries)):
            raise NonFiniteEntryError("spillover matrix contains non-finite entries")
        object.__setattr__(self, "entries", _as_readonly(entries))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def nonnegative(self) -> bool:
        # exact elementwise predicate, no tolerance
        return bool(self.entries.min() >= 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpilloverMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash(self.entries.tobytes())


@dataclass(frozen=True)
class EconomyParams:
    """Scalar parameters: R&D curvature nu, autonomous progress alpha,
    scientist supply s_total, demand scale c.  The production curvature
    beta is hard-fixed at 1/2 and is deliberately not a parameter."""

    nu: float
    alpha: float
    s_total: float
    c: float = 1.0

    def __post_init__(self):
        for name in ("nu", "alpha", "s_total", "c"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise NonFiniteEntryError(f"parameter {name} is not finite: {v!r}")
        if not 0.0 < self.nu < 1.0:
            raise ParameterRangeError(f"nu must lie strictly in (0, 1), got {self.nu}")
        if self.alpha < 0.0:
            raise ParameterRangeError(f"alpha must be >= 0, got {self.alpha}")
        if self.s_total <= 0.0:
            raise ParameterRangeError(f"s_total must be > 0, got {self.s_total}")
        if self.c <= 0.0:
            raise ParameterRangeError(f"c must be > 0, got {self.c}")


@dataclass(frozen=True)
class QualityState:
    """Technology qualities at a point in model time."""

    t: float
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1:
            raise DimensionMismatchError(f"quality vector must be 1-D, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise NonFiniteEntryError("quality vector contains non-finite entries")
        if np.any(q < 0):
            raise ParameterRangeError("qualities must be nonnegative")
        if not np.isfinite(self.t):
            raise NonFiniteEntryError(f"time is not finite: {self.t!r}")
        object.__setattr__(self, "q", _as_readonly(q))

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QualityState):
            return NotImplemented
        return self.t == other.t and np.array_equal(self.q, other.q)

    def __hash__(self):
        return hash((self.t, self.q.tobytes()))


@dataclass(frozen=True)
class MarketStatics:
    """Static production-side quantities at a given quality vector.

    Prices of zero-quality technologies are +inf sentinels; their indices
    are listed in `flagged_prices` rather than raised as errors, because a
    stagnating technology of vanishing relative size is a legitimate state.
    """

    wage: float
    labor: np.ndarray
    prices: np.ndarray
    profits: np.ndarray
    outputs: np.ndarray
    y_l: float
    flagged_prices: tuple[int, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class Model:
    """Validated bundle of (F, params, q0) with consistent dimensions."""

    matrix: SpilloverMatrix
    params: EconomyParams
    q0: QualityState

    @property
    def n(self) -> int:
        return self.matrix.n


def validate_model(
    matrix: SpilloverMatrix, params: EconomyParams, q0: QualityState
) -> Model:
    """Check cross-input consistency and return an immutable model handle.

    Emits InertTechnologyWarning for technologies that can never move:
    alpha = 0 together with an all-zero spillover row pins q_i forever.
    """
    if not isinstance(matrix, SpilloverMatrix):
        matrix = SpilloverMatrix(matrix)
    if not isinstance(q0, QualityState):
        q0 = QualityState(0.0, q0)
    if q0.n != matrix.n:
        raise DimensionMismatchError(
            f"quality vector has length {q0.n} but matrix is {matrix.n}x{matrix.n}"
        )
    if params.alpha == 0.0:
        inert = [i for i in range(matrix.n) if not np.any(matrix.entries[i])]
        if inert:
            warnings.warn(
                "technologies permanently inert (alpha = 0 and no incoming "
                f"spillovers): {inert}",
                InertTechnologyWarning,
                stacklevel=2,
            )
    return Model(matrix, params, q0)
