"""Nucleotide substitution (mutation) models.

The data-likelihood calculation (Section 2.4, Eqs. 19–21) needs the
probability ``P_XY(t)`` that nucleotide ``X`` mutates to nucleotide ``Y``
over a branch of length ``t``.  The paper's Eq. (20) is the Felsenstein 1981
model

    P_XY(t) = exp(-u t) * δ_XY + (1 - exp(-u t)) * π_Y,

while the synthetic data in the evaluation section are generated under the
F84 model (the ``-mF84`` flag passed to seq-gen).  This module implements
both, plus the two classic simpler models (JC69, K80) and HKY85, behind a
single :class:`MutationModel` interface that produces

* dense ``(4, 4)`` transition matrices for a scalar branch length, and
* batched ``(n_branches, 4, 4)`` transition matrices for an array of branch
  lengths (the shape the vectorized pruning kernel consumes).

All models are time-reversible and normalized so one unit of branch length
equals one expected substitution per site, which makes branch lengths
directly comparable across models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..sequences.alignment import NUCLEOTIDES

__all__ = [
    "MutationModel",
    "Felsenstein81",
    "JukesCantor69",
    "Kimura80",
    "F84",
    "HKY85",
    "GTR",
    "stationary_check",
]

Array = np.ndarray

_PURINES = np.array([True, False, True, False])  # A, G
_UNIFORM = np.full(4, 0.25)


class MutationModel(Protocol):
    """Interface every substitution model exposes."""

    base_frequencies: Array

    def transition_matrix(self, t: float) -> Array:
        """Return the ``(4, 4)`` matrix ``P[x, y] = P(X=x -> Y=y | t)``."""
        ...

    def transition_matrices(self, times: Array) -> Array:
        """Return ``(len(times), 4, 4)`` transition matrices."""
        ...


def _validate_frequencies(freqs: Array | None) -> Array:
    if freqs is None:
        return _UNIFORM.copy()
    arr = np.asarray(freqs, dtype=float)
    if arr.shape != (4,):
        raise ValueError("base_frequencies must have shape (4,) ordered A, C, G, T")
    if np.any(arr <= 0):
        raise ValueError("base frequencies must be strictly positive")
    return arr / arr.sum()


def _validated_times(times) -> Array:
    """Validate a branch-length vector (shared by all models)."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("branch lengths must be non-negative")
    return times


@dataclass(frozen=True)
class Felsenstein81:
    """Felsenstein (1981) model — the paper's Eq. (20).

    A single substitution "event" rate ``u``; on an event the new base is
    drawn from the stationary frequencies π.  The expected number of
    substitutions per unit time is ``u * (1 - Σ π_i²)``, so ``u`` is rescaled
    at construction to make branch lengths expected-substitutions.
    """

    base_frequencies: Array = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        freqs = _validate_frequencies(self.base_frequencies)
        object.__setattr__(self, "base_frequencies", freqs)
        rate = 1.0 - float(np.sum(freqs**2))
        object.__setattr__(self, "_event_rate", 1.0 / rate)

    def transition_matrix(self, t: float) -> Array:
        return self.transition_matrices(np.asarray([t]))[0]

    def transition_matrices(self, times: Array) -> Array:
        times = _validated_times(times)
        decay = np.exp(-self._event_rate * times)[:, None, None]  # type: ignore[attr-defined]
        eye = np.eye(4)[None, :, :]
        pi = np.broadcast_to(
            self.base_frequencies[None, None, :], (len(times), 4, 4)
        )
        return decay * eye + (1.0 - decay) * pi


@dataclass(frozen=True)
class JukesCantor69:
    """Jukes–Cantor (1969): equal base frequencies, single rate."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_frequencies", _UNIFORM.copy())

    def transition_matrix(self, t: float) -> Array:
        return self.transition_matrices(np.asarray([t]))[0]

    def transition_matrices(self, times: Array) -> Array:
        times = _validated_times(times)
        # P(same) = 1/4 + 3/4 exp(-4/3 t); P(diff) = 1/4 - 1/4 exp(-4/3 t)
        decay = np.exp(-4.0 / 3.0 * times)[:, None, None]
        same = 0.25 + 0.75 * decay
        diff = 0.25 - 0.25 * decay
        eye = np.eye(4)[None, :, :]
        return np.where(eye > 0, same, diff)


@dataclass(frozen=True)
class Kimura80:
    """Kimura (1980) two-parameter model: transition/transversion ratio κ."""

    kappa: float = 2.0

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        object.__setattr__(self, "base_frequencies", _UNIFORM.copy())

    def transition_matrix(self, t: float) -> Array:
        return self.transition_matrices(np.asarray([t]))[0]

    def transition_matrices(self, times: Array) -> Array:
        times = _validated_times(times)
        kappa = self.kappa
        # Normalize so one unit of time is one expected substitution per
        # site: with transition rate alpha and per-target transversion rate
        # beta, the leaving rate is alpha + 2 beta = 1 and alpha = kappa beta.
        beta = 1.0 / (kappa + 2.0)
        alpha = kappa * beta
        e_transversion = np.exp(-4.0 * beta * times)
        e_transition = np.exp(-2.0 * (alpha + beta) * times)
        p_same = 0.25 + 0.25 * e_transversion + 0.5 * e_transition
        p_transition = 0.25 + 0.25 * e_transversion - 0.5 * e_transition
        p_transversion = 0.25 - 0.25 * e_transversion  # per transversion target
        out = np.empty((len(times), 4, 4))
        for x in range(4):
            for y in range(4):
                if x == y:
                    out[:, x, y] = p_same
                elif _PURINES[x] == _PURINES[y]:
                    out[:, x, y] = p_transition
                else:
                    out[:, x, y] = p_transversion
        return out


class _GeneralReversible:
    """Shared machinery: eigen-decomposition of a reversible rate matrix."""

    def __init__(self, rate_matrix: Array, base_frequencies: Array) -> None:
        self.base_frequencies = base_frequencies
        q = np.array(rate_matrix, dtype=float)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        # Normalize to one expected substitution per unit time.
        mean_rate = -float(np.sum(base_frequencies * np.diag(q)))
        q /= mean_rate
        self._rate_matrix = q
        # Symmetrize: S = diag(sqrt(pi)) Q diag(1/sqrt(pi)) is symmetric for
        # reversible Q, giving a stable eigendecomposition.
        sqrt_pi = np.sqrt(base_frequencies)
        s = (sqrt_pi[:, None] * q) / sqrt_pi[None, :]
        eigval, eigvec = np.linalg.eigh((s + s.T) / 2.0)
        self._eigval = eigval
        self._right = eigvec / sqrt_pi[:, None]
        self._left = eigvec.T * sqrt_pi[None, :]

    @property
    def rate_matrix(self) -> Array:
        """The normalized instantaneous rate matrix Q."""
        return self._rate_matrix.copy()

    def transition_matrix(self, t: float) -> Array:
        return self.transition_matrices(np.asarray([t]))[0]

    def transition_matrices(self, times: Array) -> Array:
        times = _validated_times(times)
        expo = np.exp(times[:, None] * self._eigval[None, :])  # (T, 4)
        # P(t) = right @ diag(exp(lambda t)) @ left
        out = np.einsum("ik,tk,kj->tij", self._right, expo, self._left)
        # Numerical cleanup: clamp tiny negatives and renormalize rows.
        out = np.clip(out, 0.0, None)
        out = out / np.sum(out, axis=2, keepdims=True)
        return out


class HKY85(_GeneralReversible):
    """Hasegawa–Kishino–Yano (1985): unequal base frequencies + κ."""

    def __init__(self, base_frequencies: Array | None = None, kappa: float = 2.0) -> None:
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        freqs = _validate_frequencies(base_frequencies)
        self.kappa = kappa
        q = np.empty((4, 4))
        for x in range(4):
            for y in range(4):
                if x == y:
                    continue
                rate = freqs[y]
                if _PURINES[x] == _PURINES[y]:
                    rate *= kappa
                q[x, y] = rate
        super().__init__(q, freqs)


class F84(_GeneralReversible):
    """Felsenstein 1984 model — the model seq-gen's ``-mF84`` flag selects.

    Parametrized by base frequencies and the transition/transversion
    *ratio* parameter ``kappa_f84`` (often written as the expected
    transition/transversion ratio).  Internally expressed as an HKY-like
    rate matrix with purine/pyrimidine-specific transition boosts.
    """

    def __init__(self, base_frequencies: Array | None = None, kappa_f84: float = 2.0) -> None:
        if kappa_f84 < 0:
            raise ValueError("kappa_f84 must be non-negative")
        freqs = _validate_frequencies(base_frequencies)
        self.kappa_f84 = kappa_f84
        pi_a, pi_c, pi_g, pi_t = freqs
        pi_r = pi_a + pi_g  # purines
        pi_y = pi_c + pi_t  # pyrimidines
        q = np.empty((4, 4))
        for x in range(4):
            for y in range(4):
                if x == y:
                    continue
                rate = freqs[y]
                if _PURINES[x] == _PURINES[y]:
                    group = pi_r if _PURINES[y] else pi_y
                    rate *= 1.0 + kappa_f84 / group
                q[x, y] = rate
        super().__init__(q, freqs)


class GTR(_GeneralReversible):
    """General time-reversible model.

    The most general reversible nucleotide model: arbitrary stationary
    frequencies and six exchangeability parameters (AC, AG, AT, CG, CT, GT).
    Every other model in this module is a special case; the tests exercise
    those reductions.  Not used by the paper itself but routinely requested
    of coalescent samplers, and it comes essentially for free on top of the
    shared reversible-model machinery.
    """

    def __init__(
        self,
        base_frequencies: Array | None = None,
        exchangeabilities: Array | None = None,
    ) -> None:
        freqs = _validate_frequencies(base_frequencies)
        if exchangeabilities is None:
            rates = np.ones(6)
        else:
            rates = np.asarray(exchangeabilities, dtype=float)
            if rates.shape != (6,):
                raise ValueError(
                    "exchangeabilities must have shape (6,) ordered AC, AG, AT, CG, CT, GT"
                )
            if np.any(rates <= 0):
                raise ValueError("exchangeabilities must be strictly positive")
        self.exchangeabilities = rates
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        q = np.zeros((4, 4))
        for rate, (x, y) in zip(rates, pairs):
            q[x, y] = rate * freqs[y]
            q[y, x] = rate * freqs[x]
        super().__init__(q, freqs)


def stationary_check(model: MutationModel, t: float = 10.0, atol: float = 1e-6) -> bool:
    """Return True if π P(t) == π, i.e. the model's claimed frequencies are stationary."""
    p = model.transition_matrix(t)
    pi = np.asarray(model.base_frequencies)
    return bool(np.allclose(pi @ p, pi, atol=atol))


#: Mapping of model names (as accepted by the CLI and the sequence
#: simulator) to constructors.
MODEL_NAMES = {
    "F81": Felsenstein81,
    "JC69": JukesCantor69,
    "K80": Kimura80,
    "F84": F84,
    "HKY85": HKY85,
    "GTR": GTR,
}


def make_model(name: str, base_frequencies: Array | None = None, **kwargs) -> MutationModel:
    """Construct a mutation model by name (case-insensitive).

    ``base_frequencies`` is ignored by models that assume uniform
    frequencies (JC69, K80).
    """
    key = name.upper()
    if key not in MODEL_NAMES:
        raise ValueError(f"unknown mutation model {name!r}; choose from {sorted(MODEL_NAMES)}")
    cls = MODEL_NAMES[key]
    if cls in (JukesCantor69,):
        return cls(**kwargs)
    if cls is Kimura80:
        return cls(**kwargs)
    if cls is Felsenstein81:
        return cls(base_frequencies=base_frequencies, **kwargs)
    return cls(base_frequencies=base_frequencies, **kwargs)


__all__.append("make_model")
__all__.append("MODEL_NAMES")
assert len(NUCLEOTIDES) == 4
