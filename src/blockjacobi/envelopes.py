"""Decay envelopes multiplying the constant in each bound.

Three envelope styles are provided for a window of block indices between m
and j (the sum or product always runs over k in [min(m,j), max(m,j) - 1],
which is empty for m = j).  Each is a prefix sum over one block sequence,
so m and j may be integer arrays, evaluated on every window they broadcast to.

* scalar: exp(-gamma * sum phi_delta(||A_k||)), from a CumulativeProfile;
* operator-valued (commuting entries): exp(+gamma * sum phi_delta(|A_k|))
  applied spectrally to |A_k| = (A_k^* A_k)^(1/2) -- this is the multiplier
  that keeps ||envelope . G_mj|| bounded, and it can be sharper than the
  scalar bound direction by direction;
* discrete: the product of factors (1 - gamma/||A_k||) over the window
  clipped at n0, the first index after which gamma/||A_k|| stays below 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundfns import DecayRate, phi_delta_array
from .errors import DomainError, ParameterError, PreconditionError
from .operators import EntrySequence

COMMUTATOR_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CumulativeProfile:
    """Terms phi_delta(||A_k||) with prefix sums; delta == 0.0 marks raw reciprocals."""

    delta: float
    terms: np.ndarray     # terms[k-1] = phi_delta(||A_k||), k = 1..p
    prefix: np.ndarray    # prefix[p] = sum of first p terms, prefix[0] = 0

    @property
    def horizon(self) -> int:
        return len(self.terms)

    def window_sum(self, m, j):
        """Sum of the terms over each window; m and j broadcast as integer arrays."""
        lo, hi = np.minimum(m, j), np.maximum(m, j)
        if np.any(lo < 1) or np.any(hi - 1 > self.horizon):
            raise ParameterError(
                f"window ({m}, {j}) outside profile horizon {self.horizon}")
        return self.prefix[hi - 1] - self.prefix[lo - 1]


def _profile_from_terms(delta: float, terms: np.ndarray) -> CumulativeProfile:
    prefix = np.concatenate([[0.0], np.cumsum(terms)])
    terms = terms.copy()
    terms.flags.writeable = False
    prefix.flags.writeable = False
    return CumulativeProfile(delta=delta, terms=terms, prefix=prefix)


def cumulative_phi(seq: EntrySequence, delta: float, upto: int,
                   norms=None) -> CumulativeProfile:
    """Profile of phi_delta(||A_k||) for k = 1..upto (spectral norms)."""
    if upto < 1:
        raise ParameterError(f"profile horizon must be >= 1, got {upto}")
    nrm = seq.norms(upto) if norms is None else np.asarray(norms, dtype=float)[:upto]
    return _profile_from_terms(float(delta), phi_delta_array(delta, nrm))


def cumulative_reciprocal(seq: EntrySequence, upto: int,
                          norms=None) -> CumulativeProfile:
    """Profile of raw reciprocals 1/||A_k|| (the simplified-rate envelope)."""
    if upto < 1:
        raise ParameterError(f"profile horizon must be >= 1, got {upto}")
    nrm = seq.norms(upto) if norms is None else np.asarray(norms, dtype=float)[:upto]
    if np.any(nrm <= 0.0):
        raise DomainError("reciprocal profile needs strictly positive ||A_k||")
    return _profile_from_terms(0.0, 1.0 / nrm)


def scalar_envelope(rate: DecayRate, profile: CumulativeProfile, m, j):
    """exp(-gamma * sum_{k=min(m,j)}^{max(m,j)-1} phi_delta(||A_k||)); 1 for m = j."""
    return np.exp(-rate.gamma * profile.window_sum(m, j))


# ---------------------------------------------------------------------------
# operator-valued envelope (commuting entries)

def abs_block(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition (singular values s, unitary U) of |A| = (A^* A)^(1/2).

    A may be a (..., d, d) stack.  Eigenvalues of A^* A that round off
    slightly negative are clamped at 0.
    """
    vals, vecs = np.linalg.eigh(A.conj().swapaxes(-1, -2) @ A)
    return np.sqrt(np.clip(vals, 0.0, None)), vecs


def phi_delta_spectral(delta: float, A: np.ndarray) -> np.ndarray:
    """phi_delta applied spectrally to |A|: U diag(phi_delta(s)) U^*, stackwise."""
    s, U = abs_block(A)
    return (U * phi_delta_array(delta, s)[..., None, :]) @ U.conj().swapaxes(-1, -2)


def operator_envelope(rate: DecayRate, seq: EntrySequence, delta: float,
                      m, j) -> np.ndarray:
    """exp(+gamma * sum_{k=min}^{max-1} phi_delta(|A_k|)), Hermitian positive definite.

    m and j broadcast as integer arrays to the leading shape of the result.
    Window sums are differences of one prefix sum, exponentiated by one ``eigh``.
    """
    lo, hi = np.minimum(m, j), np.maximum(m, j)
    if np.any(lo < 1):
        raise ParameterError(f"window ({m}, {j}) out of range")
    terms = phi_delta_spectral(delta, seq.blocks(1, int(np.max(hi)))[0])
    prefix = np.concatenate([np.zeros((1, seq.dim, seq.dim), dtype=complex),
                             np.cumsum(terms, axis=0)])
    vals, vecs = np.linalg.eigh(prefix[hi - 1] - prefix[lo - 1])
    E = (vecs * np.exp(rate.gamma * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return 0.5 * (E + E.conj().swapaxes(-1, -2))


def commuting_check(seq: EntrySequence, upto: int) -> tuple[bool, float]:
    """Largest pairwise commutator norm among {A_k, B_k, A_k^*, k <= upto}.

    Returns (ok, max_commutator) with ok true iff the maximum is <= 1e-10,
    i.e. the commuting-entry hypothesis holds on the sampled range.

    The commutator is bilinear, so the maximum is first bounded through a
    Frobenius-orthonormal basis E_a of the operators' span (at most d^2
    matrices, from an SVD; no direction is dropped): with X_i = sum_a
    c_ia E_a, every ||[X_i, X_k]|| <= sum_ab p_a p_b ||[E_a, E_b]||, where
    p_a = max_i |c_ia|.  Matrix entries that vanish in every operator are
    left out of the basis, so diagonal families get an exactly diagonal basis
    and a bound of exactly 0.  When the bound is within the tolerance it is
    returned; otherwise every operator is commuted with all later ones (one
    batched product each) and the exact maximum is returned.
    """
    if upto < 1:
        raise ParameterError(f"upto must be >= 1, got {upto}")
    A, B = seq.blocks(1, upto + 1)
    d = seq.dim
    ops = np.stack([A, B, A.conj().swapaxes(-1, -2)], axis=1).reshape(-1, d, d)
    flat = ops.reshape(len(ops), d * d)
    support = np.flatnonzero(np.any(flat != 0, axis=0))
    _, _, vh = np.linalg.svd(flat[:, support], full_matrices=False)
    peak = np.max(np.abs(flat[:, support] @ vh.conj().T), axis=0)
    basis = np.zeros((len(vh), d * d), dtype=complex)
    basis[:, support] = vh
    basis = basis.reshape(-1, d, d)
    E, F = basis[:, None], basis[None, :]
    bound = float(peak @ np.linalg.norm(E @ F - F @ E, 2, axis=(-2, -1)) @ peak)
    if bound <= COMMUTATOR_TOL:
        return True, bound
    worst = 0.0
    for i, X in enumerate(ops[:-1]):
        rest = ops[i + 1:]
        comm = np.linalg.norm(X @ rest - rest @ X, 2, axis=(-2, -1))
        worst = max(worst, float(np.max(comm)))
    return worst <= COMMUTATOR_TOL, worst


# ---------------------------------------------------------------------------
# discrete product envelope

@dataclass(frozen=True, eq=False)
class ProductProfile:
    """Product envelope prod (1 - gamma/||A_k||) over [max(min(m,j), n0), max(m,j)-1].

    ``n0`` and ``value`` have the broadcast shape of the windows (m, j).
    """

    gamma: float
    n0: np.ndarray
    value: np.ndarray


def discrete_envelope(rate: DecayRate, seq: EntrySequence, m, j,
                      norms=None) -> ProductProfile:
    """Discrete envelope for the windows between m and j (broadcast arrays).

    Per window, n0 is the smallest index after which gamma/||A_k|| < 1 holds
    for every sampled k (samples run through max(m,j)-1, or the single index
    1 when m = j = 1); factors with k < n0 are clipped away, exactly as in
    the product bound.  If the last sampled index of a window violates the
    condition there is no valid n0: PreconditionError, naming the first such
    window in row-major order.  Values are a cumulative log1p(-gamma/||A_k||).
    """
    lo, hi = np.minimum(m, j), np.maximum(m, j)
    if np.any(lo < 1):
        raise ParameterError(f"window ({m}, {j}) out of range")
    horizon = np.maximum(hi - 1, 1)
    top = int(np.max(horizon))
    nrm = seq.norms(top) if norms is None else np.asarray(norms, dtype=float)[:top]
    with np.errstate(divide="ignore", over="ignore"):   # subnormal norms give inf
        ratios = np.where(nrm > 0.0, rate.gamma / np.where(nrm > 0.0, nrm, 1.0), np.inf)
    bad = ratios >= 1.0
    last_bad = np.maximum.accumulate(np.where(bad, np.arange(1, top + 1), 0))
    n0 = last_bad[horizon - 1] + 1
    failed = np.flatnonzero(n0 > horizon)
    if failed.size:
        h = int(horizon.flat[failed[0]])
        raise PreconditionError(
            f"gamma = {rate.gamma:.6g} is not below ||A_k|| anywhere in the sampled "
            f"range (last ||A_{h}|| = {nrm[h - 1]:.6g}); no valid n0")
    logs = np.concatenate([[0.0], np.cumsum(np.log1p(-np.where(bad, 0.0, ratios)))])
    value = np.exp(logs[hi - 1] - logs[np.maximum(lo, n0) - 1])
    return ProductProfile(gamma=rate.gamma, n0=n0, value=value)
