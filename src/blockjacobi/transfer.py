"""Transfer and monodromy matrices, with closed-form analytics for the
constant (example2) and polynomially growing 2-periodic (example3) families.

The generalized eigenvector recurrence A_{n-1}^* u_{n-1} + B_n u_n
+ A_n u_{n+1} = zeta u_n propagates pairs (u_{n-1}, u_n) through

    M_n(zeta) = [[0, I], [-A_n^{-1} A_{n-1}^*, zeta A_n^{-1}]]     (B_n = 0)

and the 2-periodic monodromy matrix is W_n(zeta) = M_{2n} M_{2n-1}.  For the
example3 family the four monodromy eigenvalues split off the doubly
degenerate eigenvalues mu_+- of -A^{-1} A^* at order eps = (2n)^(-alpha):
omega = mu (1 + eps rho + O(eps^2)) with

    rho_+- = +- sqrt((c2 - c1)^2 - zeta^2 / (1 - x^2/4)).

rho real (secondary hyperbolic) inside the gap
(-|c2-c1| sqrt(1-x^2/4), +|c2-c1| sqrt(1-x^2/4)); purely imaginary
(secondary elliptic) strictly outside its closure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .boundfns import GapInterval
from .errors import DomainError, PairingError, ParameterError, SingularityError
from .operators import EntrySequence, example3_sequence

_DET_CONSISTENCY_TOL = 1e-8
#: nearest-mu pairing is ambiguous when the mu separation is below this
#: multiple of the observed perturbation size
_PAIRING_SEPARATION_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    zeta: complex
    n: int
    matrix: np.ndarray   # 2d x 2d


@dataclass(frozen=True, eq=False)
class MonodromyResult:
    n: int
    matrix: np.ndarray        # W_n(zeta) = M_{2n} M_{2n-1}
    eigenvalues: np.ndarray   # 2d values (4 for d = 2)
    moduli: np.ndarray


@dataclass(frozen=True, eq=False)
class AsymptoticData:
    """Measured monodromy splitting against the unperturbed eigenvalues."""

    mu_plus: complex
    mu_minus: complex
    rho_plus: complex
    rho_minus: complex
    epsilon: float            # (2n)^(-alpha)
    n: int
    rho_samples: np.ndarray   # all measured (omega/mu - 1)/eps values


def transfer_matrix(seq: EntrySequence, n: int, zeta: complex) -> TransferMatrix:
    """M_n(zeta) propagating (u_{n-1}, u_n) -> (u_n, u_{n+1}); needs n >= 2."""
    if n < 2:
        raise ParameterError(f"transfer matrix needs n >= 2 (uses A_(n-1)), got {n}")
    zeta = complex(zeta)
    d = seq.dim
    (A_prev, A_n), (_, B_n) = seq.blocks(n - 1, n + 1)
    if np.linalg.norm(B_n, 2) > 1e-12:
        raise ParameterError("transfer matrices are implemented for B_n = 0 families")
    cond = np.linalg.cond(A_n)
    if not np.isfinite(cond) or cond >= 1e12:
        raise SingularityError(f"A_{n} is singular or ill-conditioned (cond = {cond:.3e})")
    inv_a = np.linalg.inv(A_n)
    M = np.zeros((2 * d, 2 * d), dtype=complex)
    M[:d, d:] = np.eye(d)
    M[d:, :d] = -inv_a @ A_prev.conj().T
    M[d:, d:] = zeta * inv_a
    M.flags.writeable = False
    return TransferMatrix(zeta=zeta, n=n, matrix=M)


def monodromy(seq: EntrySequence, n: int, zeta: complex) -> MonodromyResult:
    """W_n(zeta) = M_{2n}(zeta) M_{2n-1}(zeta) with its eigenvalues; needs n >= 2."""
    if n < 2:
        raise ParameterError(f"monodromy needs n >= 2, got {n}")
    m_hi = transfer_matrix(seq, 2 * n, zeta)
    m_lo = transfer_matrix(seq, 2 * n - 1, zeta)
    W = m_hi.matrix @ m_lo.matrix
    det_w = np.linalg.det(W)
    det_prod = np.linalg.det(m_hi.matrix) * np.linalg.det(m_lo.matrix)
    scale = max(abs(det_prod), 1.0)
    if abs(abs(det_w) - abs(det_prod)) > _DET_CONSISTENCY_TOL * scale:
        raise ParameterError(
            f"monodromy determinant {det_w} inconsistent with transfer product {det_prod}")
    eigs = np.linalg.eigvals(W)
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    W = W.copy()
    W.flags.writeable = False
    eigs.flags.writeable = False
    return MonodromyResult(n=n, matrix=W, eigenvalues=eigs, moduli=np.abs(eigs))


# ---------------------------------------------------------------------------
# closed forms for the constant family (example2)

def example2_eigenvalues(x: float, zeta: complex) -> np.ndarray:
    """The four transfer eigenvalues mu = (zeta -+ x)/2 +- sqrt(((zeta -+ x)/2)^2 - 1)."""
    zeta = complex(zeta)
    out = []
    for sign in (-1.0, 1.0):
        b = (zeta + sign * x) / 2.0
        root = cmath.sqrt(b * b - 1.0)
        out.extend((b + root, b - root))
    return np.array(out)


def example2_min_decay(x: float, zeta: float) -> float:
    """Minimal per-step decay rate of a gap eigenvector of the constant family.

    For |x| > 2 and zeta in the gap (2 - |x|, |x| - 2) the slowest decaying
    solution contracts by q + sqrt(q^2 - 1) per block, q = (|x| - |zeta|)/2,
    so the rate is log of that; it vanishes like sqrt(eps) at distance eps
    from the gap edge.
    """
    if not abs(x) > 2.0:
        raise DomainError(f"example2 gap needs |x| > 2, got x = {x}")
    zeta = complex(zeta)
    if abs(zeta.imag) > 0:
        raise DomainError("example2_min_decay is defined for real zeta")
    z = zeta.real
    if not (2.0 - abs(x) < z < abs(x) - 2.0):
        raise DomainError(
            f"zeta = {z} outside the gap ({2.0 - abs(x)}, {abs(x) - 2.0})")
    q = abs(abs(z) - abs(x)) / 2.0
    return math.log(q + math.sqrt(q * q - 1.0))


# ---------------------------------------------------------------------------
# closed forms for the 2-periodic growing family (example3)

def example3_rho(c1: float, c2: float, x: float, zeta: complex) -> tuple[complex, complex]:
    """Second-order splitting coefficients rho_+- (principal square root)."""
    if not abs(x) < 2.0:
        raise DomainError(f"example3 needs |x| < 2, got x = {x}")
    zeta = complex(zeta)
    radicand = (c2 - c1) ** 2 - zeta * zeta / (1.0 - abs(x) ** 2 / 4.0)
    rho = complex(np.lib.scimath.sqrt(radicand))
    return rho, -rho


def example3_gap(c1: float, c2: float, x: float) -> GapInterval | None:
    """Gap (-h, h) with h = |c2 - c1| sqrt(1 - x^2/4); None when c1 == c2."""
    if not abs(x) < 2.0:
        raise DomainError(f"example3 needs |x| < 2, got x = {x}")
    half = abs(c2 - c1) * math.sqrt(1.0 - x * x / 4.0)
    if half == 0.0:
        return None
    return GapInterval(-half, half)


def example3_mu(x: float) -> tuple[complex, complex]:
    """Eigenvalues mu_+- of -A^{-1} A^* for A = [[1, x], [0, 1]]."""
    c = x * x / 2.0 - 1.0
    root = complex(np.lib.scimath.sqrt(c * c - 1.0))
    return c + root, c - root


def monodromy_splitting(c1: float, c2: float, x: float, alpha: float,
                        zeta: complex, n: int) -> AsymptoticData:
    """Measure the monodromy eigenvalue splitting of the example3 family.

    Computes W_n(zeta) numerically, divides out the scalar factor
    (1 - alpha/(2n)), pairs the four eigenvalues omega with the unperturbed
    mu_+- by nearest distance, and returns the measured
    rho_hat = (omega/mu - 1) * (2n)^alpha.  The returned rho_plus/rho_minus
    average the samples with positive/negative dominant part.
    """
    if n < 10:
        raise ParameterError(f"splitting measurement needs n >= 10, got {n}")
    seq = example3_sequence(x=x, alpha=alpha, c1=c1, c2=c2)
    result = monodromy(seq, n, zeta)
    scale = 1.0 - alpha / (2.0 * n)
    omegas = result.eigenvalues / scale
    mu_p, mu_m = example3_mu(x)
    if abs(mu_p * mu_m - 1.0) > 1e-10:
        raise ParameterError(f"unperturbed eigenvalue product {mu_p * mu_m} is not 1")
    eps = (2.0 * n) ** (-alpha)
    separation = abs(mu_p - mu_m)
    assigned = []
    for om in omegas:
        mu = mu_p if abs(om - mu_p) <= abs(om - mu_m) else mu_m
        assigned.append((om, mu))
    perturbation = max(abs(om - mu) for om, mu in assigned)
    if separation > 1e-12:
        if separation < _PAIRING_SEPARATION_FACTOR * perturbation:
            raise PairingError(
                f"mu separation {separation:.3e} is below {_PAIRING_SEPARATION_FACTOR} x "
                f"the perturbation size {perturbation:.3e}; cannot pair eigenvalues")
        counts = sum(1 for _, mu in assigned if mu is mu_p)
        if counts != 2:
            raise PairingError(
                f"nearest-mu pairing put {counts} of 4 eigenvalues on mu_plus")
    rho_hat = np.array([(om / mu - 1.0) / eps for om, mu in assigned])
    if np.max(np.abs(rho_hat.real)) >= np.max(np.abs(rho_hat.imag)):
        keys = rho_hat.real
    else:
        keys = rho_hat.imag
    pos = rho_hat[keys > 0]
    neg = rho_hat[keys <= 0]
    if pos.size == 0 or neg.size == 0:
        ordered = rho_hat[np.lexsort((rho_hat.imag, rho_hat.real))]
        rho_plus, rho_minus = complex(ordered[-1]), complex(ordered[0])
    else:
        rho_plus, rho_minus = complex(np.mean(pos)), complex(np.mean(neg))
    rho_hat.flags.writeable = False
    return AsymptoticData(mu_plus=mu_p, mu_minus=mu_m, rho_plus=rho_plus,
                          rho_minus=rho_minus, epsilon=eps, n=n,
                          rho_samples=rho_hat)


def classify_splitting(data: AsymptoticData, dominance: float = 10.0) -> str:
    """Classify the measured splitting as secondary hyperbolic or elliptic.

    "secondary-hyperbolic" when |Re rho| dominates |Im rho| by the given
    ratio (growth/decay of solutions, spectral gap), "secondary-elliptic"
    when the imaginary part dominates (oscillation, essential spectrum),
    "indeterminate" otherwise (e.g. at the gap edge).
    """
    rho = data.rho_plus
    re, im = abs(rho.real), abs(rho.imag)
    if re >= dominance * im:
        return "secondary-hyperbolic"
    if im >= dominance * re:
        return "secondary-elliptic"
    return "indeterminate"
