"""Scalar bound functions and decay-rate selection.

The decay estimates for Green blocks and gap eigenvectors are governed by a
rate gamma(zeta) built from a few scalar functions:

    psi(x)   = x^2 e^x          psi_tilde(x)   = x e^x
    psi_d(x) = x^2 / (1 - x)    psi_tilde_d(x) = x (2 - x) / (2 (1 - x))
    phi_delta(x) = 1/delta for 0 <= x < delta, 1/x for x >= delta
    w(x) = sqrt((x - r)(s - x))  for x in a spectral gap (r, s)

For a spectral point zeta with Re zeta in the gap, the rate is

    small-imaginary branch (|Im zeta| <= w(Re zeta) eps / 2):
        gamma = min( delta psi^{-1}( w^2 eps / (2 delta (s - r)) ),
                     delta psi_tilde^{-1}( w (1 - 2 eps) / (2 delta) ) )
    large-imaginary branch (otherwise):
        gamma = delta psi_tilde^{-1}( w eps (1 - eta) / (4 delta) )

with free parameters delta > 0, eps in (0, 1/2), eta in (0, 1).  The
"discrete" variant uses the rational pair psi_d / psi_tilde_d instead, and
the "simplified" variant replaces the whole expression by w (1/2 - eps') on
the small-imaginary branch and w eps'/4 otherwise (valid when the
off-diagonal norms grow without bound).

The transcendental inverses are the principal Lambert branch W0 (Corless et
al., Adv. Comput. Math. 5 (1996)): psi_tilde^{-1}(t) = W0(t) and
psi^{-1}(t) = 2 W0(sqrt(t)/2).  The inverses and gamma take a float or an
array, so ``best_delta`` scores its whole delta grid in one array pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError

SMALL_IMAGINARY = "small-imaginary"
LARGE_IMAGINARY = "large-imaginary"

#: the simplified rate is a strict upper bound; returned values are shaved by
#: this factor so they are always admissible
_SIMPLIFIED_SHAVE = 1.0 - 1e-9

DEFAULT_EPSILON = 0.25
DEFAULT_ETA = 0.5
#: eps' of the simplified rate when none is given
DEFAULT_EPS_PRIME = 0.01


@dataclass(frozen=True)
class GapInterval:
    """Open interval (r, s) of the real line disjoint from the essential spectrum."""

    r: float
    s: float

    def __post_init__(self):
        if not (self.r < self.s):
            raise ParameterError(f"gap needs r < s, got ({self.r}, {self.s})")

    @property
    def width(self) -> float:
        return self.s - self.r

    def contains(self, x: float) -> bool:
        return self.r < x < self.s


@dataclass(frozen=True)
class BoundParams:
    """Free parameters (delta, epsilon, eta) of the decay-rate formulas."""

    delta: float
    epsilon: float = DEFAULT_EPSILON
    eta: float = DEFAULT_ETA

    def __post_init__(self):
        if not self.delta > 0:
            raise ParameterError(f"delta must be > 0, got {self.delta}")
        if not 0.0 < self.epsilon < 0.5:
            raise ParameterError(f"epsilon must be in (0, 1/2), got {self.epsilon}")
        if not 0.0 < self.eta < 1.0:
            raise ParameterError(f"eta must be in (0, 1), got {self.eta}")


@dataclass(frozen=True)
class DecayRate:
    """A decay rate gamma with its branch tag and formula variant."""

    gamma: float
    branch: str    # SMALL_IMAGINARY or LARGE_IMAGINARY
    variant: str   # "continuous", "discrete" or "simplified"


# ---------------------------------------------------------------------------
# forward maps

def psi(x: float) -> float:
    """x^2 e^x for x > 0."""
    if not x > 0:
        raise DomainError(f"psi needs x > 0, got {x}")
    return x * x * math.exp(x)


def psi_tilde(x: float) -> float:
    """x e^x for x > 0."""
    if not x > 0:
        raise DomainError(f"psi_tilde needs x > 0, got {x}")
    return x * math.exp(x)


def psi_d(x: float) -> float:
    """x^2 / (1 - x) for 0 < x < 1 (rational analogue of psi)."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"psi_d needs 0 < x < 1, got {x}")
    return x * x / (1.0 - x)


def psi_tilde_d(x: float) -> float:
    """x (2 - x) / (2 (1 - x)) for 0 < x < 1 (rational analogue of psi_tilde)."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"psi_tilde_d needs 0 < x < 1, got {x}")
    return x * (2.0 - x) / (2.0 * (1.0 - x))


def phi_delta(delta: float, x: float) -> float:
    """Capped reciprocal: 1/delta for 0 <= x < delta, 1/x for x >= delta."""
    if not delta > 0:
        raise DomainError(f"phi_delta needs delta > 0, got {delta}")
    if x < 0:
        raise DomainError(f"phi_delta needs x >= 0, got {x}")
    return 1.0 / max(delta, x)


def phi_delta_array(delta: float, x) -> np.ndarray:
    """Vectorized phi_delta over an array of nonnegative norms."""
    if not delta > 0:
        raise DomainError(f"phi_delta needs delta > 0, got {delta}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("phi_delta needs x >= 0")
    return 1.0 / np.maximum(delta, x)


def w(gap: GapInterval, x: float) -> float:
    """sqrt((x - r)(s - x)) for x strictly inside the gap."""
    if not gap.contains(x):
        raise DomainError(f"w needs x in ({gap.r}, {gap.s}), got {x}")
    return math.sqrt((x - gap.r) * (gap.s - x))


# ---------------------------------------------------------------------------
# inverses (each takes a float or an array of t > 0 and keeps its shape)

#: Newton steps allowed in :func:`_lambert_w0`; it needs at most five
_W0_STEPS = 20


def _inverse(fn):
    """Validate 0 < t < inf elementwise; return a float for scalar input."""
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(t):
        arr = np.asarray(t, dtype=float)
        if not np.all((arr > 0) & (arr < math.inf)):   # NaN fails both
            raise DomainError(f"{name} needs finite t > 0, got {t}")
        x = fn(arr)
        return float(x) if np.ndim(x) == 0 else x

    return wrapper


def _lambert_w0(t):
    """W0(t) for finite t > 0, by Newton's method on x + log x = log t.

    The update x <- x (1 + log t - log x) / (1 + x) cannot overflow; after
    its first step the iterates increase monotonically to the root.  Each
    entry stops at its own relative step of 1e-13, so an array gives the
    same values as elementwise scalar calls.
    """
    log_t = np.log(t)
    log1p_t = np.log1p(t)
    x = np.where(t <= math.e, log1p_t / (1.0 + np.log1p(log1p_t) / 2.0),
                 log_t - np.log(np.maximum(log_t, 1.0)))
    done = np.zeros(np.shape(t), dtype=bool)
    for _ in range(_W0_STEPS):
        x_new = x * (1.0 + log_t - np.log(x)) / (1.0 + x)
        converged = np.abs(x_new - x) <= 1e-13 * x_new
        x = np.where(done, x, x_new)    # a converged entry takes no more steps
        done |= converged
        if done.all():
            return x
    raise ConvergenceError(f"Lambert W0: no convergence in {_W0_STEPS} steps")


@_inverse
def inv_psi(t):
    """Unique positive root of x^2 e^x = t: 2 W0(sqrt(t)/2)."""
    return 2.0 * _lambert_w0(np.sqrt(t) / 2.0)


@_inverse
def inv_psi_tilde(t):
    """Unique positive root of x e^x = t: W0(t)."""
    return _lambert_w0(t)


@_inverse
def inv_psi_d(t):
    """Root in (0, 1) of x^2/(1-x) = t, via the stable quadratic closed form."""
    root_t = np.sqrt(t)
    return 2.0 * root_t / (root_t + np.sqrt(t + 4.0))


@_inverse
def inv_psi_tilde_d(t):
    """Root in (0, 1) of x(2-x)/(2(1-x)) = t, via the stable closed form."""
    return t / ((0.5 + 0.5 * t) + np.hypot(0.5, 0.5 * t))


# ---------------------------------------------------------------------------
# decay rates

def _geometry(gap: GapInterval, zeta: complex, epsilon: float) -> tuple[float, str]:
    """(w(Re zeta), branch) after checking that Re zeta lies inside the gap."""
    zeta = complex(zeta)
    if not gap.contains(zeta.real):
        raise DomainError(f"Re zeta = {zeta.real} is not inside the gap ({gap.r}, {gap.s})")
    wx = w(gap, zeta.real)
    return wx, SMALL_IMAGINARY if abs(zeta.imag) <= wx * epsilon / 2.0 else LARGE_IMAGINARY


def branch_for(gap: GapInterval, zeta: complex, epsilon: float) -> str:
    """Branch test: small-imaginary iff |Im zeta| <= w(Re zeta) eps / 2."""
    return _geometry(gap, zeta, epsilon)[1]


_INVERSES = {"continuous": (inv_psi, inv_psi_tilde),
             "discrete": (inv_psi_d, inv_psi_tilde_d)}


def _gamma(delta, epsilon: float, eta: float, gap: GapInterval, zeta: complex,
           variant: str):
    """(gamma, branch) for a float or an array of delta; gamma has delta's shape."""
    wx, branch = _geometry(gap, zeta, epsilon)
    inv_sq, inv_lin = _INVERSES[variant]
    if branch == SMALL_IMAGINARY:
        g = np.minimum(delta * inv_sq(wx * wx * epsilon / (2.0 * delta * gap.width)),
                       delta * inv_lin(wx * (1.0 - 2.0 * epsilon) / (2.0 * delta)))
    else:
        g = delta * inv_lin(wx * epsilon * (1.0 - eta) / (4.0 * delta))
    return g, branch


def _rate(params: BoundParams, gap: GapInterval, zeta: complex, variant: str) -> DecayRate:
    g, branch = _gamma(params.delta, params.epsilon, params.eta, gap, zeta, variant)
    return DecayRate(gamma=float(g), branch=branch, variant=variant)


def gamma_continuous(params: BoundParams, gap: GapInterval, zeta: complex) -> DecayRate:
    """Decay rate with the transcendental inverses (psi, psi_tilde)."""
    return _rate(params, gap, zeta, "continuous")


def gamma_discrete(params: BoundParams, gap: GapInterval, zeta: complex) -> DecayRate:
    """Decay rate with the rational inverses (psi_d, psi_tilde_d)."""
    return _rate(params, gap, zeta, "discrete")


def gamma_simplified(gap: GapInterval, zeta: complex, eps_prime: float) -> DecayRate:
    """Delta-free simplified rate, valid when ||A_k|| grows without bound.

    The underlying estimate is a strict inequality, so the returned value is
    the supremum shaved by a relative 1e-9.
    """
    if not 0.0 < eps_prime < 0.5:
        raise ParameterError(f"eps_prime must be in (0, 1/2), got {eps_prime}")
    wx, branch = _geometry(gap, zeta, eps_prime)
    if branch == SMALL_IMAGINARY:
        g = wx * (0.5 - eps_prime)
    else:
        g = wx * eps_prime / 4.0
    return DecayRate(gamma=g * _SIMPLIFIED_SHAVE, branch=branch, variant="simplified")


def decay_rate(variant: str, params: BoundParams | None, gap: GapInterval,
               zeta: complex, eps_prime: float = DEFAULT_EPS_PRIME) -> DecayRate:
    """Dispatch on variant name ("continuous", "discrete", "simplified")."""
    if variant == "simplified":
        return gamma_simplified(gap, zeta, eps_prime)
    if variant in _INVERSES:
        if params is None:
            raise ParameterError(f"variant {variant!r} needs BoundParams")
        return _rate(params, gap, zeta, variant)
    raise ParameterError(f"unknown rate variant {variant!r}")


def default_delta_grid() -> np.ndarray:
    return np.logspace(-2.0, 4.0, 121)


def best_delta(template: BoundParams | None, gap: GapInterval, zeta: complex,
               norm_samples, variant: str = "continuous",
               deltas=None) -> tuple[float, float]:
    """Grid-search delta maximizing the total exponent gamma(delta) * sum phi_delta(||A_k||).

    gamma alone improves monotonically with delta, but phi_delta caps ever
    more terms at 1/delta, so the two effects compete; the product over the
    supplied norm samples is the quantity that actually enters the bound.
    The whole grid is evaluated in one array pass.  The first maximal finite
    exponent wins, so ties break toward the delta listed first (the smaller
    one on an ascending grid).  Returns (delta_star, exponent).
    """
    norms = np.sort(np.asarray(norm_samples, dtype=float).ravel())
    if norms.size == 0:
        raise ParameterError("best_delta needs at least one norm sample")
    if variant not in _INVERSES:
        raise ParameterError(f"best_delta variant must be continuous or discrete, got {variant!r}")
    eps = template.epsilon if template is not None else DEFAULT_EPSILON
    eta = template.eta if template is not None else DEFAULT_ETA
    grid = default_delta_grid() if deltas is None else np.asarray(deltas, dtype=float).ravel()
    if grid.size == 0:
        raise ParameterError("best_delta needs at least one delta")
    bad = grid[~(grid > 0)]
    if bad.size:
        raise ParameterError(f"delta must be > 0, got {float(bad[0])}")
    gamma, _ = _gamma(grid, eps, eta, gap, zeta, variant)
    # sum_k 1/max(d, a_k) = count(a_k < d) / d + sum_{a_k >= d} 1/a_k over
    # the sorted norms; norms below the smallest delta only ever enter the count
    below = np.searchsorted(norms, grid)
    tail = np.append(np.cumsum(1.0 / np.maximum(norms, grid.min())[::-1])[::-1], 0.0)
    exponent = gamma * (below / grid + tail[below])
    exponent[~np.isfinite(exponent)] = -math.inf    # never chosen
    k = int(np.argmax(exponent))
    return float(grid[k]), float(exponent[k])
