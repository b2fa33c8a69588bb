"""Block entry sequences and finite truncations of block Jacobi matrices.

A block Jacobi operator is determined by two sequences of d x d blocks:
Hermitian diagonal blocks B_n and off-diagonal blocks A_n, n >= 1.  An
:class:`EntrySequence` is a deterministic rule n -> (A_n, B_n); a finite
N-block section of the block-tridiagonal matrix is produced by
:func:`assemble_truncation`.

Built-in families:

``constant``
    A_n = A, B_n = B for all n.
``example1``
    d = 2 upper-triangular blocks A_n = [[eps_n, lam_n], [0, eps_n]], B_n = 0,
    with lam_n and eps_n given by scalar rules of n.
``example2``
    d = 2 constant blocks A = [[1, x], [0, 1]], B = 0 (periodic operator).
``example3``
    A_n = (n**alpha + c_n) * [[1, x], [0, 1]] with c_n alternating between
    c1 (odd n) and c2 (even n); B_n = 0.  Requires alpha in (1/2, 1), |x| < 2.
``explicit-list``
    Blocks taken from an explicit prefix, optionally continued by a constant
    tail pair.
``custom``
    Arbitrary callable n -> (A_n, B_n); not JSON-serializable.

Each sequence generates, validates and measures its blocks once.
:meth:`EntrySequence.blocks` returns read-only views of one kept pair of
(A, B) stacks that holds blocks 1..K: the prefix, then blocks generated as
whole stacks by the family's entry of ``_BLOCK_STACKS`` (``example1`` and
``custom`` evaluate their rules once per n inside their entries).  A range
past K is generated, validated and appended once; a range that starts
beyond K + 1 is generated on its own and not kept.
:meth:`EntrySequence.norms` keeps ||A_k|| the same way, so the overlapping
ranges an experiment reads (commuting check, norms, envelope windows, the N
and 2N sections) neither regenerate a block nor measure it twice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParameterError

HERMITICITY_TOL = 1e-12

_JSON_FAMILIES = ("explicit-list", "constant", "example1", "example2", "example3")
_FAMILIES = _JSON_FAMILIES + ("custom",)


# ---------------------------------------------------------------------------
# block and scalar coercion helpers

def as_block(value, dim: int | None = None, what: str = "block") -> np.ndarray:
    """Coerce ``value`` to a square complex block, validating shape and finiteness."""
    arr = np.atleast_2d(np.asarray(value, dtype=complex))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ParameterError(f"{what} must be a square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ParameterError(f"{what} must be {dim}x{dim}, got {arr.shape[0]}x{arr.shape[0]}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ParameterError(f"{what} contains non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def hermitian_deviation(M: np.ndarray):
    """max |M - M^*| of a block, or per block of a (..., d, d) stack."""
    return np.max(np.abs(M - M.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)


def _require_hermitian(B: np.ndarray, what: str, first: int = 0) -> None:
    """Raise unless B is Hermitian; block i of an (n, d, d) stack B is
    named ``what.format(first + i)``, so errors name the first bad block."""
    dev = np.atleast_1d(hermitian_deviation(B))
    bad = np.flatnonzero(dev > HERMITICITY_TOL)
    if bad.size:
        raise ParameterError(f"{what.format(first + bad[0])} is not Hermitian "
                             f"(deviation {dev[bad[0]]:.3e} > {HERMITICITY_TOL:.0e})")


def _as_stack(values, dim: int, what: str, first: int) -> np.ndarray:
    """Validated read-only (n, d, d) stack of ``values`` (a list of blocks or
    a complex stack, used in place), whose block i is named
    ``what.format(first + i)`` in errors."""
    try:
        stack = np.asarray(values, dtype=complex)
    except (TypeError, ValueError):
        stack = None
    if stack is None or stack.shape != (len(values), dim, dim):
        # ragged or scalar blocks: coerce one by one to report the first bad shape
        stack = np.array([as_block(v, dim, what.format(first + i))
                          for i, v in enumerate(values)], dtype=complex)
        stack = stack.reshape(-1, dim, dim)
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
    if bad.size:
        raise ParameterError(f"{what.format(first + bad[0])} contains non-finite entries")
    stack.flags.writeable = False
    return stack


def _scalar_from_json(v):
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ParameterError(f"complex scalar must be [re, im], got {v!r}")
        return complex(v[0], v[1])
    return complex(v)


def _real_scalar(v, what: str) -> float:
    c = _scalar_from_json(v) if isinstance(v, (list, tuple)) else complex(v)
    if abs(c.imag) > 0:
        raise ParameterError(f"{what} must be real, got {c}")
    return float(c.real)


def matrix_from_json(rows, dim: int | None = None, what: str = "matrix") -> np.ndarray:
    """Decode a matrix serialized as nested lists with [re, im] complex entries."""
    data = [[_scalar_from_json(e) for e in row] for row in rows]
    return as_block(np.array(data, dtype=complex), dim, what)


def matrix_to_json(M: np.ndarray) -> list:
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[[float(e.real), float(e.imag)] for e in row] for row in M]


# ---------------------------------------------------------------------------
# scalar rules of n (used by the example1 family)

def make_rule(spec):
    """Coerce a rule spec into a callable of n.

    Accepts a number (constant rule), a callable, or a dict with a ``kind``
    key: ``zero``, ``constant(value)``, ``power(scale, exponent, offset)``
    giving scale * n**exponent + offset, or ``geometric(scale, base)`` giving
    scale * base**n.  Scalar fields may be [re, im] pairs.
    """
    if callable(spec):
        return spec
    if isinstance(spec, (int, float, complex)):
        value = complex(spec)
        return lambda n: value
    if isinstance(spec, (list, tuple)):
        value = _scalar_from_json(spec)
        return lambda n: value
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "zero":
            return lambda n: 0j
        if kind == "constant":
            value = _scalar_from_json(spec["value"])
            return lambda n: value
        if kind == "power":
            scale = _scalar_from_json(spec.get("scale", 1.0))
            expo = float(spec.get("exponent", 1.0))
            offset = _scalar_from_json(spec.get("offset", 0.0))
            return lambda n: scale * n**expo + offset
        if kind == "geometric":
            scale = _scalar_from_json(spec.get("scale", 1.0))
            base = _scalar_from_json(spec.get("base", 2.0))
            return lambda n: scale * base**n
        raise ParameterError(f"unknown rule kind {kind!r}")
    raise ParameterError(f"cannot interpret rule spec {spec!r}")


def _rule_to_json(spec):
    if callable(spec):
        raise ParameterError("callable rules are not JSON-serializable")
    return spec


# ---------------------------------------------------------------------------
# entry sequences

@dataclass(frozen=True, eq=False)
class EntrySequence:
    """Deterministic rule producing the blocks (A_n, B_n) of a block Jacobi matrix.

    Blocks with index n <= len(prefix) are taken from ``prefix`` (1-based),
    which allows finite-rank modifications of any family, e.g. replacing B_1.
    """

    dim: int
    family: str
    params: dict = field(default_factory=dict)
    prefix: tuple = ()
    tail: tuple | None = None
    #: validated read-only (A, B) stacks of blocks 1..K, kept by :meth:`blocks`
    _kept: tuple = field(init=False, repr=False)
    #: read-only ||A_k|| for k = 1..L (L <= K), kept by :meth:`norms`
    _norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError(f"block dimension must be >= 1, got {self.dim}")
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        object.__setattr__(self, "params", dict(self.params))
        validator = _VALIDATORS.get(self.family)
        if validator is not None:
            validator(self.dim, self.params)
        A = _as_stack([a for a, _ in self.prefix], self.dim, "prefix A_{}", 1)
        B = _as_stack([b for _, b in self.prefix], self.dim, "prefix B_{}", 1)
        _require_hermitian(B, "prefix B_{}", 1)
        object.__setattr__(self, "prefix", tuple(zip(A, B)))
        object.__setattr__(self, "_kept", (A, B))
        object.__setattr__(self, "_norms", np.zeros(0))
        if self.tail is not None:
            A, B = self.tail
            A = as_block(A, self.dim, "tail A")
            B = as_block(B, self.dim, "tail B")
            _require_hermitian(B, "tail B")
            object.__setattr__(self, "tail", (A, B))
        if self.family == "explicit-list" and not self.prefix and self.tail is None:
            raise ParameterError("explicit-list sequence needs a prefix or a tail")

    def blocks(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (hi - lo, d, d) stacks of A_n and B_n for n in [lo, hi).

        The blocks come from the kept stacks of blocks 1..K, which start as
        the prefix.  A range that ends past K extends them: the blocks
        n = K+1..hi-1 are generated once, by the family's ``_BLOCK_STACKS``
        entry, and validated once (shape, finiteness, Hermitian B_n) before
        they are kept; errors name the first bad index.  A range that starts
        beyond K + 1 is generated and validated on its own and not kept, so
        a single far block does not generate every block before it.
        """
        if lo < 1:
            raise ParameterError(f"block index must be >= 1, got {lo}")
        if hi < lo:
            raise ParameterError(f"block range [{lo}, {hi}) is reversed")
        A, B = self._kept
        end = len(A) + 1                    # first index not kept
        if lo > end and hi > lo:
            return self._generate(lo, hi)
        if hi > end:
            A, B = (np.concatenate(pair) for pair in zip(self._kept, self._generate(end, hi)))
            A.flags.writeable = B.flags.writeable = False
            object.__setattr__(self, "_kept", (A, B))
        return A[lo - 1:hi - 1], B[lo - 1:hi - 1]

    def _generate(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Validated read-only stacks of the blocks n in [lo, hi), past the prefix."""
        A, B = _BLOCK_STACKS[self.family](self, lo, hi)
        A = _as_stack(A, self.dim, "A_{}", lo)
        B = _as_stack(B, self.dim, "B_{}", lo)
        _require_hermitian(B, "B_{}", lo)
        return A, B

    def block(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (A_n, B_n) for n >= 1."""
        A, B = self.blocks(n, n + 1)
        return A[0], B[0]

    def a(self, n: int) -> np.ndarray:
        return self.block(n)[0]

    def b(self, n: int) -> np.ndarray:
        return self.block(n)[1]

    def norms(self, upto: int) -> np.ndarray:
        """Read-only spectral norms ||A_k|| for k = 1..upto.

        Kept like the blocks: a batched SVD runs only on the blocks past the
        ones measured before.
        """
        if upto < 1:
            raise ParameterError(f"norm horizon must be >= 1, got {upto}")
        kept = self._norms
        if upto > len(kept):
            A = self.blocks(len(kept) + 1, upto + 1)[0]
            kept = np.concatenate((kept, np.linalg.svd(A, compute_uv=False)[:, 0]))
            kept.flags.writeable = False
            object.__setattr__(self, "_norms", kept)
        return kept[:upto]


def _copies(block: np.ndarray, count: int) -> np.ndarray:
    return np.repeat(block[None], count, axis=0)


def _stack_example1(seq, lo, hi):
    A = []
    for n in range(lo, hi):
        lam = seq.params["_lambda_fn"](n)
        eps = seq.params["_eps_fn"](n)
        if abs(complex(eps).imag) > HERMITICITY_TOL:
            raise ParameterError(f"example1 eps rule must be real, got {eps} at n={n}")
        e = complex(eps).real
        A.append(np.array([[e, lam], [0.0, e]], dtype=complex))
    return A, np.zeros((hi - lo, 2, 2), dtype=complex)


def _stack_custom(seq, lo, hi):
    pairs = [seq.params["fn"](n) for n in range(lo, hi)]
    return [a for a, _ in pairs], [b for _, b in pairs]


def _stack_constant(seq, lo, hi):
    return _copies(seq.params["A"], hi - lo), _copies(seq.params["B"], hi - lo)


def _stack_example2(seq, lo, hi):
    A = np.array([[1.0, seq.params["x"]], [0.0, 1.0]], dtype=complex)
    return _copies(A, hi - lo), np.zeros((hi - lo, 2, 2), dtype=complex)


def _stack_example3(seq, lo, hi):
    p = seq.params
    # Python's float pow (libm): numpy's power differs from it in the last
    # ulp for some n
    scale = np.array([n ** p["alpha"] + (p["c1"] if n % 2 == 1 else p["c2"])
                      for n in range(lo, hi)])
    # an infinite c1 or c2 gives NaN entries, which the stack check reports
    with np.errstate(invalid="ignore", over="ignore"):
        A = scale[:, None, None] * np.array([[1.0, p["x"]], [0.0, 1.0]], dtype=complex)
    return A, np.zeros((hi - lo, 2, 2), dtype=complex)


def _stack_explicit(seq, lo, hi):
    if seq.tail is None:
        raise ParameterError(
            f"explicit-list sequence has {len(seq.prefix)} blocks and no tail; "
            f"block {lo} requested"
        )
    return _copies(seq.tail[0], hi - lo), _copies(seq.tail[1], hi - lo)


#: family -> (seq, lo, hi) -> the blocks n in [lo, hi) past the prefix, as
#: (hi - lo, d, d) stacks or lists of blocks, validated by the caller
_BLOCK_STACKS = {
    "constant": _stack_constant,
    "example1": _stack_example1,
    "example2": _stack_example2,
    "example3": _stack_example3,
    "explicit-list": _stack_explicit,
    "custom": _stack_custom,
}


def _validate_constant(dim, params):
    params["A"] = as_block(params["A"], dim, "constant A")
    params["B"] = as_block(params["B"], dim, "constant B")
    _require_hermitian(params["B"], "constant B")


def _validate_example1(dim, params):
    if dim != 2:
        raise ParameterError("example1 family has 2x2 blocks")
    params["_lambda_fn"] = make_rule(params.get("lambda_rule", {"kind": "power"}))
    params["_eps_fn"] = make_rule(params.get("eps_rule", {"kind": "zero"}))


def _validate_example2(dim, params):
    if dim != 2:
        raise ParameterError("example2 family has 2x2 blocks")
    params["x"] = _real_scalar(params.get("x", 0.0), "example2 x")


def _validate_example3(dim, params):
    if dim != 2:
        raise ParameterError("example3 family has 2x2 blocks")
    x = _real_scalar(params.get("x", 0.0), "example3 x")
    alpha = _real_scalar(params.get("alpha", 0.75), "example3 alpha")
    if not (0.5 < alpha < 1.0):
        raise ParameterError(f"example3 requires alpha in (1/2, 1), got {alpha}")
    if not abs(x) < 2.0:
        raise ParameterError(f"example3 requires |x| < 2, got x = {x}")
    params["x"] = x
    params["alpha"] = alpha
    params["c1"] = _real_scalar(params.get("c1", 0.0), "example3 c1")
    params["c2"] = _real_scalar(params.get("c2", 0.0), "example3 c2")


def _validate_custom(dim, params):
    if not callable(params.get("fn")):
        raise ParameterError("custom family needs a callable 'fn' parameter")


_VALIDATORS = {
    "constant": _validate_constant,
    "example1": _validate_example1,
    "example2": _validate_example2,
    "example3": _validate_example3,
    "custom": _validate_custom,
}


# convenience constructors ---------------------------------------------------

def constant_sequence(A, B) -> EntrySequence:
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    return EntrySequence(dim=A.shape[0], family="constant", params={"A": A, "B": B})


def example1_sequence(lambda_rule=None, eps_rule=None) -> EntrySequence:
    params = {}
    if lambda_rule is not None:
        params["lambda_rule"] = lambda_rule
    if eps_rule is not None:
        params["eps_rule"] = eps_rule
    return EntrySequence(dim=2, family="example1", params=params)


def example2_sequence(x: float) -> EntrySequence:
    return EntrySequence(dim=2, family="example2", params={"x": x})


def example3_sequence(x: float, alpha: float, c1: float, c2: float) -> EntrySequence:
    return EntrySequence(dim=2, family="example3",
                         params={"x": x, "alpha": alpha, "c1": c1, "c2": c2})


def explicit_sequence(blocks, tail=None, dim: int | None = None) -> EntrySequence:
    blocks = tuple(blocks)
    if dim is None:
        if blocks:
            dim = np.atleast_2d(np.asarray(blocks[0][0])).shape[0]
        elif tail is not None:
            dim = np.atleast_2d(np.asarray(tail[0])).shape[0]
        else:
            raise ParameterError("explicit sequence needs blocks, a tail, or a dim")
    return EntrySequence(dim=dim, family="explicit-list", prefix=blocks, tail=tail)


def custom_sequence(fn, dim: int) -> EntrySequence:
    return EntrySequence(dim=dim, family="custom", params={"fn": fn})


def with_prefix(seq: EntrySequence, blocks) -> EntrySequence:
    """Return a copy of ``seq`` whose first blocks are overridden by ``blocks``."""
    return EntrySequence(dim=seq.dim, family=seq.family, params=seq.params,
                         prefix=tuple(blocks), tail=seq.tail)


# ---------------------------------------------------------------------------
# truncations

@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Hermitian (N d) x (N d) finite section of the block Jacobi matrix.

    Held as block stacks: ``a_blocks[k - 1]`` = A_k (k = 1..N-1) sits at
    block (k, k+1) and its adjoint at (k+1, k); ``b_blocks[k - 1]`` = B_k
    (k = 1..N) on the diagonal; everything else is exactly zero (plain
    Dirichlet cut).  The section is Hermitian because every B_k is, which
    construction checks on the B stack.  ``sequence`` keeps the producing
    rule so refinements to larger N can be assembled on demand.
    """

    a_blocks: np.ndarray          # (N - 1, d, d)
    b_blocks: np.ndarray          # (N, d, d)
    sequence: EntrySequence | None = None

    def __post_init__(self):
        n, d = self.b_blocks.shape[:2]
        if self.b_blocks.shape != (n, d, d) or self.a_blocks.shape != (n - 1, d, d):
            raise ParameterError(
                f"block stacks must be (N-1, d, d) and (N, d, d), got "
                f"{self.a_blocks.shape} and {self.b_blocks.shape}")
        _require_hermitian(self.b_blocks, "B_{}", 1)

    @property
    def n_blocks(self) -> int:
        return self.b_blocks.shape[0]

    @property
    def dim(self) -> int:
        return self.b_blocks.shape[1]


def assemble_truncation(seq: EntrySequence, n_blocks: int) -> TruncatedOperator:
    """Assemble the N-block Dirichlet truncation of the block Jacobi matrix."""
    if n_blocks < 2:
        raise ParameterError(f"need at least 2 blocks, got {n_blocks}")
    a_blocks, b_blocks = seq.blocks(1, n_blocks + 1)
    return TruncatedOperator(a_blocks=a_blocks[:-1], b_blocks=b_blocks, sequence=seq)


# ---------------------------------------------------------------------------
# Carleman diagnostic

@dataclass(frozen=True)
class CarlemanDiagnostic:
    partial_sum: float
    verdict: str          # "divergent-looking" or "inconclusive"
    horizon: int


def carleman_check(seq: EntrySequence, horizon: int) -> CarlemanDiagnostic:
    """Advisory check of the divergence of sum 1/||A_k||.

    Divergence of the series is a sufficient criterion for self-adjointness
    of the infinite operator.  The verdict is a heuristic: the series "looks
    divergent" when the second half of the partial sum still contributes at
    least 5% of the total (or some ||A_k|| vanishes, making a term infinite).
    Never blocks any computation.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    nrm = seq.norms(horizon)
    with np.errstate(divide="ignore"):
        terms = np.where(nrm > 0.0, 1.0 / np.where(nrm > 0.0, nrm, 1.0), math.inf)
    total = float(np.sum(terms))
    if math.isinf(total):
        return CarlemanDiagnostic(partial_sum=math.inf, verdict="divergent-looking",
                                  horizon=horizon)
    if horizon >= 2:
        head = float(np.sum(terms[: (horizon + 1) // 2]))
        verdict = "divergent-looking" if total - head >= 0.05 * total else "inconclusive"
    else:
        verdict = "inconclusive"
    return CarlemanDiagnostic(partial_sum=total, verdict=verdict, horizon=horizon)


# ---------------------------------------------------------------------------
# JSON interchange

def load_operator(source) -> EntrySequence:
    """Build an :class:`EntrySequence` from a JSON file path, file object, or dict.

    Schema::

        { "dim": d, "family": "<name>", "params": {...},
          "prefix": [ {"A": [[ [re,im], ... ]], "B": [[...]]}, ... ],
          "tail": {"A": ..., "B": ...} }

    Complex matrix entries are [re, im] pairs (bare reals are also accepted
    on input).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    elif isinstance(source, dict):
        data = source
    else:
        data = json.load(source)
    family = data.get("family")
    if family not in _JSON_FAMILIES:
        raise ParameterError(f"operator JSON family must be one of {_JSON_FAMILIES}, got {family!r}")
    dim = int(data.get("dim", 2))
    params = dict(data.get("params", {}))
    if family == "constant":
        params["A"] = matrix_from_json(params["A"], dim, "constant A")
        params["B"] = matrix_from_json(params["B"], dim, "constant B")
    prefix = tuple(
        (matrix_from_json(entry["A"], dim, "prefix A"),
         matrix_from_json(entry["B"], dim, "prefix B"))
        for entry in data.get("prefix", ())
    )
    tail = data.get("tail")
    if tail is not None:
        tail = (matrix_from_json(tail["A"], dim, "tail A"),
                matrix_from_json(tail["B"], dim, "tail B"))
    return EntrySequence(dim=dim, family=family, params=params, prefix=prefix, tail=tail)


def operator_to_json(seq: EntrySequence) -> dict:
    """Serialize a sequence back to the operator JSON schema."""
    if seq.family == "custom":
        raise ParameterError("custom sequences are not JSON-serializable")
    params = {}
    for key, value in seq.params.items():
        if key.startswith("_"):
            continue
        if isinstance(value, np.ndarray):
            params[key] = matrix_to_json(value)
        elif key in ("lambda_rule", "eps_rule"):
            params[key] = _rule_to_json(value)
        else:
            params[key] = value
    out = {"dim": seq.dim, "family": seq.family, "params": params}
    if seq.prefix:
        out["prefix"] = [{"A": matrix_to_json(A), "B": matrix_to_json(B)}
                         for A, B in seq.prefix]
    if seq.tail is not None:
        out["tail"] = {"A": matrix_to_json(seq.tail[0]), "B": matrix_to_json(seq.tail[1])}
    return out
