"""The dense oracle: the (N d) x (N d) matrix of a truncation.

The library works on the block stacks and their band storage only; the
tests build the dense section here to check every band path against
numpy's dense solvers, at small N.
"""

import numpy as np


def dense(op) -> np.ndarray:
    """The (N d) x (N d) matrix of the truncation ``op``; O((N d)^2) memory."""
    n, d = op.n_blocks, op.dim
    M = np.zeros((n, d, n, d), dtype=complex)
    k = np.arange(n)
    M[k, :, k, :] = op.b_blocks
    M[k[:-1], :, k[1:], :] = op.a_blocks
    M[k[1:], :, k[:-1], :] = op.a_blocks.conj().transpose(0, 2, 1)
    return M.reshape(n * d, n * d)
