"""Seeded random generators for states, unitaries and measurement seeds."""

from __future__ import annotations

import numpy as np

from .linops import ProbeState, partial_trace


def generator(seed: int) -> np.random.Generator:
    """Philox-backed generator so seeded draws stay platform independent.  It stays on Philox
    while the samplers in ``mc`` draw from PCG64: moving it would change every seeded input that
    the tests and demos build from it."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag)).conj()


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_probe(dim: int, rng: np.random.Generator, rank: int | None = None) -> ProbeState:
    """Random probe; ``rank`` pins the exact Schmidt rank when given."""
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank}")
    e = np.zeros((dim, dim), dtype=complex)
    for _ in range(rank):
        e += np.outer(
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        )
    e /= np.sqrt(np.real(np.vdot(e, e)))
    return ProbeState(e)


def random_povm_seed(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random positive seed on the doubled space with Tr over the first factor = I."""
    g = rng.standard_normal((dim * dim, dim * dim)) + 1j * rng.standard_normal((dim * dim, dim * dim))
    t = g @ g.conj().T
    m = partial_trace(t, dim, dim)
    evals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(evals)) @ vecs.conj().T
    c = np.kron(np.eye(dim), inv_sqrt)
    s = c @ t @ c.conj().T
    return (s + s.conj().T) / 2.0
