"""Shared generators for the test suite.

Structure (shapes, ranks) is drawn by hypothesis; numeric content comes
from seeded numpy generators so shrinking stays meaningful.
"""
import numpy as np
from hypothesis import strategies as st

import cstar_jensen as cj

SHAPES = [(1,), (2,), (1, 1), (2, 1), (3,)]


def random_element(shape, rng, spread=1.0):
    blocks = [
        spread * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        for d in shape.block_dims
    ]
    return cj.AlgebraElement(shape, blocks)


def random_self_adjoint(shape, rng, spread=1.0):
    x = random_element(shape, rng, spread)
    return cj.scale(cj.add(x, cj.adjoint(x)), 0.5)


def random_strict_coefficient(shape, rng):
    """Self-adjoint with spectrum inside [0.15, 0.85] on every block."""
    blocks = []
    for d in shape.block_dims:
        lam = rng.uniform(0.15, 0.85, d)
        q, _ = np.linalg.qr(
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        )
        blocks.append((q * lam) @ q.conj().T)
    return cj.validate_coefficient(
        cj.AlgebraElement(shape, blocks), require_strict_order=True
    )


def random_affine(domain, codomain, rng, spread=0.7):
    coeffs = [
        [random_element(domain.algebra, rng, spread) for _ in range(codomain.rank)]
        for _ in range(domain.rank)
    ]
    const = cj.sample_vector(codomain, rng)
    return cj.compose_jensen(cj.Linear(coeffs), None, const)


def seeds():
    return st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def shape_and_seed(draw):
    dims = draw(st.sampled_from(SHAPES))
    return cj.AlgebraShape(dims), draw(seeds())
