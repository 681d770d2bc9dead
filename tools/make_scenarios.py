"""Build the bundled scenario files from fixed seeds.

    python3 tools/make_scenarios.py [OUTDIR]

Writes one canonical JSON file per name in ``catalog.SCENARIO_NAMES``, in
that order, to OUTDIR (default ``src/cstar_jensen/scenarios`` of the tree
this script sits in) and prints each path. The package is imported from
that tree's ``src``, so the files are built by the code they ship with.
A second argument exits 2 with the usage line. The runtime package never
imports this script; it only reads the files it wrote.

The catalog covers: an affine mapping passing every check, a constant
mapping over M_2, the sequence-space interleave pairs for five values of p,
a shift-morphism pair, a quadratic mapping that fails the Jensen equation
for a non-scalar coefficient, a bump perturbation caught by a sampler
forced through its site, and a non-self-adjoint coefficient with a
nontrivial intertwining kernel.

In the interleave scenarios the top-level coefficient is p itself while
the pair's internal coefficient is 1-p; the two play different roles (the
vector-level checks use the former, the pair displays the latter) and the
scalar reduction check needs exactly this alignment.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if __name__ == "__main__":
    # build with this tree's package, not with an installed one
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from cstar_jensen import algebra as alg  # noqa: E402
from cstar_jensen import hilbert as hb  # noqa: E402
from cstar_jensen import mappings as mp  # noqa: E402
from cstar_jensen.algebra import AlgebraShape, ModuleSpace  # noqa: E402
from cstar_jensen.catalog import SCENARIO_NAMES  # noqa: E402
from cstar_jensen.errors import ValidationError  # noqa: E402
from cstar_jensen.identities import CHECK_IDS  # noqa: E402
from cstar_jensen.jsonutil import canonical_dumps  # noqa: E402

USAGE = "usage: python3 tools/make_scenarios.py [OUTDIR]"


def mapping_to_obj(f: mp.Mapping) -> dict:
    """The wire form of a mapping tree, as mappings.mapping_from_obj reads it."""
    if isinstance(f, mp.Linear):
        # C[i][j] is sub-block (i, j) of T_k on every block k
        m_in, m_out, shape = f.domain.rank, f.codomain.rank, f.domain.algebra
        grids = [alg.coordinates(t.reshape(m_in, n, -1), m_out) for t, n in zip(f.transfer, shape)]
        return {
            "kind": "linear",
            "coeffs": [
                [alg.AlgebraElement(shape, [g[i, j] for g in grids]).to_obj() for j in range(m_out)]
                for i in range(m_in)
            ],
        }
    if isinstance(f, mp.Sum):
        return {"kind": "sum", "children": [mapping_to_obj(c) for c in f.children]}
    if isinstance(f, mp.Constant):
        return {"kind": "constant", "value": f.value.to_obj()}
    if isinstance(f, mp.QuadDiag):
        return {"kind": "quad_diag", "g": f.g.to_obj(), "scale": f.scale}
    if isinstance(f, mp.Bump):
        return {
            "kind": "perturb",
            "site": f.site.to_obj(),
            "delta": f.delta.to_obj(),
            "radius": f.radius,
        }
    raise ValidationError(f"cannot serialize mapping of type {type(f).__name__}")


def _random_element(shape: AlgebraShape, rng, spread: float = 0.5):
    blocks = [
        spread * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        for d in shape.block_dims
    ]
    return alg.AlgebraElement(shape, blocks)


def _random_affine(domain: ModuleSpace, codomain: ModuleSpace, rng) -> mp.Mapping:
    coeffs = [
        [_random_element(domain.algebra, rng) for _ in range(codomain.rank)]
        for _ in range(domain.rank)
    ]
    return mp.Sum([mp.Linear(coeffs), mp.Constant(domain, hb.sample_vector(codomain, rng))])


def _scalar_elem(shape: AlgebraShape, values) -> alg.AlgebraElement:
    """Diagonal element with one scalar per block."""
    return alg.AlgebraElement(
        shape, [complex(v) * np.eye(d) for v, d in zip(values, shape.block_dims)]
    )


def _coeff_obj(elem: alg.AlgebraElement, strict: bool = True) -> dict:
    return {**elem.to_obj(), "strict_order": strict}


def _inclusion_obj(shape: AlgebraShape, e_rank: int, column: int, d=None) -> dict:
    """JSON for the map A -> A^e_rank placing x . d into one coordinate."""
    return mapping_to_obj(mp.placed(shape, e_rank, [column], d))


def _affine_roundtrip() -> dict:
    shape = AlgebraShape((1, 1))
    rng = np.random.default_rng(1001)
    mapping = _random_affine(ModuleSpace(shape, 4), ModuleSpace(shape, 2), rng)
    return {
        "algebra": [1, 1],
        "coefficient": _coeff_obj(_scalar_elem(shape, [0.5, 0.5])),
        "spaces": {"F": 2, "E": 4, "G": 2},
        "pair": {"builder": "morphism_shift"},
        "mappings": [{"label": "affine", "map": mapping_to_obj(mapping)}],
        "checks": list(CHECK_IDS),
        "samples": 40,
        "seed": 7,
        "tol": 1e-9,
    }


def _constant_map() -> dict:
    shape = AlgebraShape((2,))
    space_g = ModuleSpace(shape, 1)
    rng = np.random.default_rng(1002)
    value = hb.sample_vector(space_g, rng)
    coefficient = alg.AlgebraElement(shape, [np.diag([0.3, 0.6])])
    half = _scalar_elem(shape, [0.5])
    # the top-level coefficient is not scalar, so the scalar reduction
    # check does not apply here
    checks = [cid for cid in CHECK_IDS if cid != "cor2.9-B-vanishes"]
    return {
        "algebra": [2],
        "coefficient": _coeff_obj(coefficient),
        "spaces": {"F": 1, "E": 2, "G": 1},
        "pair": {
            "phi": _inclusion_obj(shape, 2, 0),
            "psi": _inclusion_obj(shape, 2, 1),
            "a": half.to_obj(),
        },
        "mappings": [
            {
                "label": "constant",
                "map": mapping_to_obj(mp.Constant(ModuleSpace(shape, 2), value)),
            }
        ],
        "checks": checks,
        "samples": 30,
        "seed": 11,
        "tol": 1e-9,
    }


def _interleave(p: float, seed: int) -> dict:
    shape = AlgebraShape((1,))
    rng = np.random.default_rng(seed)
    mapping = _random_affine(ModuleSpace(shape, 8), ModuleSpace(shape, 1), rng)
    return {
        "algebra": [1],
        "coefficient": _coeff_obj(_scalar_elem(shape, [p])),
        "spaces": {"F": 4, "E": 8, "G": 1},
        "pair": {"builder": "interleave", "p": p},
        "mappings": [{"label": "affine", "map": mapping_to_obj(mapping)}],
        "checks": list(CHECK_IDS),
        "samples": 30,
        "seed": seed,
        "tol": 1e-9,
    }


def _morphism_shift() -> dict:
    shape = AlgebraShape((1,))
    rng = np.random.default_rng(1003)
    mapping = _random_affine(ModuleSpace(shape, 4), ModuleSpace(shape, 2), rng)
    return {
        "algebra": [1],
        "coefficient": _coeff_obj(_scalar_elem(shape, [0.5])),
        "spaces": {"F": 2, "E": 4, "G": 2},
        "pair": {"builder": "morphism_shift"},
        "mappings": [{"label": "affine", "map": mapping_to_obj(mapping)}],
        "checks": list(CHECK_IDS),
        "samples": 40,
        "seed": 13,
        "tol": 1e-9,
    }


def _quad_negative() -> dict:
    shape = AlgebraShape((1, 1))
    space_g = ModuleSpace(shape, 1)
    coefficient = _scalar_elem(shape, [1.0 / 3.0, 0.5])
    # balance forces <psi(e), psi(e)> = d d* with the weights below
    d = _scalar_elem(shape, [0.5, 1.0])
    quad = mp.QuadDiag(ModuleSpace(shape, 2), space_g.basis_vector(0), 1.0)
    return {
        "algebra": [1, 1],
        "coefficient": _coeff_obj(coefficient),
        "spaces": {"F": 1, "E": 2, "G": 1},
        "pair": {
            "phi": _inclusion_obj(shape, 2, 0),
            "psi": _inclusion_obj(shape, 2, 1, d),
            "a": coefficient.to_obj(),
        },
        "mappings": [{"label": "quad", "map": mapping_to_obj(quad)}],
        "checks": [
            "eq-1.1",
            "prop2.5-quadratic",
            "thm2.7-B-symmetric",
            "thm2.7-B-biadditive",
            "thm2.7-B-a-biadditive",
            "thm2.7-B-orth-preserving",
        ],
        "samples": 30,
        "seed": 17,
        "tol": 1e-9,
    }


def _perturb_negative() -> dict:
    shape = AlgebraShape((1,))
    space_e = ModuleSpace(shape, 2)
    space_g = ModuleSpace(shape, 1)
    site = space_e.basis_vector(0)
    other = space_e.basis_vector(1)
    delta = alg.vec_scale(space_g.basis_vector(0), 0.1)
    base = mp.Sum(
        [
            mp.Linear(
                [
                    [_scalar_elem(shape, [0.3])],
                    [_scalar_elem(shape, [0.2])],
                ]
            ),
            mp.Constant(space_e, alg.vec_scale(space_g.basis_vector(0), 0.1)),
        ]
    )
    bumped = mp.Sum([base, mp.Bump(site, delta, 0.05)])
    return {
        "algebra": [1],
        "coefficient": _coeff_obj(_scalar_elem(shape, [0.5])),
        "spaces": {"F": 1, "E": 2, "G": 1},
        "pair": None,
        "sampler": {
            "mode": "explicit",
            "pairs": [[site.to_obj(), other.to_obj()]],
        },
        "mappings": [{"label": "bumped-affine", "map": mapping_to_obj(bumped)}],
        "checks": [
            "eq-1.1",
            "lemma2.1-i",
            "lemma2.1-ii",
            "lemma2.1-iii",
            "lemma2.1-iv",
            "lemma2.1-v",
            "lemma2.1-vi",
        ],
        "samples": 12,
        "seed": 19,
        "tol": 1e-9,
    }


def _kernel_probe() -> dict:
    shape = AlgebraShape((1, 1))
    rng = np.random.default_rng(1004)
    mapping = _random_affine(ModuleSpace(shape, 2), ModuleSpace(shape, 1), rng)
    coefficient = alg.AlgebraElement(
        shape, [np.array([[0.5]]), np.array([[0.5 + 0.5j]])]
    )
    return {
        "algebra": [1, 1],
        "coefficient": _coeff_obj(coefficient, strict=False),
        "spaces": {"F": 1, "E": 2, "G": 1},
        "pair": {
            "phi": _inclusion_obj(shape, 2, 0),
            "psi": _inclusion_obj(shape, 2, 1),
            "a": coefficient.to_obj(),
        },
        "mappings": [{"label": "affine", "map": mapping_to_obj(mapping)}],
        "checks": [
            "eq-1.1",
            "lemma2.1-i",
            "lemma2.1-ii",
            "lemma2.1-iii",
            "lemma2.1-iv",
            "lemma2.1-v",
            "lemma2.1-vi",
        ],
        "samples": 20,
        "seed": 23,
        "tol": 1e-9,
    }


_BUILDERS = {
    "affine_roundtrip": _affine_roundtrip,
    "constant_map": _constant_map,
    "interleave_p010": lambda: _interleave(0.10, 21),
    "interleave_p025": lambda: _interleave(0.25, 22),
    "interleave_p050": lambda: _interleave(0.50, 23),
    "interleave_p075": lambda: _interleave(0.75, 24),
    "interleave_p090": lambda: _interleave(0.90, 25),
    "morphism_shift": _morphism_shift,
    "quad_negative": _quad_negative,
    "perturb_negative": _perturb_negative,
    "kernel_probe": _kernel_probe,
}


def build_scenario_obj(name: str) -> dict:
    """The JSON object for one bundled scenario, built from scratch."""
    if name not in _BUILDERS:
        raise ValidationError(f"unknown bundled scenario {name!r}")
    return _BUILDERS[name]()


def write_all(directory) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    written = []
    for name in SCENARIO_NAMES:
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(build_scenario_obj(name)))
            fh.write("\n")
        written.append(path)
    return written


if __name__ == "__main__":
    if len(sys.argv) > 2:
        print(USAGE, file=sys.stderr)
        raise SystemExit(2)
    out = sys.argv[1] if len(sys.argv) == 2 else SRC / "cstar_jensen" / "scenarios"
    for path in write_all(out):
        print(path)
