"""The ledger of known wrong verdicts: each test pins a verdict that the
verifier gets wrong today, with a margin, and its docstring names the
ROADMAP item that will close the gap. The change that closes a gap flips
its assert to the right verdict; a gap is never closed by editing this
file alone."""
import cstar_jensen as cj
from cstar_jensen import harness
from cstar_jensen import hilbert as hb

from support import cross_block_setup, haar_pairs

SAMPLES = 200


def eq_1_1_readings(weights):
    """eq-1.1's max_residual on the weighted kernel map of
    cross_block_setup, under the sampler a scenario gets when it names
    none, and on SAMPLES Haar-rotated pairs given as an explicit sampler."""
    a, pair, f = cross_block_setup(weights=weights)
    default = harness._sampler_from_obj(None, f.domain, pair)
    assert default.mode == "disjoint_support"
    haar = hb.explicit_sampler(f.domain, haar_pairs(f.domain, SAMPLES, 0))
    return tuple(
        cj.check_orthogonal_jensen(f, a, sampler, n=SAMPLES, seed=0).max_residual
        for sampler in (default, haar)
    )


def test_weighted_kernel_map_passes_eq_1_1_under_the_default_sampler():
    """ROADMAP item 1(a). f(x) = Psi(x_0 x_0^* + 3 x_1 x_1^*) is not
    orthogonally a-Jensen: on Haar-rotated orthogonal pairs eq-1.1 reads
    far above any tolerance. The default disjoint_support sampler never
    draws two orthogonal vectors that share a coordinate, and on its pairs
    the map reads rounding alone, so eq-1.1 passes. Item 1's generic
    sampler closes the gap; then the first reading fails."""
    on_disjoint, on_haar = eq_1_1_readings((1.0, 3.0))
    assert on_disjoint <= 1e-15
    assert on_haar >= 0.1


def test_unit_weighted_kernel_map_passes_on_both():
    """The control for item 1(a): with equal weights the map is
    Psi(<x, x>), orthogonally a-Jensen, and reads rounding on both
    samplers, so the Haar pairs fail eq-1.1 only where the map does."""
    on_disjoint, on_haar = eq_1_1_readings((1.0, 1.0))
    assert on_disjoint <= 1e-15
    assert on_haar <= 1e-15
