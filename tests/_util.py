import numpy as np

from ostrovsky.spectral import Field


def zero_field(grid):
    """The field that is 0 at every sample."""
    return Field(grid, np.zeros(grid.n_points, dtype=complex))


def random_mean_zero(grid, rng, band_fraction=0.25):
    """Random real field supported well inside the resolved band."""
    n = grid.n_points
    top = max(2, int(n // 2 * band_fraction))
    c = np.zeros(n, dtype=complex)
    m = np.arange(1, top)
    z = rng.standard_normal(m.size) + 1j * rng.standard_normal(m.size)
    c[m] = z
    c[-m] = np.conj(z)
    return Field(grid, c)


def propagated(field, t, symbol):
    """The free evolution e^{-i t phi(D)} of field, by PhaseSymbol.propagator."""
    return Field(field.grid, field.coeffs * symbol.propagator(t, field.grid.wavenumbers))


def assert_same_trajectory(a, b):
    """Two Trajectories bit for bit: traces, snapshots, counts, config."""
    for name in ("times", "l2", "hamiltonian", "hs", "xs"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert len(a.fields) == len(b.fields)
    for fa, fb in zip(a.fields, b.fields):
        assert np.array_equal(fa.coeffs, fb.coeffs)
        assert np.array_equal(fa.samples(), fb.samples())
    assert (a.n_steps, a.nonlinear_evaluations) == (b.n_steps, b.nonlinear_evaluations)
    assert a.config == b.config
