import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtree import (
    ValidationError,
    ac_bands,
    band_theta,
    cut_seed_disk,
    edge_step_m,
    fixed_point_R,
    fixed_point_batch,
    gamma_clean,
    iterate_m_map,
    m_from_r,
    sqrt_upper,
    stationary_disk,
    vertex_merge_m,
)
from oracles import iterate_m_grid

BAND0_A = 0.11548912502732907
BAND0_B = 7.849835249797229


def _bands_oracle(K, L, n_max):
    # independent extended-precision evaluation of the band endpoints
    with mpmath.workdps(60):
        th = mpmath.atan((mpmath.sqrt(K) - 1 / mpmath.sqrt(K)) / 2)
        out = []
        for n in range(n_max + 1):
            a = ((mpmath.pi * n + th) / L) ** 2
            b = ((mpmath.pi * (n + 1) - th) / L) ** 2
            out.append((float(a), float(b)))
    return out


def test_band_theta():
    assert band_theta(1) == 0.0
    assert abs(band_theta(2) - 0.3398369094541219) < 1e-16
    with pytest.raises(ValidationError):
        band_theta(0)


@pytest.mark.parametrize("K", [2, 3, 4])
@pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
def test_ac_bands_against_oracle(K, L):
    bands = ac_bands(K, L, 3)
    oracle = _bands_oracle(K, L, 3)
    assert len(bands.intervals) == 4
    for (a, b), (ea, eb) in zip(bands.intervals, oracle):
        assert abs(a - ea) <= 1e-12 * max(1.0, abs(ea))
        assert abs(b - eb) <= 1e-12 * max(1.0, abs(eb))


def test_band0_frozen_endpoints():
    bands = ac_bands(2, 1.0, 0)
    a, b = bands.intervals[0]
    assert abs(a - BAND0_A) < 1e-14
    assert abs(b - BAND0_B) < 1e-13


def test_k1_bands_tile_the_half_line():
    bands = ac_bands(1, 1.0, 2)
    assert bands.theta == 0.0
    for n, (a, b) in enumerate(bands.intervals):
        assert abs(a - (math.pi * n) ** 2) < 1e-10
        assert abs(b - (math.pi * (n + 1)) ** 2) < 1e-10


def test_band_membership():
    bands = ac_bands(2, 1.0, 1)
    assert bands.contains(2.0)
    assert bands.band_index(2.0) == 0
    assert not bands.contains(8.0)
    assert bands.band_index(8.0) is None
    assert bands.band_index(13.0) == 1


def test_ac_bands_validation():
    with pytest.raises(ValidationError):
        ac_bands(2, 0.0, 1)
    with pytest.raises(ValidationError):
        ac_bands(2, 1.0, -1)


def test_fixed_point_residual_randomized():
    rng = np.random.default_rng(7)
    for _ in range(100):
        K = int(rng.integers(1, 5))
        L = float(rng.uniform(0.3, 2.5))
        e = float(rng.uniform(0.1, 20.0))
        eta = float(10 ** rng.uniform(-4, 0.5))
        fp = fixed_point_R(complex(e, eta), K, L)
        assert fp.residual < 1e-12
        assert fp.phi.imag > 0.0


def test_fixed_point_frozen_gamma_values():
    # extended-precision oracle values for the K = 2, L = 1 tree
    assert abs(gamma_clean(complex(2.0, 0.1), 2, 1.0) - 0.03754540560662644) < 1e-12
    assert abs(gamma_clean(complex(2.0, 0.01), 2, 1.0) - 0.003755842215864702) < 1e-12


def test_boundary_in_band_vs_gap():
    # inside a band the boundary fixed point keeps Im > 0; in a gap it is real
    fp_in = fixed_point_R(complex(2.0, 0.0), 2, 1.0)
    assert fp_in.phi.imag > 1e-3
    fp_gap = fixed_point_R(complex(9.0, 0.0), 2, 1.0)
    assert abs(fp_gap.phi.imag) < 1e-12
    bands = ac_bands(2, 1.0, 1)
    assert not bands.contains(9.0)


def test_boundary_band_scan():
    bands = ac_bands(2, 1.0, 0)
    a, b = bands.intervals[0]
    interior = np.linspace(a, b, 202)[1:-1]
    for e in interior:
        fp = fixed_point_R(complex(float(e), 0.0), 2, 1.0)
        assert fp.phi.imag > 1e-3
    for e in np.linspace(b + 0.05, (math.pi + bands.theta) ** 2 - 0.05, 50):
        fp = fixed_point_R(complex(float(e), 0.0), 2, 1.0)
        assert abs(fp.phi.imag) < 1e-3


def test_k1_gamma_vanishes():
    for e in (0.5, 2.0, 11.0):
        assert abs(gamma_clean(complex(e, 0.0), 1, 1.0)) < 1e-12
    assert gamma_clean(complex(2.0, 0.0), 2, 1.0) >= -1e-13


def test_gamma_nonnegative_randomized():
    rng = np.random.default_rng(3)
    for _ in range(200):
        K = int(rng.integers(1, 5))
        e = float(rng.uniform(0.1, 30.0))
        eta = float(10 ** rng.uniform(-6, 1.0))
        assert gamma_clean(complex(e, eta), K, 1.0) >= -1e-13
    # the energies E = (n*pi)^2, where the edge phase is 1 at L = 1
    for K in (1, 2, 3, 4):
        for n in (1, 2, 3):
            for eta in (0.0, 1e-13, 1e-6):
                assert gamma_clean(complex((n * math.pi) ** 2, eta), K, 1.0) >= -1e-13


def test_degenerate_sin_zero():
    # At E = (n*pi/L)^2 the edge phase is q = 1 and the disk quadratic has
    # the roots m = +-1.  For K >= 2 the attracting one is m = 1 (Phi at
    # infinity) with multiplier 1/K, so gamma0 = log(K)/2, continuous with
    # the gap energies beside it; the repelling m = -1 is Phi = 0.
    for L in (1.0, 0.7):
        for n in (1, 2):
            e = (n * math.pi / L) ** 2
            for K in (2, 3):
                for z in (complex(e, 0.0), complex(e, 1e-13)):
                    assert abs(gamma_clean(z, K, L) - 0.5 * math.log(K)) < 1e-9
                    assert abs(fixed_point_R(z, K, L).m - 1.0) < 1e-12
                for z in (complex(e * (1.0 - 1e-9), 0.0), complex(e * (1.0 + 1e-9), 0.0)):
                    assert abs(gamma_clean(z, K, L) - 0.5 * math.log(K)) < 1e-9
            # K = 1 keeps the free decaying value Phi = i*w
            fp1 = fixed_point_R(complex(e, 0.0), 1, L)
            assert abs(fp1.phi - complex(0.0, n * math.pi / L)) < 1e-8


def _phi_oracle(z, K, L):
    # extended-precision roots of the fixed-point quadratic, same selection rule
    with mpmath.workdps(40):
        w = mpmath.sqrt(mpmath.mpc(z))
        c, s = mpmath.cos(w * L), mpmath.sin(w * L)
        roots = mpmath.polyroots([K * s / w, (K - 1) * c, w * s], maxsteps=200, extraprec=60)
        upper = [r for r in roots if r.imag > 0]
        if len(upper) == 1:
            return complex(upper[0])
        return complex(min(roots, key=lambda r: abs(c + r * s / w)))


def test_batch_matches_scalar():
    E = np.linspace(0.3, 7.5, 40)
    for K in (1, 2, 3):
        batch = fixed_point_batch(E, 0.01, K, 1.0)
        for i, e in enumerate(E):
            z = complex(float(e), 0.01)
            expect = _phi_oracle(z, K, 1.0)
            assert abs(batch.phi[i] - expect) < 1e-12 * max(1.0, abs(expect))
            assert fixed_point_R(z, K, 1.0).phi == batch.phi[i]
        assert np.all(batch.residual < 1e-12)


def test_batch_boundary_with_degenerate_point():
    E = np.array([2.0, math.pi**2, 11.0])
    batch = fixed_point_batch(E, 0.0, 2, 1.0)
    assert batch.phi[0].imag > 1e-3
    # the attracting root m = 1 (Phi at infinity), not the repelling Phi = 0
    assert abs(batch.m[1] - 1.0) < 1e-12
    assert abs(batch.phi[1]) > 1e12
    assert np.all(np.isfinite(batch.m.view(float)))
    assert np.all(batch.residual < 1e-13)


@settings(max_examples=200, deadline=None)
@given(
    K=st.integers(1, 4),
    L=st.floats(0.3, 3.0),
    e=st.floats(0.05, 60.0),
    eta=st.one_of(st.just(0.0), st.floats(-8.0, 6.0).map(lambda x: 10.0**x)),
)
def test_disk_root_is_the_attracting_fixed_point(K, L, e, eta):
    # Warnings are errors in the body only (a filterwarnings mark would
    # also catch hypothesis's own report).
    z = complex(e, eta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fp = fixed_point_R(z, K, L)
        assert abs(fp.m) <= 1.0 + 1e-12
        assert fp.residual < 1e-13
        if eta > 0:
            step = edge_step_m(vertex_merge_m([fp.m] * K, z), L, z)
            assert abs(step - fp.m) <= 1e-12


def test_shift_off_band_edge():
    bands = ac_bands(2, 1.0, 0)
    a0 = bands.intervals[0][0]
    fp = fixed_point_R(complex(a0, 0.0), 2, 1.0)
    assert fp.shifted
    assert fp.z_used != complex(a0, 0.0)
    fp_mid = fixed_point_R(complex(2.0, 0.0), 2, 1.0)
    assert not fp_mid.shifted


def test_gamma_translation_symmetry():
    # gamma depends on z only through x = sqrt(z)*L, with period pi in x
    L = 1.0
    for z in [complex(2.0, 0.3), complex(5.0, 0.05), complex(1.1, 1.0)]:
        x = sqrt_upper(z) * L
        z_shift = ((x + math.pi) / L) ** 2
        g1 = gamma_clean(z, 2, L)
        g2 = gamma_clean(z_shift, 2, L)
        assert abs(g1 - g2) < 1e-8 * max(1.0, abs(g1))


def test_gamma_length_scaling():
    # gamma(z, L) = gamma(z*(L/L')^2, L') since only x = sqrt(z)*L enters
    z = complex(2.0, 0.2)
    g1 = gamma_clean(z, 3, 2.0)
    g2 = gamma_clean(z * (2.0 / 0.7) ** 2, 3, 0.7)
    assert abs(g1 - g2) < 1e-10


def test_gamma_eta_ladder_decreasing():
    gs = [gamma_clean(complex(2.0, eta), 2, 1.0) for eta in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(a > b for a, b in zip(gs, gs[1:]))
    assert gs[-1] < 5e-3


def test_disk_seeds():
    z = complex(2.0, 0.05)
    fp = fixed_point_R(z, 2, 1.0)
    assert abs(stationary_disk(z, 2, 1.0) - m_from_r(fp.phi, z)) < 1e-14
    assert abs(cut_seed_disk(z, 2, 1.0) - m_from_r(2.0 * fp.phi, z)) < 1e-14
    assert abs(stationary_disk(z, 2, 1.0)) < 1.0
    assert abs(cut_seed_disk(z, 2, 1.0)) < 1.0


def test_iterate_m_map_converges_to_stationary():
    z = complex(2.0, 0.1)
    m_star = stationary_disk(z, 2, 1.0)
    m = iterate_m_map(z, 2, 1.0, m0=0j, n_steps=2000)
    assert abs(m - m_star) < 1e-10


def test_iterate_m_grid_band_interior():
    E = np.linspace(BAND0_A + 0.3, BAND0_B - 0.3, 20)
    m, iters, converged = iterate_m_grid(E, 1e-2, 2, 1.0, tol=1e-13)
    assert converged.all()
    assert np.all(iters >= 1)
    for i, e in enumerate(E):
        m_star = stationary_disk(complex(float(e), 1e-2), 2, 1.0)
        assert abs(m[i] - m_star) < 1e-8


def test_iterate_m_grid_validation():
    with pytest.raises(ValidationError):
        iterate_m_grid(np.array([2.0]), 0.0, 2, 1.0)


def test_fixed_point_validation():
    for K, L in [(0, 1.0), (2, -1.0), (2, 0.0), (2, math.inf)]:
        with pytest.raises(ValidationError):
            fixed_point_batch([2.0], 0.1, K=K, L=L)
    with pytest.raises(ValidationError):
        fixed_point_R(complex(2.0, 0.1), 0, 1.0)
    with pytest.raises(ValidationError):
        fixed_point_R(complex(2.0, 0.1), 2, 0.0)
    with pytest.raises(ValidationError):
        fixed_point_R(complex(-1.0, 0.0), 2, 1.0)
