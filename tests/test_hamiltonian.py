import numpy as np
import pytest

from spinphonon.errors import ValidationError
from spinphonon.hamiltonian import (assemble_hamiltonian, diagonalize,
                                    dipolar_tensor)
from spinphonon.spins import (SpinCenter, SpinCoupling, SpinSystem,
                              build_spin_operators)
from spinphonon.units import BOHR_MAGNETON_CM1_PER_T


def _electron_system(g=2.0, field=(0.0, 0.0, 1.0)):
    system = SpinSystem(centers=(SpinCenter(id=0, kind="electronic", s=0.5,
                                            g=g),),
                        field_B=np.asarray(field, float))
    return system, build_spin_operators(system)


def test_free_electron_zeeman_splitting_at_one_tesla():
    system, ops = _electron_system()
    ham = assemble_hamiltonian(system, ops)
    gap = ham.eigvals[1] - ham.eigvals[0]
    assert abs(gap - 2.0 * BOHR_MAGNETON_CM1_PER_T) < 1e-12  # 0.93373 cm^-1


def test_spectrum_invariant_under_field_inversion():
    g = np.diag([1.98, 1.97, 1.93])
    system, ops = _electron_system(g=g, field=(0.3, -0.2, 0.9))
    ham_p = assemble_hamiltonian(system, ops)
    ham_m = assemble_hamiltonian(system.with_field(-system.field_B), ops)
    assert np.allclose(ham_p.eigvals, ham_m.eigvals, atol=1e-12)


def test_rotational_covariance_of_zeeman_spectrum():
    rng = np.random.default_rng(5)
    g = np.diag([1.98, 1.97, 1.93])
    B = np.array([0.4, 0.1, 1.1])
    R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(R) < 0:
        R[:, 0] *= -1
    sys_a, ops = _electron_system(g=g, field=B)
    sys_b, _ = _electron_system(g=R @ g @ R.T, field=R @ B)
    ham_a = assemble_hamiltonian(sys_a, ops)
    ham_b = assemble_hamiltonian(sys_b, ops)
    assert np.allclose(ham_a.eigvals, ham_b.eigvals, atol=1e-12)


def test_isotropic_hyperfine_multiplets_for_spin_seven_halves():
    # S=1/2 coupled to I=7/2 with isotropic A: F=4 (9 states) at A*I/2
    # and F=3 (7 states) at -A*(I+1)/2
    A = 0.01
    system = SpinSystem(
        centers=(SpinCenter(id=0, kind="electronic", s=0.5),
                 SpinCenter(id=1, kind="nuclear", s=3.5)),
        couplings=(SpinCoupling(i=0, j=1, tensor=A * np.eye(3),
                                tag="hyperfine"),))
    ops = build_spin_operators(system)
    ham = assemble_hamiltonian(system, ops)
    assert system.dimension == 16
    upper = A * 3.5 / 2.0
    lower = -A * 4.5 / 2.0
    vals = np.sort(ham.eigvals)
    assert np.allclose(vals[:7], lower, atol=1e-12)
    assert np.allclose(vals[7:], upper, atol=1e-12)


def test_high_field_hyperfine_groups_into_two_electron_manifolds():
    system = SpinSystem(
        centers=(SpinCenter(id=0, kind="electronic", s=0.5,
                            g=np.diag([1.983, 1.9814, 1.9274])),
                 SpinCenter(id=1, kind="nuclear", s=3.5)),
        couplings=(SpinCoupling(i=0, j=1,
                                tensor=np.diag([0.00354, 0.00396, 0.01396]),
                                tag="hyperfine"),),
        field_B=np.array([0.0, 0.0, 5.0]))
    ops = build_spin_operators(system)
    ham = assemble_hamiltonian(system, ops)
    gaps = np.diff(np.sort(ham.eigvals))
    # one large electron-Zeeman gap, fourteen small hyperfine gaps
    assert np.sum(gaps > 1.0) == 1
    assert np.sum(gaps < 0.1) == 14


def test_dipolar_tensor_traceless_for_isotropic_g():
    a = SpinCenter(id=0, kind="electronic", s=0.5, g=2.0)
    b = SpinCenter(id=1, kind="electronic", s=0.5, g=2.0)
    D = dipolar_tensor(a, b, np.array([3.0, -1.0, 2.0]))
    assert abs(np.trace(D)) < 1e-14


def test_dipolar_tensor_axial_form_along_z():
    from spinphonon.units import DIPOLAR_PREFACTOR_CM1_A3 as C
    a = SpinCenter(id=0, kind="electronic", s=0.5, g=2.0)
    b = SpinCenter(id=1, kind="electronic", s=0.5, g=2.0)
    r = 5.0
    D = dipolar_tensor(a, b, np.array([0.0, 0.0, r]))
    expected = 4.0 * C / r**3 * np.diag([1.0, 1.0, -2.0])
    assert np.allclose(D, expected, atol=1e-14)


def test_dipolar_tensor_inverse_cube_scaling():
    a = SpinCenter(id=0, kind="electronic", s=0.5)
    b = SpinCenter(id=1, kind="electronic", s=0.5)
    D1 = dipolar_tensor(a, b, np.array([0.0, 4.0, 3.0]))
    D2 = dipolar_tensor(a, b, 2.0 * np.array([0.0, 4.0, 3.0]))
    assert np.allclose(D2 * 8.0, D1, atol=1e-14)


def test_dipolar_tensor_singular_separation_rejected():
    a = SpinCenter(id=0, kind="electronic", s=0.5)
    b = SpinCenter(id=1, kind="electronic", s=0.5)
    with pytest.raises(ValidationError):
        dipolar_tensor(a, b, np.array([0.0, 0.0, 0.01]))


def test_diagonalize_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigenvector_gauge_is_reproducible():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    m = 0.5 * (m + m.conj().T)
    h1 = diagonalize(m)
    h2 = diagonalize(m.copy())
    assert np.array_equal(h1.eigvecs, h2.eigvecs)
    # largest component of each column is real positive
    for k in range(6):
        idx = np.argmax(np.abs(h1.eigvecs[:, k]))
        z = h1.eigvecs[idx, k]
        assert abs(z.imag) < 1e-14 and z.real > 0


def test_eigenbasis_round_trip():
    system, ops = _electron_system(field=(0.2, 0.5, 0.8))
    ham = assemble_hamiltonian(system, ops)
    op = ops.embedded[0][2]
    back = ham.from_eigenbasis(ham.to_eigenbasis(op))
    assert np.allclose(back, op, atol=1e-14)


def test_magnetization_of_spin_up_state():
    system, ops = _electron_system()
    ham = assemble_hamiltonian(system, ops)
    rho = np.diag([0.0, 1.0]).astype(complex)  # highest eigenstate
    sz_eig = ham.to_eigenbasis(ops.embedded[0][2])
    # in the eigenbasis of B.Sz the top state carries m_s = +1/2
    assert abs(np.real(np.trace(rho @ sz_eig)) - 0.5) < 1e-12


def test_nuclear_zeeman_can_be_disabled():
    base = SpinSystem(
        centers=(SpinCenter(id=0, kind="electronic", s=0.5),
                 SpinCenter(id=1, kind="nuclear", s=0.5)),
        field_B=np.array([0.0, 0.0, 7.0]))
    ops = build_spin_operators(base)
    with_nz = assemble_hamiltonian(base, ops)
    without = assemble_hamiltonian(
        SpinSystem(centers=base.centers, field_B=base.field_B,
                   include_nuclear_zeeman=False), ops)
    assert not np.allclose(with_nz.eigvals, without.eigvals)
    # without nuclear Zeeman the nucleus is degenerate
    assert np.allclose(np.ptp(np.sort(without.eigvals)[:2]), 0.0, atol=1e-12)
