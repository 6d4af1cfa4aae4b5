import numpy as np
import pytest

from spinphonon.crystal import Atom, CrystalModel
from spinphonon.errors import ValidationError
from spinphonon.lattice import (ForceConstantSet, bose_population,
                                decomposition_weights, dynamical_matrices,
                                enforce_acoustic_sum_rule, gaussian_kernel,
                                phonon_dos, phonon_spectrum)
from spinphonon import lattice
from spinphonon.sweep import kpoint_grid, paired_kpoint_grid
from spinphonon.toy import (ToySpec, diatomic_chain,
                            diatomic_chain_dispersion, generate_toy_crystal)
from spinphonon.units import FREQ_CM1_PER_SQRT_EV_A2_AMU, KB_CM1_PER_K


def test_gaussian_kernel_normalization():
    x = np.linspace(-40, 40, 20001)
    for sigma in (0.3, 1.0, 4.0):
        area = np.trapezoid(gaussian_kernel(x, sigma), x)
        assert abs(area - 1.0) < 1e-10


def test_diatomic_chain_matches_closed_form():
    m1, m2, k = 10.0, 14.0, 1.0
    crystal, fc = diatomic_chain(m1, m2, k)
    qs = np.linspace(0.0, 0.5, 64)
    qpts = np.stack([qs, np.zeros(64), np.zeros(64)], axis=1)
    omega, _ = phonon_spectrum(fc, qpts)
    for iq in range(1, 64):  # skip the exact-zero acoustic point at q=0
        computed = np.sort(omega[iq])[-2:]
        lam_a = diatomic_chain_dispersion(qs[iq], m1, m2, k, "acoustic")
        lam_o = diatomic_chain_dispersion(qs[iq], m1, m2, k, "optical")
        exact = np.sort(FREQ_CM1_PER_SQRT_EV_A2_AMU * np.sqrt([lam_a, lam_o]))
        assert np.max(np.abs(computed / exact - 1.0)) < 1e-8


def test_dynamical_matrix_hermitian_and_conjugate_at_minus_q():
    crystal, fc, _, _ = generate_toy_crystal(ToySpec(atoms_per_molecule=3,
                                                     k_inter=0.2, seed=4))
    for q in ([0.13, -0.27, 0.41], [0.5, 0.5, 0.5], [0.0, 0.2, 0.0]):
        D, Dm = dynamical_matrices(fc, [q, -np.asarray(q)])
        assert np.max(np.abs(D - D.conj().T)) < 1e-10
        assert np.max(np.abs(Dm - D.conj())) < 1e-10


def test_sum_rule_enforcement_restores_gamma_zeros():
    crystal, fc, _, _ = generate_toy_crystal(ToySpec(atoms_per_molecule=2,
                                                     seed=1))
    # break translational invariance on one self-term
    values = np.array(fc.values, dtype=float)
    values[0] += 0.01
    broken = ForceConstantSet(crystal=crystal, lvecs=fc.lvecs, i=fc.i,
                              s=fc.s, j=fc.j, t=fc.t, values=values)
    assert broken.sum_rule_residual() > 1e-3
    fixed = enforce_acoustic_sum_rule(broken)
    assert fixed.sum_rule_residual() < 1e-12
    omega, _ = phonon_spectrum(fixed, np.zeros((1, 3)))
    assert np.max(np.abs(omega[0, :3])) < 1e-5


def test_acoustic_branches_linear_near_gamma():
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=1, mass=20.0, k_inter=0.2, seed=0))
    omega, _ = phonon_spectrum(fc, [[0.005, 0, 0], [0.01, 0, 0]])
    assert np.allclose(omega[1] / omega[0], 2.0, rtol=2e-3)


def test_unstable_modes_are_flagged_not_hidden():
    cell = np.eye(3) * 4.0
    crystal = CrystalModel(cell=cell, atoms=(
        Atom(element="X", mass=10.0, frac=(0, 0, 0), molecule=0),))
    # springs with the wrong sign: negative eigenvalue at the zone edge
    lv, i, s, j, t, v = [], [], [], [], [], []
    for axis in range(3):
        for sign in (1, -1):
            vec = [0, 0, 0]
            vec[axis] = sign
            lv.append(tuple(vec)); i.append(0); s.append(axis)
            j.append(0); t.append(axis); v.append(0.1)
        lv.append((0, 0, 0)); i.append(0); s.append(axis)
        j.append(0); t.append(axis); v.append(-0.2)
    fc = ForceConstantSet(crystal=crystal, lvecs=lv, i=i, s=s, j=j, t=t,
                          values=v)
    omega, _ = phonon_spectrum(fc, [(0.5, 0.5, 0.5)])
    assert np.any(omega < 0)


def test_bose_population_values():
    assert bose_population(10.0, 0.0) == 0.0
    T = 10.0 / KB_CM1_PER_K  # hbar*omega = kB*T
    assert abs(bose_population(10.0, T) - 1.0 / (np.e - 1.0)) < 1e-12
    # high-temperature limit ~ kT/omega
    assert abs(bose_population(1.0, 1000.0) * 1.0
               / (KB_CM1_PER_K * 1000.0) - 1.0) < 1e-2


def test_bose_population_rejects_nonpositive_frequency():
    with pytest.raises(ValidationError):
        bose_population(0.0, 10.0)


def test_dos_area_equals_mode_count():
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=4, mass=20.0, k_intra=2.0, k_inter=0.15,
                seed=3))
    dos = phonon_dos(fc, kpoint_grid(6, 6, 6), sigma=2.0)
    assert abs(dos.area() - 3 * crystal.n_atoms) < 0.001 * 3 * crystal.n_atoms


def test_dos_decomposition_components_sum_to_total():
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=3, k_inter=0.2, seed=4))
    dos = phonon_dos(fc, kpoint_grid(4, 4, 4), sigma=2.0)
    recon = dos.translational + dos.rotational + dos.intra
    assert np.max(np.abs(recon - dos.total)) < 1e-10


def test_decomposition_weights_sum_to_one_per_mode():
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=4, molecules_per_cell=2, k_inter=0.2,
                seed=6))
    _, vecs = phonon_spectrum(fc, kpoint_grid(3, 3, 3))
    w_t, w_r, w_i = decomposition_weights(crystal, vecs)
    assert np.max(np.abs(w_t + w_r + w_i - 1.0)) < 1e-8


def test_gamma_acoustic_modes_are_pure_translations():
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=4, k_inter=0.2, seed=2))
    _, vecs = phonon_spectrum(fc, [(0.0, 0.0, 0.0)])
    w_t, w_r, w_i = (w[0, :3] for w in decomposition_weights(crystal, vecs))
    assert np.all(w_t > 0.999) and np.all(w_r < 1e-6) and np.all(w_i < 1e-6)


def test_single_atom_molecule_has_no_rotations_or_intra():
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=1, k_inter=0.2, seed=0))
    _, vecs = phonon_spectrum(fc, [(0.3, 0.1, 0.0)])
    w_t, w_r, w_i = decomposition_weights(crystal, vecs)
    assert np.all(np.abs(w_t - 1.0) < 1e-10)
    assert np.all(w_r == 0.0) and np.all(w_i < 1e-10)


def test_dos_of_single_atom_molecules_is_translational():
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=1, k_inter=0.2, seed=0))
    dos = phonon_dos(fc, kpoint_grid(3, 3, 3), 0.5)
    assert np.all(dos.rotational == 0.0)
    assert np.max(np.abs(dos.translational - dos.total)) < 1e-10 * dos.total.max()


def _full_kernel_dos(fc, qpoints, sigma, freq_grid):
    """Every mode's kernel on every grid point, one q-point at a time;
    the modes left out are those phonon_dos counts as imaginary."""
    omega, vecs = phonon_spectrum(fc, qpoints)
    weights = decomposition_weights(fc.crystal, vecs)
    curves = np.zeros((4, freq_grid.size))
    for iq in range(len(qpoints)):
        sel = omega[iq] >= -lattice.DEFAULT_OMEGA_MIN
        k = gaussian_kernel(freq_grid[:, None] - omega[iq, sel][None, :], sigma)
        curves[0] += k.sum(axis=1)
        for curve, w in zip(curves[1:], weights):
            curve += k @ w[iq, sel]
    return curves / len(qpoints), omega


@pytest.mark.parametrize("sigma", [0.3, 1.0, 40.0, 60.0])
def test_windowed_dos_matches_full_kernel(sigma):
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=2, k_intra=2.0, k_inter=0.15, seed=3))
    qpoints = kpoint_grid(13, 13, 13)
    assert len(qpoints) > lattice.DOS_QBLOCK  # a block boundary is crossed
    dos = phonon_dos(fc, qpoints, sigma)
    ref, omega = _full_kernel_dos(fc, qpoints, sigma, dos.frequency)
    reach = lattice.DOS_REACH * sigma
    # windows clip at 0 (acoustic modes) and at the top of the grid
    assert np.min(np.abs(omega)) < reach
    assert dos.frequency[-1] == pytest.approx(omega.max() + reach)
    for curve, expected in zip((dos.total, dos.translational, dos.rotational,
                                dos.intra), ref):
        assert np.max(np.abs(curve - expected)) <= 1e-12 * np.max(expected)


def test_dos_keeps_gamma_acoustic_modes_of_either_sign(monkeypatch):
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=2, k_intra=2.0, k_inter=0.15, seed=3))
    qpoints = kpoint_grid(6, 6, 6)
    real = lattice.phonon_spectrum
    gamma = []

    def signed(sign):
        def spectrum(fc, qpoints):
            omega, vecs = real(fc, qpoints)
            at_gamma = np.all(np.asarray(qpoints) == 0.0, axis=1)
            omega[at_gamma, :3] = sign * np.abs(omega[at_gamma, :3])
            gamma.extend(omega[at_gamma, :3].reshape(-1))
            return omega, vecs
        return spectrum

    sigma = 1.0
    curves = []
    for sign in (1.0, -1.0):
        monkeypatch.setattr(lattice, "phonon_spectrum", signed(sign))
        dos = phonon_dos(fc, qpoints, sigma)
        assert dos.imaginary_modes == 0
        curves.append((dos.total, dos.translational, dos.rotational,
                       dos.intra))
    assert 0.0 < np.max(np.abs(gamma)) < lattice.DEFAULT_OMEGA_MIN
    # flipping a sign moves a kernel's centre by 2|omega|, which changes
    # it by at most that times the kernel's largest slope,
    # sqrt(2 / e / pi) / sigma^2; leaving the mode out would change it
    # by up to 1 / (sigma sqrt(pi)), some 10^5 times more here
    slope = np.sqrt(2 / np.e / np.pi) / sigma**2
    shift = 2 * np.sum(np.abs(gamma[:3])) * slope
    for plus, minus in zip(*curves):
        bound = 1e-12 * np.max(plus) + shift / len(qpoints)
        assert np.max(np.abs(plus - minus)) <= bound


def test_dos_counts_the_imaginary_modes_it_leaves_out(monkeypatch):
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=2, k_intra=2.0, k_inter=0.15, seed=3))
    qpoints, weights = paired_kpoint_grid(4, 4, 4)
    real = lattice.phonon_spectrum

    def spectrum(fc, qpoints):
        omega, vecs = real(fc, qpoints)
        omega[:, 0] = -1.0  # one imaginary branch on every q-point
        return omega, vecs

    monkeypatch.setattr(lattice, "phonon_spectrum", spectrum)
    dos = phonon_dos(fc, qpoints, 1.0, weights)
    assert dos.imaginary_modes == 64
    # the two Gamma acoustic modes left at omega ~ 0 put half their
    # kernel below the grid
    branches = 3 * crystal.n_atoms
    assert dos.area() == pytest.approx(branches - 1 - 1 / 64, rel=1e-6)
    assert set(dos.timings_s) == {"spectrum", "decomposition", "kernel"}
    assert all(t >= 0.0 for t in dos.timings_s.values())


def test_empty_force_constants_rejected():
    crystal, fc = diatomic_chain()
    empty = ForceConstantSet(crystal=crystal, lvecs=[], i=[], s=[], j=[],
                             t=[], values=[])
    with pytest.raises(ValidationError):
        dynamical_matrices(empty, [(0, 0, 0)])


def test_asymmetric_force_constants_rejected_on_every_qpoint():
    crystal, fc = diatomic_chain()
    # Phi_0x,0x gains 0.01 at l=(1,0,0) and loses it at l=0: D(Gamma) stays
    # Hermitian, D(q) elsewhere does not, worst at q = +-1/4
    fc = ForceConstantSet(
        crystal=crystal, lvecs=[*fc.lvecs, (1, 0, 0), (0, 0, 0)],
        i=[*fc.i, 0, 0], s=[*fc.s, 0, 0], j=[*fc.j, 0, 0], t=[*fc.t, 0, 0],
        values=[*fc.values, 0.01, -0.01])
    dynamical_matrices(fc, [(0.0, 0.0, 0.0)])
    worst = r"asymmetry .* at q=\[0\.25, 0\.0, 0\.0\]"
    with pytest.raises(ValidationError, match=worst):
        phonon_spectrum(fc, kpoint_grid(4, 1, 1))
    with pytest.raises(ValidationError, match="asymmetry"):
        phonon_dos(fc, kpoint_grid(4, 1, 1), 1.0)


def test_force_constants_without_their_minus_l_partner_rejected():
    crystal, fc = diatomic_chain(m1=10.0)
    assert not np.any(np.all(fc.lvecs == (0, -1, 0), axis=1))
    # Phi_0y,0y((0,1,0)) = 0.01 with nothing at (0,-1,0): D - D^H has
    # 0.002 sin(2 pi q_y) on that diagonal element, zero at Gamma and
    # worst at q_y = +-1/4
    fc = ForceConstantSet(
        crystal=crystal, lvecs=[*fc.lvecs, (0, 1, 0)], i=[*fc.i, 0],
        s=[*fc.s, 1], j=[*fc.j, 0], t=[*fc.t, 1], values=[*fc.values, 0.01])
    dynamical_matrices(fc, [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)])
    worst = r"asymmetry 2\.00e-03 above 1e-09 at q=\[0\.0, 0\.25, 0\.0\]"
    with pytest.raises(ValidationError, match=worst):
        dynamical_matrices(fc, kpoint_grid(1, 4, 1))
