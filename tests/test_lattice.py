import itertools
import sys
import threading
import time

import numpy as np
import pytest

from spinphonon.crystal import Atom, CrystalModel
from spinphonon.errors import ValidationError
from spinphonon.lattice import (ForceConstantSet, bose_population,
                                decomposition_weights, dynamical_matrices,
                                enforce_acoustic_sum_rule, gaussian_kernel,
                                phonon_dos, phonon_spectrum)
from spinphonon import lattice
from spinphonon.sweep import kpoint_grid, kpoint_orbits
from spinphonon.toy import (ToySpec, diatomic_chain,
                            diatomic_chain_dispersion, generate_toy_crystal)
from spinphonon.units import FREQ_CM1_PER_SQRT_EV_A2_AMU, KB_CM1_PER_K

from dense_reference import reference_dos


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


def test_unique_rows_are_those_of_numpy_unique_in_the_same_order():
    rng = np.random.default_rng(7)
    big = 2 ** 62  # packed integer keys of three such rows would overflow
    rows = np.concatenate([rng.integers(-3, 4, (500, 3)),
                           rng.choice([-big, -1, 0, 1, big], (200, 3)),
                           rng.integers(-big, big, (50, 3))])
    rows = rows[rng.permutation(len(rows))]
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    got, inverse = lattice._unique_rows(rows)
    assert np.array_equal(got, want)
    assert np.array_equal(inverse, want_inverse.reshape(-1))
    # negation reverses the order of a set closed under it, which
    # mass_weighted_blocks reads as -lvecs[k] = lvecs[-1-k]
    union, _ = lattice._unique_rows(np.concatenate([rows, -rows]))
    assert np.array_equal(-union, union[::-1])


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
    the modes left out are those phonon_dos counts as imaginary, and
    those with |omega| below DEFAULT_OMEGA_MIN sit at 0, as there."""
    omega, vecs = phonon_spectrum(fc, qpoints)
    omega[np.abs(omega) < lattice.DEFAULT_OMEGA_MIN] = 0.0
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


@pytest.mark.parametrize("tile", [1, 16, 17, 1000])
@pytest.mark.parametrize("floor", [False, True])
def test_dos_kernel_recurrence_holds_on_any_tile(tile, floor, monkeypatch):
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=2, k_intra=2.0, k_inter=0.15, seed=3))
    qpoints, weights = kpoint_orbits(4, 4, 4)
    top = np.max(phonon_spectrum(fc, qpoints)[0])
    # top / 400 gives some 1,600 grid points in steps of sigma / 4, and
    # top / 20 the 600-point floor, in steps of less than sigma / 4
    sigma = top / (20.0 if floor else 400.0)
    monkeypatch.setattr(lattice, "DOS_TILE", tile)
    dos = phonon_dos(fc, qpoints, sigma, weights)
    freq, want = reference_dos(fc, qpoints, sigma, weights)
    assert np.array_equal(dos.frequency, freq)
    delta = (freq[1] - freq[0]) / sigma
    if floor:
        assert freq.size == 600 and delta < 0.2
    else:
        assert freq.size > 1500 and delta == pytest.approx(0.25, rel=1e-2)
    for curve, expected in zip((dos.total, dos.translational, dos.rotational,
                                dos.intra), want):
        assert np.all(np.isfinite(curve))
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


def test_dos_near_zero_does_not_move_with_round_off_in_d():
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=2, k_intra=2.0, k_inter=0.15, seed=3))
    # each force constant as two records that sum to it: D(q) moves by
    # round-off only, and with it the Gamma acoustic omega (reordering
    # the records would not: dense_blocks sums each entry once)
    part = np.random.default_rng(1).uniform(-8.0, 8.0, fc.n_records)
    part *= fc.values
    split = ForceConstantSet(
        crystal=crystal, lvecs=np.concatenate([fc.lvecs, fc.lvecs]),
        i=np.tile(fc.i, 2), s=np.tile(fc.s, 2), j=np.tile(fc.j, 2),
        t=np.tile(fc.t, 2), values=np.concatenate([part, fc.values - part]))
    qpoints, weights = kpoint_orbits(6, 6, 6)
    sigma = 1.0
    dos, moved = (phonon_dos(f, qpoints, sigma, weights) for f in (fc, split))
    near = dos.frequency <= 5 * sigma
    # the grid's top is max(omega) + DOS_REACH sigma
    assert (np.max(np.abs(dos.frequency - moved.frequency))
            <= 1e-15 * dos.frequency[-1])
    assert (np.max(np.abs(dos.total[near] - moved.total[near]))
            <= 1e-14 * np.max(dos.total))


def test_dos_counts_the_imaginary_modes_it_leaves_out(monkeypatch):
    crystal, fc, _, _ = generate_toy_crystal(
        ToySpec(atoms_per_molecule=2, k_intra=2.0, k_inter=0.15, seed=3))
    qpoints, weights = kpoint_orbits(4, 4, 4)
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
    assert set(dos.timings_s) == {"blocks", "kernel"}
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


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0, "1.0"])
def test_dos_rejects_a_sigma_that_run_params_rejects(sigma):
    crystal, fc = diatomic_chain()
    with pytest.raises(ValidationError, match="sigma must be a finite number"):
        phonon_dos(fc, kpoint_grid(4, 1, 1), sigma)


@pytest.mark.parametrize("weights, match", [
    ([0.0, 0.0, 0.0, 0.0], "positive sum"),
    ([1.0, float("nan"), 1.0, 1.0], "finite and >= 0"),
    ([1.0, -0.5, 1.0, 1.0], "finite and >= 0"),
    ([1.0, 1.0, 1.0], r"one per q-point \(4\), got shape \(3,\)"),
], ids=["all_zero", "nan", "negative", "wrong_length"])
def test_dos_rejects_bad_weights(weights, match):
    crystal, fc = diatomic_chain()
    with pytest.raises(ValidationError, match=match):
        phonon_dos(fc, kpoint_grid(4, 1, 1), 1.0, weights)


def _two_molecule_toy():
    """12 branches and 15 lattice vectors: blocks of 30 q-points."""
    return generate_toy_crystal(
        ToySpec(molecules_per_cell=2, atoms_per_molecule=2, seed=3))[:2]


def test_dos_block_keeps_its_d_product_on_one_blas_thread():
    crystal, fc = _two_molecule_toy()
    n_l = len(fc.mass_weighted_blocks()[0])
    n3 = 3 * crystal.n_atoms
    qblock = lattice.dos_qblock(fc)
    assert qblock * n_l * n3**2 <= lattice.DOS_GEMM_MAX
    assert (qblock + 1) * n_l * n3**2 > lattice.DOS_GEMM_MAX
    # a small cell stays at DOS_QBLOCK, a cell too large for one
    # q-point's product takes one
    _, chain = diatomic_chain()
    assert lattice.dos_qblock(chain) == lattice.DOS_QBLOCK
    huge = ForceConstantSet(
        crystal=CrystalModel(cell=crystal.cell, atoms=crystal.atoms * 8),
        lvecs=fc.lvecs, i=fc.i, s=fc.s, j=fc.j, t=fc.t, values=fc.values)
    assert lattice.dos_qblock(huge) == 1


def _dos_on(workers, monkeypatch, *args):
    monkeypatch.setattr(lattice, "usable_cpus", lambda: workers)
    return phonon_dos(*args)


def test_pooled_dos_equals_the_one_worker_dos_bit_for_bit(monkeypatch):
    crystal, fc = _two_molecule_toy()
    qpoints, weights = kpoint_orbits(9, 9, 9)
    serial = _dos_on(1, monkeypatch, fc, qpoints, 1.0, weights)
    # more workers than cores, switching often: a block that wrote into
    # another's rows, or a row left unwritten, would change the curves
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = _dos_on(3, monkeypatch, fc, qpoints, 1.0, weights)
    finally:
        sys.setswitchinterval(interval)
    assert (serial.workers, pooled.workers) == (1, 3)
    assert pooled.blocks == serial.blocks > 3 * pooled.workers
    for name in ("frequency", "total", "translational", "rotational",
                 "intra"):
        assert np.array_equal(getattr(pooled, name), getattr(serial, name))
    assert pooled.imaginary_modes == serial.imaginary_modes


def test_one_worker_runs_the_blocks_on_the_calling_thread(monkeypatch):
    crystal, fc = _two_molecule_toy()
    real = lattice.phonon_spectrum
    threads = set()

    def spectrum(fc, qpoints):
        threads.add(threading.current_thread())
        return real(fc, qpoints)

    monkeypatch.setattr(lattice, "phonon_spectrum", spectrum)
    dos = _dos_on(1, monkeypatch, fc, kpoint_grid(4, 4, 4), 1.0)
    assert dos.blocks > 1
    assert threads == {threading.current_thread()}


def _late_asymmetry():
    """A force-constant set whose D(q) is Hermitian at q_y = 0 only, and
    q-points that put it out of tolerance in two late blocks of 4: at
    q_y = 0.1 (q-point 40) and more so at q_y = 0.25 (q-point 49)."""
    crystal, fc = diatomic_chain(m1=10.0)
    fc = ForceConstantSet(
        crystal=crystal, lvecs=[*fc.lvecs, (0, 1, 0)], i=[*fc.i, 0],
        s=[*fc.s, 1], j=[*fc.j, 0], t=[*fc.t, 1], values=[*fc.values, 0.01])
    qpoints = np.zeros((52, 3))
    qpoints[:, 0] = np.arange(52) / 52
    qpoints[40, 1], qpoints[49, 1] = 0.1, 0.25
    return fc, qpoints


def test_pooled_dos_names_the_first_failing_block_in_q_order(monkeypatch):
    fc, qpoints = _late_asymmetry()
    monkeypatch.setattr(lattice, "DOS_QBLOCK", 4)
    real = lattice.phonon_spectrum

    def spectrum(fc, qpoints):
        if np.any(qpoints[:, 1] == 0.1):
            time.sleep(0.2)  # the later failing block fails first
        return real(fc, qpoints)

    monkeypatch.setattr(lattice, "phonon_spectrum", spectrum)
    messages = []
    for workers in (1, 2):
        with pytest.raises(ValidationError, match="asymmetry") as err:
            _dos_on(workers, monkeypatch, fc, qpoints, 1.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith("at q=[0.7692307692307693, 0.1, 0.0]")


def test_pooled_dos_cancels_the_blocks_after_a_failure(monkeypatch):
    crystal, fc = diatomic_chain()
    qpoints = kpoint_grid(160, 1, 1)
    monkeypatch.setattr(lattice, "DOS_QBLOCK", 4)
    started = []

    def spectrum(fc, qpoints):
        started.append(qpoints[0, 0])
        if qpoints[0, 0] == 0.0:
            raise ValidationError("first block fails")
        time.sleep(0.05)
        return phonon_spectrum(fc, qpoints)

    monkeypatch.setattr(lattice, "phonon_spectrum", spectrum)
    with pytest.raises(ValidationError, match="first block fails"):
        _dos_on(2, monkeypatch, fc, qpoints, 1.0)
    # of 40 blocks, the ones running when block 0 failed finish and
    # the rest never start
    assert 1 <= len(started) < 20


def _debye_toy():
    """The criterion-07 crystal: one molecule of four atoms, at the
    origin and 1.4 A along +x, +y and +z, in a cubic cell."""
    return generate_toy_crystal(ToySpec(atoms_per_molecule=4, mass=20.0,
                                        k_intra=2.0, k_inter=0.15,
                                        seed=3))[:2]


def _as_set(rotations):
    return {tuple(S.reshape(-1).tolist()) for S in rotations}


def _with(fc, crystal=None, values=None):
    """``fc`` on another crystal or with other values."""
    return ForceConstantSet(
        crystal=fc.crystal if crystal is None else crystal, lvecs=fc.lvecs,
        i=fc.i, s=fc.s, j=fc.j, t=fc.t,
        values=fc.values if values is None else values)


def test_debye_crystal_has_the_six_axis_permutations():
    _, fc = _debye_toy()
    rotations, translations = lattice.symmetry_rotations(fc)
    eye = np.eye(3, dtype=int)
    assert np.array_equal(rotations[0], eye)
    assert _as_set(rotations) == _as_set(
        eye[list(p)] for p in itertools.permutations(range(3)))
    assert np.array_equal(translations, np.zeros((6, 3)))
    # -E is not among them: it takes the arms to -x, -y and -z
    assert _as_set([-eye]).isdisjoint(_as_set(rotations))


def test_force_constants_off_by_1e_6_leave_only_the_identity():
    crystal, fc = _debye_toy()
    # the yy self-term of the +x atom: D(q) stays Hermitian, the y <-> z
    # swap no longer holds, and every other permutation moves the atom
    k = int(np.flatnonzero((fc.i == 1) & (fc.j == 1) & (fc.s == 1)
                           & (fc.t == 1) & ~fc.lvecs.any(axis=1))[0])
    values = fc.values.copy()
    values[k] += 1e-6
    broken = _with(fc, values=values)
    rotations, _ = lattice.symmetry_rotations(broken)
    assert _as_set(rotations) == _as_set([np.eye(3, dtype=int)])
    qpoints, weights = kpoint_orbits(6, 6, 6, rotations)
    paired_q, paired_w = kpoint_orbits(6, 6, 6)
    assert np.array_equal(qpoints, paired_q)
    assert np.array_equal(weights, paired_w)
    dos = phonon_dos(broken, qpoints, 1.0, weights)
    paired = phonon_dos(broken, paired_q, 1.0, paired_w)
    for name in ("frequency", "total", "translational", "rotational",
                 "intra"):
        assert np.array_equal(getattr(dos, name), getattr(paired, name))


def test_operations_that_split_a_molecule_are_rejected():
    crystal, fc = _debye_toy()
    # the +z atom labelled as a molecule of its own: positions, masses
    # and force constants keep all six permutations, the molecules only
    # those that fix z
    atoms = crystal.atoms[:3] + (Atom(element="X", mass=20.0,
                                      frac=crystal.atoms[3].frac,
                                      molecule=1),)
    relabelled = CrystalModel(cell=crystal.cell, atoms=atoms)
    rotations, _ = lattice.symmetry_rotations(_with(fc, crystal=relabelled))
    assert _as_set(rotations) == _as_set(
        [np.eye(3, dtype=int), np.eye(3, dtype=int)[[1, 0, 2]]])


def test_a_molecule_split_across_cells_is_rejected():
    crystal, fc = _debye_toy()
    # the +x atom written one cell along x: every permutation still maps
    # the atoms onto atoms, but one that moves x takes that atom with a
    # lattice shift the rest of its molecule does not get
    atoms = list(crystal.atoms)
    frac = atoms[1].frac.copy()
    atoms[1] = Atom(element="X", mass=20.0, frac=frac + [1.0, 0.0, 0.0],
                    molecule=0)
    moved = CrystalModel(cell=crystal.cell, atoms=tuple(atoms))
    rotations, _ = lattice.symmetry_rotations(_with(fc, crystal=moved))
    assert _as_set(rotations) == _as_set(
        [np.eye(3, dtype=int), np.eye(3, dtype=int)[[0, 2, 1]]])
