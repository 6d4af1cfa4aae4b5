"""Property tests of the lattice layer, the paired q-grid, the line
parsers and the spin layer.

Crystals are drawn as generated ToySpecs; spin systems as random
Hermitian Hamiltonians and coupling stacks of dimension d <= 8.
Hypothesis runs derandomized with a bounded number of examples, so every
run checks the same cases.
"""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from spinphonon import lattice, redfield, sweep
from spinphonon.crystal import CrystalModel
from spinphonon.coupling import CouplingStack
from spinphonon.errors import NumericalError, ParseError
from spinphonon.hamiltonian import (SpinHamiltonian, assemble_hamiltonian,
                                    diagonalize)
from spinphonon.lattice import (ForceConstantSet, decomposition_weights,
                                dynamical_matrices, enforce_acoustic_sum_rule,
                                phonon_dos, phonon_spectrum)
from spinphonon.project import (load_crystal, load_derivatives,
                                load_force_constants, serialize_crystal,
                                serialize_derivatives,
                                serialize_force_constants)
from spinphonon.redfield import (PhononCorrelation, assemble_redfield,
                                 extract_relaxation_time, propagate)
from spinphonon.spins import SpinCenter, SpinSystem, build_spin_operators
from spinphonon.sweep import (RelaxationPipeline, RunParams, kpoint_grid,
                              paired_kpoint_grid)
from spinphonon.toy import ToySpec, generate_toy_crystal
from spinphonon.units import ANGULAR_FREQUENCY_PER_CM1, KB_CM1_PER_K

from dense_reference import (assert_matches_dense, bohr_omega, cluster_labels,
                             dense_redfield, gershgorin_rate, in_cluster,
                             reference_decomposition_weights, reference_dos,
                             reference_dynamical_matrices, smallest_gap)

FEW = settings(derandomize=True, database=None, deadline=None, max_examples=12)

toy_specs = st.builds(
    ToySpec,
    molecules_per_cell=st.integers(1, 4),
    atoms_per_molecule=st.integers(1, 10),
    jitter=st.floats(0.0, 0.1),
    k_intra=st.floats(0.5, 5.0),
    k_inter=st.floats(0.02, 0.5),
    mass=st.floats(1.0, 200.0),
    seed=st.integers(0, 2**16),
)
qpoints = st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@FEW
@given(spec=toy_specs, kicks=st.lists(st.floats(-0.1, 0.1), min_size=1))
def test_sum_rule_zeroes_gamma_acoustic_modes(spec, kicks):
    crystal, fc, _, _ = generate_toy_crystal(spec)
    # move the diagonal self-terms Phi_is,is(0): D stays Hermitian, the
    # sum rule breaks
    self_terms = np.flatnonzero((fc.i == fc.j) & (fc.s == fc.t)
                                & np.all(fc.lvecs == 0, axis=1))
    values = fc.values.copy()
    values[self_terms] += np.resize(kicks, self_terms.size)
    broken = ForceConstantSet(crystal=crystal, lvecs=fc.lvecs, i=fc.i,
                              s=fc.s, j=fc.j, t=fc.t, values=values)
    omega, _ = phonon_spectrum(enforce_acoustic_sum_rule(broken),
                               [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5)])
    # eigh round-off leaves |omega| ~ sqrt(eps) * max omega on a zero
    # mode; the zone corner sets the scale even for a one-atom cell
    assert np.max(np.abs(omega[0, :3])) < 1e-6 * np.max(np.abs(omega))


@FEW
@given(spec=toy_specs, q=qpoints)
def test_dynamical_matrix_at_minus_q_is_the_conjugate(spec, q):
    _, fc, _, _ = generate_toy_crystal(spec)
    # dynamical_matrices rejects an asymmetry above ASYMMETRY_TOL
    D, Dm = dynamical_matrices(fc, [q, -np.asarray(q)])
    assert np.max(np.abs(Dm - D.conj())) <= 1e-12 * np.max(np.abs(D))


@FEW
@given(spec=toy_specs, q=qpoints)
def test_decomposition_weights_sum_to_one(spec, q):
    crystal, fc, _, _ = generate_toy_crystal(spec)
    _, vecs = phonon_spectrum(fc, [q, (0.0, 0.0, 0.0)])
    w_t, w_r, w_i = decomposition_weights(crystal, vecs)
    assert np.max(np.abs(w_t + w_r + w_i - 1.0)) < 1e-8


@FEW
@given(spec=toy_specs, q=st.lists(qpoints, min_size=1, max_size=4))
def test_dynamical_matrices_match_the_per_block_reference(spec, q):
    _, fc, _, _ = generate_toy_crystal(spec)
    q = [*q, (0.0, 0.0, 0.0), (0.5, 0.5, 0.5)]
    want = reference_dynamical_matrices(fc, q)
    got = dynamical_matrices(fc, q)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _split_first_molecule(crystal):
    """The crystal with every atom of its first molecule made a
    single-atom molecule of its own."""
    first = crystal.molecule_ids[0]
    free = max(crystal.molecule_ids) + 1
    atoms = []
    for a in crystal.atoms:
        if a.molecule == first:
            a, free = dataclasses.replace(a, molecule=free), free + 1
        atoms.append(a)
    return CrystalModel(cell=crystal.cell, atoms=atoms)


@FEW
@given(spec=toy_specs, q=qpoints, split=st.booleans())
@example(spec=ToySpec(molecules_per_cell=3, atoms_per_molecule=1),
         q=[0.1, 0.2, 0.3], split=False)
@example(spec=ToySpec(molecules_per_cell=2, atoms_per_molecule=3),
         q=[0.1, 0.2, 0.3], split=True)
def test_decomposition_weights_match_the_per_molecule_reference(spec, q,
                                                                split):
    crystal, fc, _, _ = generate_toy_crystal(spec)
    if split:  # single-atom molecules next to rotating ones
        crystal = _split_first_molecule(crystal)
    _, vecs = phonon_spectrum(fc, [q, (0.0, 0.0, 0.0)])
    got = decomposition_weights(crystal, vecs)
    want = [np.broadcast_to(w, vecs.shape[:1] + vecs.shape[2:])
            for w in reference_decomposition_weights(crystal, vecs)]
    scale = max(np.max(w) for w in want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12 * scale


dos_specs = st.builds(
    ToySpec,
    molecules_per_cell=st.integers(1, 3),
    atoms_per_molecule=st.integers(1, 5),
    jitter=st.floats(0.0, 0.1),
    k_intra=st.floats(0.5, 5.0),
    k_inter=st.floats(0.02, 0.5),
    mass=st.floats(1.0, 200.0),
    seed=st.integers(0, 2**16),
)


@FEW
@given(spec=dos_specs, grid=st.tuples(st.integers(1, 4), st.integers(1, 4),
                                      st.integers(1, 4)),
       sigma_share=st.floats(0.002, 0.5), paired=st.booleans(),
       blocks=st.sampled_from([(5, 5, 50), None]))
@example(spec=ToySpec(molecules_per_cell=2, atoms_per_molecule=1),
         grid=(4, 4, 3), sigma_share=0.3, paired=True, blocks=(5, 5, 50))
@example(spec=ToySpec(molecules_per_cell=3, atoms_per_molecule=4),
         grid=(4, 3, 3), sigma_share=0.2, paired=False, blocks=None)
def test_dos_matches_the_windowed_reference(spec, grid, sigma_share, paired,
                                            blocks):
    _, fc, _, _ = generate_toy_crystal(spec)
    qpts, weights = (paired_kpoint_grid if paired else _full_grid)(*grid)
    omega, _ = phonon_spectrum(fc, qpts)
    # sigma_share above 1/8 puts every mode's kernel on the whole grid
    sigma = sigma_share * max(np.max(omega), 1.0)
    with pytest.MonkeyPatch.context() as mp:
        if blocks:  # q-blocks, grid tiles and mode chunks of a few each
            for name, size in zip(("DOS_QBLOCK", "DOS_TILE", "DOS_CHUNK"),
                                  blocks):
                mp.setattr(lattice, name, size)
        dos = phonon_dos(fc, qpts, sigma, weights)
        freq, want = reference_dos(fc, qpts, sigma, weights)
    assert np.array_equal(dos.frequency, freq)
    for name, w in zip(("total", "translational", "rotational", "intra"),
                       want):
        got = getattr(dos, name)
        assert np.max(np.abs(got - w)) <= 1e-12 * np.max(w)


grids = st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9))


def _grid_indices(qpts, grid):
    """Integer indices of fractional grid q-points."""
    n = np.asarray(grid)
    return np.round(np.asarray(qpts) * n).astype(int) % n


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(grid=grids)
def test_paired_grid_covers_the_grid_once(grid):
    qpts, weights = paired_kpoint_grid(*grid)
    index = _grid_indices(qpts, grid)
    flat = np.ravel_multi_index(index.T, grid)
    partner = np.ravel_multi_index((-index % np.asarray(grid)).T, grid)
    full = kpoint_grid(*grid)
    assert np.all(np.diff(flat) > 0)  # grid order
    assert np.array_equal(qpts, full[flat])
    covered = np.concatenate([flat, partner[weights == 2]])
    assert np.array_equal(np.sort(covered), np.arange(len(full)))
    assert weights.sum() == np.prod(grid)
    self_partner = np.all((2 * index) % np.asarray(grid) == 0, axis=1)
    assert np.array_equal(weights == 1, self_partner)
    assert set(weights.tolist()) <= {1, 2}


def _full_grid(*grid):
    """Every q-point of the grid with unit weight."""
    qpts = kpoint_grid(*grid)
    return qpts, np.ones(len(qpts), dtype=int)


spin_toy_specs = st.builds(
    ToySpec,
    molecules_per_cell=st.integers(1, 2),
    atoms_per_molecule=st.integers(1, 3),
    k_intra=st.floats(0.5, 5.0),
    k_inter=st.floats(0.005, 0.5),
    mass=st.floats(10.0, 200.0),
    a_baseline=st.sampled_from([(0.0, 0.0, 0.0), (0.004, 0.004, 0.014)]),
    a_deriv_mag=st.sampled_from([0.0, 1e-4]),
    nuclear_spin=st.just(0.5),
    field_B=st.just((0.0, 0.0, 5.0)),
    seed=st.integers(0, 2**16),
)


@FEW
@given(spec=spin_toy_specs, grid=st.tuples(st.integers(1, 4),
                                           st.integers(1, 4),
                                           st.integers(1, 4)),
       secular=st.booleans(), prune=st.sampled_from([None, 20.0]))
def test_paired_grid_gives_the_full_grid_redfield_tensor(spec, grid, secular,
                                                         prune):
    crystal, fc, derivs, system = generate_toy_crystal(spec)
    params = RunParams(qgrid=grid, sigma=1.0, temperature=30.0,
                       secular=secular, prune_sigma_mult=prune)
    R, *_, diag = RelaxationPipeline(crystal, fc, derivs,
                                     system).redfield(params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "paired_kpoint_grid", _full_grid)
        R_full, *_, diag_full = RelaxationPipeline(crystal, fc, derivs,
                                                   system).redfield(params)
    assert R.channels.keys() == R_full.channels.keys()
    # the two stacks bound the rate a little differently: compare the
    # elements that both tensors hold
    common = in_cluster(R) & in_cluster(R_full)
    scale = max((np.max(np.abs(p)) for p in R_full.channels.values()),
                default=0.0)
    for ch in R_full.channels:
        diff = R.matrix((ch,)) - R_full.matrix((ch,))
        assert np.max(np.abs(diff[common])) <= 1e-12 * scale
    for key in ("n_q", "skipped_modes", "imaginary_modes", "pruned_modes"):
        assert diag[key] == diag_full[key]


def _pair_asymmetry(fc, grid):
    """Largest |omega(q) - omega(-q)| and |w(q) - w(-q)| over the full
    grid, for any decomposition weight w. Both are round-off: the
    fractional coordinates of q and -q are not exact negatives (2/3 - 1
    is not -1/3 in floating point), so the two eigensolves differ in the
    last digits, and the full-grid DOS carries that difference."""
    qpts = kpoint_grid(*grid)
    omega, vecs = phonon_spectrum(fc, qpts)
    index = _grid_indices(qpts, grid)
    partner = np.ravel_multi_index((-index % np.asarray(grid)).T, grid)
    d_w = max(np.max(np.abs(w - w[partner]))
              for w in (np.broadcast_to(w, omega.shape)
                        for w in decomposition_weights(fc.crystal, vecs)))
    return np.max(np.abs(omega - omega[partner])), d_w, omega.shape[1]


@FEW
@given(spec=toy_specs, grid=grids, sigma=st.floats(0.05, 50.0))
def test_paired_grid_gives_the_full_grid_dos(spec, grid, sigma):
    _, fc, _, _ = generate_toy_crystal(spec)
    qpts, weights = paired_kpoint_grid(*grid)
    dos = phonon_dos(fc, qpts, sigma, weights)
    full = phonon_dos(fc, kpoint_grid(*grid), sigma)
    d_omega, d_w, branches = _pair_asymmetry(fc, grid)
    # the top of the frequency grid is max(omega) + DOS_REACH sigma
    assert np.max(np.abs(dos.frequency - full.frequency)) <= d_omega
    # each pair's two kernels differ by at most slope * (d_omega + grid
    # shift) + kernel * d_w, with slope <= 0.49 / sigma^2 and kernel
    # <= 0.57 / sigma; a frequency bin holds at most branches / 2 pairs
    # per q-point, and the curves are divided by the number of q-points
    slack = branches * (d_omega / sigma**2 + d_w / sigma)
    for name in ("total", "translational", "rotational", "intra"):
        got, want = getattr(dos, name), getattr(full, name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want) + slack


@FEW
@given(spec=toy_specs)
def test_serialize_then_load_is_exact(spec, workdir):
    crystal, fc, derivs, _ = generate_toy_crystal(spec)
    path = workdir / "crystal.json"
    path.write_text(json.dumps(serialize_crystal(crystal)))
    back = load_crystal(str(path))
    assert np.array_equal(back.cell, crystal.cell)
    assert len(back.atoms) == len(crystal.atoms)
    for a, b in zip(back.atoms, crystal.atoms):
        assert a.element == b.element and a.mass == b.mass
        assert a.molecule == b.molecule
        assert np.array_equal(a.frac, b.frac)

    path = workdir / "fc.dat"
    path.write_text(serialize_force_constants(fc))
    fc_back = load_force_constants(str(path), back)
    for name in ("lvecs", "i", "s", "j", "t", "values"):
        assert np.array_equal(getattr(fc_back, name), getattr(fc, name))

    path = workdir / "derivatives.dat"
    path.write_text(serialize_derivatives(derivs))
    d_back = load_derivatives(str(path), back)
    assert d_back.targets == derivs.targets
    for name in ("atom", "s", "lvecs", "tensors"):
        assert np.array_equal(getattr(d_back, name), getattr(derivs, name))


@pytest.fixture(scope="module")
def fuzz_bundle():
    """Small crystal whose derivative file carries g, A and dip targets."""
    return generate_toy_crystal(ToySpec(
        molecules_per_cell=2, atoms_per_molecule=2, spin_molecules=2,
        a_baseline=(0.004, 0.004, 0.014), a_deriv_mag=1e-4, inter_cutoff=4.0))


# a mutation replaces one token of one record line with arbitrary text
# that stays on that line
_FUZZ_TOKENS = st.one_of(
    st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "0.5", "-1",
                     "3", "99999999999999999999", "scan", "g:", "A:0",
                     "dip:0:x", "#", "1 2"]),
    st.text(st.characters(exclude_categories=("Cs",),
                          exclude_characters="\n"), max_size=8),
)


def _mutated(text, line_pick, token_pick, new):
    """(mutated text, 1-based number of the changed line)."""
    lines = text.splitlines()
    records = [k for k, line in enumerate(lines)
               if line.strip() and not line.lstrip().startswith("#")]
    k = records[line_pick % len(records)]
    tokens = lines[k].split()
    tokens[token_pick % len(tokens)] = new
    lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n", k + 1


@pytest.mark.parametrize("kind", ["force_constants", "derivatives"])
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(line_pick=st.integers(0, 10**6), token_pick=st.integers(0, 20),
       new=_FUZZ_TOKENS)
def test_mutated_data_file_raises_only_parse_error(kind, line_pick, token_pick,
                                                   new, workdir, fuzz_bundle):
    crystal, fc, derivs, _ = fuzz_bundle
    if kind == "force_constants":
        text, load = serialize_force_constants(fc), load_force_constants
    else:
        text, load = serialize_derivatives(derivs), load_derivatives
    text, lineno = _mutated(text, line_pick, token_pick, new)
    path = workdir / f"{kind}.dat"
    path.write_bytes(text.encode("utf-8"))
    try:
        load(str(path), crystal)
    except ParseError as exc:
        assert exc.line == lineno



# -- spin layer ---------------------------------------------------------------

spin_cases = st.fixed_dictionaries({
    "d": st.integers(2, 8),
    "m": st.integers(1, 12),
    "seed": st.integers(0, 2**16),
    "secular": st.booleans(),
    "temperature": st.floats(1.0, 300.0),
})


def _hermitian(rng, *shape):
    A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return A + np.swapaxes(A.conj(), -1, -2)


def _spin_case(d, m, seed, secular, temperature):
    """Random product-basis Hamiltonian, coupling operators near its gaps
    in two channels, and an observable; the couplings go into the
    eigenbasis of ``ham`` as the pipeline rotates them."""
    rng = np.random.default_rng(seed)
    H = _hermitian(rng, d, d)
    ham = diagonalize(H)
    V = 0.01 * _hermitian(rng, m, d, d)
    gaps = np.abs(ham.omega[np.triu_indices(d, 1)])
    omega = rng.choice(gaps, size=m) + rng.uniform(0.05, 0.5, size=m)
    channel = rng.choice(["zeeman", "hyperfine"], size=m)
    pc = PhononCorrelation(sigma=rng.uniform(0.3, 2.0),
                           temperature=temperature)
    O = _hermitian(rng, d, d)

    def tensor(h, c=1.0, dense=False):
        """R of the couplings c V, in the eigenbasis of h, or with
        ``dense`` its dense reference {channel: R}."""
        stack = CouplingStack(omega=omega, channel=channel,
                              V=h.to_eigenbasis(c * V))
        build = dense_redfield if dense else assemble_redfield
        return build(stack, h, pc, secular=secular)
    return ham, tensor, O, rng


#: rate scale over the largest Bohr frequency, as a power of ten: from
#: narrow clusters around each frequency to a few broad ones
block_cases = st.fixed_dictionaries({
    "case": spin_cases,
    "log_ratio": st.floats(-6.0, -2.0),
})


def _clustered_tensor(case, log_ratio):
    """The case's Hamiltonian, its R rescaled so that its rate scale is
    10**log_ratio of the largest Bohr frequency, and the dense
    reference of that R."""
    ham, tensor, _, _ = _spin_case(**case)
    omega = np.abs(ham.omega).max() * ANGULAR_FREQUENCY_PER_CM1
    c = np.sqrt(10.0 ** log_ratio * omega / tensor(ham).clusters.rate)
    return ham, tensor(ham, c), tensor(ham, c, dense=True)


def _transposed(idx, d):
    return idx % d * d + idx // d


@FEW
@given(case=block_cases)
def test_blocks_are_the_in_cluster_elements_of_L(case):
    ham, R, ref = _clustered_tensor(**case)
    d = ham.dimension
    # the elements match the dense formula; the rate bounds its row sums
    # and the clusters are the rule's at that rate
    assert_matches_dense(R, ref)
    omega = bohr_omega(ham)
    labels = cluster_labels(omega, R.clusters.rate)
    sizes = np.bincount(labels)
    clusters = R.clusters
    assert (clusters.count, clusters.largest) == (sizes.size, sizes.max())
    assert clusters.gap_ratio <= 1.0 / redfield.CLUSTER_GAP_FACTOR
    # the total's clusters serve every channel selection
    for channels in (None,) + tuple((ch,) for ch in R.channels):
        L = sum(part for ch, part in ref.items()
                if channels is None or ch in channels) - 1j * np.diag(omega)
        scale = np.max(np.abs(L))
        seen = []
        for block in redfield._BlockEigensystem(R, channels).blocks:
            for idx, Lc, mean, zero in zip(block.idx, block.L, block.mean,
                                           block.zero):
                # a whole cluster, at its mean frequency
                assert np.unique(labels[idx]).size == 1
                assert sizes[labels[idx[0]]] == idx.size
                assert mean == (0.0 if zero else np.mean(omega[idx]))
                want = L[np.ix_(idx, idx)] + 1j * mean * np.eye(idx.size)
                assert np.max(np.abs(Lc - want)) <= 1e-12 * scale
                seen.append(idx)
                if not zero:
                    seen.append(_transposed(idx, d))
        # the kept clusters and their conjugates cover every coherence once
        assert np.array_equal(np.sort(np.concatenate(seen)),
                              np.arange(d * d))


@FEW
@given(case=block_cases)
def test_block_eigenvalues_match_the_dense_generator(case):
    ham, R, ref = _clustered_tensor(**case)
    omega = bohr_omega(ham)
    total = sum(ref.values())
    lam = np.linalg.eigvals(total - 1j * np.diag(omega))
    eigsys = redfield._BlockEigensystem(R)
    conjugates = [(b.w - 1j * b.mean[:, None])[~b.zero].conj().reshape(-1)
                  for b in eigsys.blocks]
    lam_blocks = np.concatenate([eigsys.eigenvalues()] + conjugates)
    assert lam_blocks.size == lam.size
    # dropping the elements between clusters moves an eigenvalue by
    # O(rate^2 / gap), at the dense generator's own rate; a dense eig
    # resolves it to round-off on |L|
    rate = gershgorin_rate(total)
    min_gap = smallest_gap(omega, cluster_labels(omega, R.clusters.rate))
    tol = rate * rate / min_gap + 1e-12 * np.max(np.abs(omega))
    gap = np.abs(lam[:, None] - lam_blocks[None, :])
    assert np.max(np.min(gap, axis=1)) <= tol
    assert np.max(np.min(gap, axis=0)) <= tol


@FEW
@given(case=block_cases)
def test_blocks_preserve_the_trace_and_hermiticity(case):
    ham, R, _ = _clustered_tensor(**case)
    d = ham.dimension
    Rmat = R.matrix()
    scale = np.max(np.abs(Rmat))
    eigsys = redfield._BlockEigensystem(R)
    block, k = eigsys.zero
    idx, L0 = block.idx[k], block.L[k]
    # Tr(rho) is the sum of the populations, which all lie in the zero
    # cluster
    populations = idx % (d + 1) == 0
    assert np.count_nonzero(populations) == d
    assert np.max(np.abs(L0[populations].sum(axis=0))) <= 1e-12 * scale
    # R_ba,dc = conj R_ab,cd inside every cluster, so a Hermitian rho
    # stays Hermitian
    for b in eigsys.blocks:
        for idx in b.idx:
            t = _transposed(idx, d)
            assert (np.max(np.abs(Rmat[np.ix_(t, t)]
                                  - Rmat[np.ix_(idx, idx)].conj()))
                    <= 1e-12 * scale)


@FEW
@given(d=st.integers(2, 6), seed=st.integers(0, 2**16),
       sigma=st.floats(0.3, 2.0), temperature=st.floats(20.0, 300.0),
       detuning=st.floats(-1.0, 1.0))
def test_one_row_obeys_detailed_balance(d, seed, sigma, temperature,
                                        detuning):
    # levels at least 3 sigma apart, in a random basis; one mode near
    # the gap of a random pair of levels: the up rate over the down rate
    # is n / (n + 1) of the mode, up to a kernel tail below 1e-15
    rng = np.random.default_rng(seed)
    levels = np.cumsum(rng.uniform(3.0 * sigma, 10.0, size=d))
    Q, _ = np.linalg.qr(_hermitian(rng, d, d))
    ham = diagonalize(Q @ np.diag(levels) @ Q.conj().T)
    a, b = np.sort(rng.choice(d, size=2, replace=False))
    gap = float(ham.eigvals[b] - ham.eigvals[a])
    omega_m = max(gap + detuning * sigma, 3.0 * sigma)
    V = ham.to_eigenbasis(_hermitian(rng, d, d))
    pc = PhononCorrelation(sigma=sigma, temperature=temperature)
    R = assemble_redfield(CouplingStack(omega=[omega_m], channel=["zeeman"],
                                        V=[V]), ham, pc).matrix()
    up, down = R[b * d + b, a * d + a].real, R[a * d + a, b * d + b].real
    boltzmann = np.exp(-omega_m / (KB_CM1_PER_K * temperature))
    assert abs(up / down / boltzmann - 1.0) <= 1e-10


two_level_cases = st.fixed_dictionaries({
    "field": st.floats(1.0, 10.0),
    "strength": st.floats(1e-6, 1e-4),
    "detuning": st.floats(0.0, 0.5),
    "sigma": st.floats(0.3, 2.0),
    "temperature": st.floats(1.0, 300.0),
    "seed": st.integers(0, 2**16),
})


@FEW
@given(case=two_level_cases)
def test_block_tau_equals_secular_tau_on_a_two_level_system(case):
    system = SpinSystem(centers=(SpinCenter(id=0, kind="electronic",
                                            s=0.5),),
                        field_B=np.array([0.0, 0.0, case["field"]]))
    ops = build_spin_operators(system)
    ham = assemble_hamiltonian(system, ops)
    gap = float(ham.eigvals[1] - ham.eigvals[0])
    rng = np.random.default_rng(case["seed"])
    V = case["strength"] * _hermitian(rng, 3, 2, 2)
    stack = CouplingStack(omega=gap + case["detuning"] + np.arange(3) * 0.1,
                          channel=["zeeman"] * 3, V=V)
    pc = PhononCorrelation(sigma=case["sigma"],
                           temperature=case["temperature"])
    R = assemble_redfield(stack, ham, pc)
    # the two coherences lie far from zero and from each other
    assert R.clusters.count == 3 and R.clusters.gap_ratio < 1e-3
    tau, tau_secular = (
        extract_relaxation_time(assemble_redfield(stack, ham, pc, secular=s),
                                ham, ops, method="slowest_mode").tau_ms
        for s in (False, True))
    assert tau == pytest.approx(tau_secular, rel=1e-9)


@FEW
@given(case=spin_cases)
def test_tau_is_independent_of_the_eigenvector_gauge(case):
    ham, tensor, O, rng = _spin_case(**case)
    phases = np.exp(2j * np.pi * rng.uniform(size=case["d"]))
    turned = SpinHamiltonian(matrix=ham.matrix, eigvals=ham.eigvals,
                             eigvecs=ham.eigvecs * phases)
    R = tensor(ham)

    def rate(h):
        """Rate of the slowest mode, or None when that mode grows."""
        try:
            est = extract_relaxation_time(tensor(h), h, None,
                                          observable=h.to_eigenbasis(O),
                                          method="slowest_mode")
        except NumericalError as exc:
            if "grows" not in str(exc):
                raise
            return None
        return 1.0 / (est.tau_ms * redfield.PS_PER_MS)

    rate_plain, rate_turned = rate(ham), rate(turned)
    # a growing mode is picked in both gauges or in neither
    assert (rate_plain is None) == (rate_turned is None)
    if rate_plain is not None:
        # rates agree to round-off on the generator's scale
        dense = sum(tensor(ham, dense=True).values())
        scale = np.max(np.abs(np.linalg.eigvals(dense)))
        assert abs(rate_plain - rate_turned) <= 1e-10 * scale


@FEW
@given(case=spin_cases, c=st.floats(0.1, 10.0))
def test_rates_scale_with_the_square_of_the_coupling(case, c):
    ham, tensor, _, _ = _spin_case(**case)
    R, R_c = tensor(ham), tensor(ham, c)
    assert R_c.channels.keys() == R.channels.keys()
    # the clusters move with the rate scale: compare the elements that
    # both tensors hold
    common = in_cluster(R) & in_cluster(R_c)
    scale = max(np.max(np.abs(part)) for part in R_c.channels.values())
    for ch in R.channels:
        diff = R_c.matrix((ch,)) - c**2 * R.matrix((ch,))
        assert np.max(np.abs(diff[common])) <= 1e-12 * scale


@FEW
@given(case=block_cases)
def test_propagate_matches_expm_at_every_time(case):
    ham, R, ref = _clustered_tensor(**case)
    d = ham.dimension
    rng = np.random.default_rng(case["case"]["seed"])
    B = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho0 = B @ B.conj().T
    rho0 /= np.trace(rho0)
    # L on its clusters: the elements that R holds, built densely here
    omega = bohr_omega(ham)
    rate = gershgorin_rate(sum(ref.values()))
    L = R.matrix() - 1j * np.diag(omega)
    # a random Redfield generator can have growing modes, no faster than
    # the rate scale: times stay within a few 1/rate
    times = np.array([0.0, 0.1, 1.0, 3.0, 10.0]) / rate
    states = propagate(rho0, R, times)
    for t, state in zip(times, states):
        rho = state.matrix
        assert state.time_ps == t
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        assert np.array_equal(rho, rho.conj().T)
        x_ref = scipy.linalg.expm(L * t) @ rho0.reshape(-1)
        # expm squares |L t| up to 1e7: its error grows with it
        tol = 1e-14 * (1.0 + np.max(np.abs(L)) * t)
        assert (np.max(np.abs(rho.reshape(-1) - x_ref))
                <= tol * np.max(np.abs(x_ref)))
