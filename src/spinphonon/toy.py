"""Synthetic mass-spring crystals with spin systems attached.

These generators stand in for the electronic-structure pipeline: they
produce periodic force constants obeying the acoustic sum rule by
construction, plus seeded synthetic derivative tensors, so the whole
relaxation machinery runs at desk scale.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingDerivativeSet, dipolar_pair_records
from .crystal import Atom, CrystalModel
from .errors import ConfigError, ValidationError
from .hamiltonian import dipolar_tensor
from .lattice import ForceConstantSet
from .project import (serialize_crystal, serialize_derivatives,
                      serialize_force_constants, serialize_spin_system)
from .spins import SpinCenter, SpinCoupling, SpinSystem

# deterministic intra-molecular placement pattern (unit directions)
_PATTERN = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
    [-1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
    [0.0, 0.0, -1.0],
    [1.0, 1.0, 0.0],
    [1.0, 0.0, 1.0],
    [0.0, 1.0, 1.0],
])

_MOLECULE_SITES = {
    1: [(0.0, 0.0, 0.0)],
    2: [(0.0, 0.0, 0.0), (0.5, 0.5, 0.5)],
    3: [(0.0, 0.0, 0.0), (1 / 3, 1 / 3, 0.0), (2 / 3, 2 / 3, 0.0)],
    4: [(0.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5)],
}


@dataclass(frozen=True)
class ToySpec:
    """Parameters of the synthetic molecular crystal.

    Spring constants in eV/A^2; g/A baselines follow the usual spin
    Hamiltonian conventions (g dimensionless, A in cm^-1); derivative
    magnitudes are per Angstrom.
    """

    lattice: tuple = (6.0, 6.0, 6.0)  # a, b, c in Angstrom (orthorhombic)
    molecules_per_cell: int = 1
    atoms_per_molecule: int = 1
    mass: float = 20.0
    k_intra: float = 2.0
    k_inter: float = 0.15
    transverse_fraction: float = 0.25
    intra_spacing: float = 1.4  # Angstrom
    jitter: float = 0.0  # fractional jitter on intra positions
    inter_cutoff: float = None  # Angstrom; default spans all three axes
    g_baseline: tuple = (2.0, 2.0, 2.0)
    a_baseline: tuple = (0.0, 0.0, 0.0)  # cm^-1; nonzero enables hyperfine
    g_deriv_mag: float = 1e-3
    a_deriv_mag: float = 0.0
    nuclear_spin: float = 3.5
    spin_molecules: int = 1  # electrons on the first N molecules
    dipolar_couplings: bool = True
    derivative_sum_rule: bool = True
    field_B: tuple = (0.0, 0.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.k_intra <= 0 or self.k_inter <= 0:
            raise ValidationError("spring constants must be positive")
        if self.mass <= 0:
            raise ValidationError("mass must be positive")
        if self.molecules_per_cell not in _MOLECULE_SITES:
            raise ValidationError("molecules_per_cell must be 1..4")
        if not (1 <= self.atoms_per_molecule <= len(_PATTERN)):
            raise ValidationError(
                f"atoms_per_molecule must be 1..{len(_PATTERN)}")
        if not (0 <= self.spin_molecules <= self.molecules_per_cell):
            raise ValidationError("spin_molecules exceeds molecules_per_cell")


def _build_crystal(spec, rng):
    a, b, c = spec.lattice
    cell = np.diag([a, b, c]).astype(float)
    inv_cell = np.linalg.inv(cell)
    atoms = []
    for mol, site in enumerate(_MOLECULE_SITES[spec.molecules_per_cell]):
        center_cart = np.asarray(site) @ cell
        for k in range(spec.atoms_per_molecule):
            offs = _PATTERN[k] * spec.intra_spacing
            if spec.jitter > 0:
                offs = offs + rng.normal(scale=spec.jitter * spec.intra_spacing, size=3)
            frac = (center_cart + offs) @ inv_cell
            atoms.append(Atom(element="X", mass=spec.mass, frac=frac, molecule=mol))
    return CrystalModel(cell=cell, atoms=tuple(atoms))


def _spring_matrix(u_vec, k_long, k_trans):
    u = u_vec / np.linalg.norm(u_vec)
    P = np.outer(u, u)
    return k_long * P + k_trans * (np.eye(3) - P)


def _build_force_constants(spec, crystal):
    """Pairwise longitudinal+transverse springs; ASR by construction."""
    n = crystal.n_atoms
    cart = crystal.cart_positions
    cell = crystal.cell
    cutoff = spec.inter_cutoff
    if cutoff is None:
        cutoff = 1.05 * max(np.linalg.norm(cell[k]) for k in range(3))
    kt_frac = spec.transverse_fraction

    blocks = {}

    def add_block(lvec, i, j, K):
        key = (tuple(int(x) for x in lvec), i, j)
        blocks[key] = blocks.get(key, 0.0) + K

    shifts = [(l1, l2, l3)
              for l1 in (-1, 0, 1) for l2 in (-1, 0, 1) for l3 in (-1, 0, 1)]
    mol_of = [a.molecule for a in crystal.atoms]
    for i in range(n):
        for j in range(n):
            for lv in shifts:
                if lv == (0, 0, 0) and i == j:
                    continue
                # canonical orientation so each bond is counted once
                if (lv, i, j) > (tuple(-x for x in lv), j, i):
                    continue
                rj = cart[j] + np.asarray(lv, float) @ cell
                d_vec = rj - cart[i]
                dist = np.linalg.norm(d_vec)
                same_mol = lv == (0, 0, 0) and mol_of[i] == mol_of[j]
                if same_mol:
                    k_long = spec.k_intra
                elif dist <= cutoff:
                    k_long = spec.k_inter
                else:
                    continue
                K = _spring_matrix(d_vec, k_long, kt_frac * k_long)
                neg_lv = tuple(-x for x in lv)
                add_block(lv, i, j, -K)
                add_block(neg_lv, j, i, -K)
                add_block((0, 0, 0), i, i, K)
                add_block((0, 0, 0), j, j, K)

    lvecs, ii, ss, jj, tt, vals = [], [], [], [], [], []
    for (lv, i, j), K in blocks.items():
        for s in range(3):
            for t in range(3):
                if K[s, t] != 0.0:
                    lvecs.append(lv)
                    ii.append(i)
                    ss.append(s)
                    jj.append(j)
                    tt.append(t)
                    vals.append(K[s, t])
    return ForceConstantSet(crystal=crystal, lvecs=lvecs, i=ii, s=ss,
                            j=jj, t=tt, values=vals)


def _synthetic_channel_records(rng, target, atom_indices, magnitude, sum_rule):
    """Random derivative tensors for one target over a molecule's atoms."""
    targets, atoms, ss, lvecs, tensors = [], [], [], [], []
    n = len(atom_indices)
    raw = rng.normal(scale=magnitude, size=(n, 3, 3, 3))  # (atom, s, 3, 3)
    if sum_rule and n > 1:
        raw -= raw.mean(axis=0, keepdims=True)
    elif sum_rule and n == 1:
        # a single carrier cannot satisfy the atom-sum rule; keep as is
        pass
    for a_idx, atom in enumerate(atom_indices):
        for s in range(3):
            targets.append(target)
            atoms.append(atom)
            ss.append(s)
            lvecs.append((0, 0, 0))
            tensors.append(raw[a_idx, s])
    return CouplingDerivativeSet(targets, atoms, ss, lvecs, tensors,
                                 ["synthetic"] * len(targets))


def generate_toy_crystal(spec):
    """Build (CrystalModel, ForceConstantSet, CouplingDerivativeSet,
    SpinSystem) from a ToySpec, deterministically for a given seed."""
    rng = np.random.default_rng(spec.seed)
    crystal = _build_crystal(spec, rng)
    fc = _build_force_constants(spec, crystal)

    # spin system: one electronic spin per spin molecule, carried by the
    # molecule's first atom; optional nuclear spin on molecule 0
    centers = []
    couplings = []
    carrier = {}
    cid = 0
    cart = crystal.cart_positions
    for mol in range(spec.spin_molecules):
        atom_idx = int(crystal.molecule_atoms(mol)[0])
        centers.append(SpinCenter(id=cid, kind="electronic", s=0.5,
                                  g=np.diag(spec.g_baseline),
                                  position=cart[atom_idx]))
        carrier[cid] = atom_idx
        cid += 1
    a_diag = np.diag(spec.a_baseline)
    has_hyperfine = np.any(np.abs(a_diag) > 0)
    nuclear_id = None
    if has_hyperfine:
        atom_idx = carrier[0]
        nuclear_id = cid
        centers.append(SpinCenter(id=nuclear_id, kind="nuclear",
                                  s=spec.nuclear_spin,
                                  position=cart[atom_idx]))
        carrier[nuclear_id] = atom_idx
        couplings.append(SpinCoupling(i=0, j=nuclear_id, tensor=a_diag,
                                      tag="hyperfine"))
        cid += 1
    electron_ids = [c.id for c in centers if c.kind == "electronic"]
    if spec.dipolar_couplings:
        for a in range(len(electron_ids)):
            for b in range(a + 1, len(electron_ids)):
                ci = centers[a]
                cj = centers[b]
                D = dipolar_tensor(ci, cj, cj.position - ci.position)
                couplings.append(SpinCoupling(i=ci.id, j=cj.id, tensor=D,
                                              tag="dipolar"))
    system = SpinSystem(centers=tuple(centers), couplings=tuple(couplings),
                        field_B=np.asarray(spec.field_B, float))

    # derivative records
    derivs = CouplingDerivativeSet()
    for eid in electron_ids:
        mol = crystal.atoms[carrier[eid]].molecule
        mol_atoms = list(crystal.molecule_atoms(mol))
        if spec.g_deriv_mag > 0:
            derivs = derivs.merged(_synthetic_channel_records(
                rng, ("g", eid), mol_atoms, spec.g_deriv_mag,
                spec.derivative_sum_rule))
    if has_hyperfine and spec.a_deriv_mag > 0:
        mol_atoms = list(crystal.molecule_atoms(0))
        derivs = derivs.merged(_synthetic_channel_records(
            rng, ("A", (0, nuclear_id)), mol_atoms, spec.a_deriv_mag,
            spec.derivative_sum_rule))
    if spec.dipolar_couplings:
        for cp in couplings:
            if cp.tag != "dipolar":
                continue
            ci = system.center(cp.i)
            cj = system.center(cp.j)
            derivs = derivs.merged(dipolar_pair_records(
                ci, cj, carrier[cp.i], carrier[cp.j]))
    return crystal, fc, derivs, system


def diatomic_chain(m1=10.0, m2=14.0, k=1.0, a=4.0):
    """1D diatomic chain embedded along x in a 3D cell (longitudinal
    springs only); the two x-polarized branches follow the textbook
    dispersion, the transverse blocks are identically zero."""
    cell = np.diag([a, 50.0, 50.0])
    atoms = (
        Atom(element="A", mass=m1, frac=(0.0, 0.0, 0.0), molecule=0),
        Atom(element="B", mass=m2, frac=(0.5, 0.0, 0.0), molecule=0),
    )
    crystal = CrystalModel(cell=cell, atoms=atoms)
    lvecs, ii, ss, jj, tt, vals = [], [], [], [], [], []

    def rec(lv, i, j, v):
        lvecs.append(lv)
        ii.append(i)
        ss.append(0)
        jj.append(j)
        tt.append(0)
        vals.append(v)

    # bonds: atom0-atom1 in cell 0 and atom1-atom0(+x)
    rec((0, 0, 0), 0, 1, -k)
    rec((0, 0, 0), 1, 0, -k)
    rec((1, 0, 0), 1, 0, -k)
    rec((-1, 0, 0), 0, 1, -k)
    rec((0, 0, 0), 0, 0, 2 * k)
    rec((0, 0, 0), 1, 1, 2 * k)
    fc = ForceConstantSet(crystal=crystal, lvecs=lvecs, i=ii, s=ss,
                          j=jj, t=tt, values=vals)
    return crystal, fc


def diatomic_chain_dispersion(qx, m1, m2, k, branch):
    """Closed-form diatomic-chain angular eigenvalues (eV/A^2/amu).

    Returns lambda = omega^2 for the acoustic ("-") or optical ("+")
    branch at fractional qx.
    """
    mu = 1.0 / m1 + 1.0 / m2
    s2 = np.sin(np.pi * np.asarray(qx)) ** 2
    disc = np.sqrt(mu**2 - 4.0 * s2 / (m1 * m2))
    if branch == "optical":
        return k * (mu + disc)
    return k * (mu - disc)


def toy_preset(name, seed=0):
    """Named synthetic-crystal presets for fixture generation."""
    if name == "soft":
        # soft acoustic band (< ~4 cm^-1) with the spin gap placed near
        # the band top: converges fast on coarse q-grids
        return ToySpec(lattice=(6.0, 6.0, 6.0), molecules_per_cell=1,
                       atoms_per_molecule=2, mass=150.0, k_intra=1.0,
                       k_inter=0.0008, g_deriv_mag=1e-3,
                       dipolar_couplings=False, field_B=(0.0, 0.0, 5.0),
                       seed=seed)
    if name == "vanadyl":
        # molecular-qubit-like parameters: anisotropic g just below 2,
        # I=7/2 nucleus with an axial hyperfine tensor, d = 16
        return ToySpec(lattice=(7.060, 7.935, 11.091), molecules_per_cell=1,
                       atoms_per_molecule=4, mass=120.0, k_intra=1.0,
                       k_inter=0.003, g_baseline=(1.9830, 1.9814, 1.9274),
                       a_baseline=(0.00354, 0.00396, 0.01396),
                       nuclear_spin=3.5, g_deriv_mag=1e-3, a_deriv_mag=1e-4,
                       field_B=(0.0, 0.0, 5.0), seed=seed)
    raise ConfigError(f"unknown toy preset {name!r}")


def write_toy_project(out_dir, spec, qgrid=(8, 8, 8), sigma=1.0,
                      temperature=50.0, sweeps=()):
    """Generate a toy crystal and serialize it as a loadable project."""
    crystal, fc, derivs, system = generate_toy_crystal(spec)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "crystal.json"), "w") as fh:
        json.dump(serialize_crystal(crystal), fh, indent=1)
        fh.write("\n")
    with open(os.path.join(out_dir, "force_constants.dat"), "w") as fh:
        fh.write(serialize_force_constants(fc))
    with open(os.path.join(out_dir, "derivatives.dat"), "w") as fh:
        fh.write(serialize_derivatives(derivs))
    config = {
        "crystal": "crystal.json",
        "force_constants": "force_constants.dat",
        "derivatives": ["derivatives.dat"],
        "spin_system": serialize_spin_system(system),
        "field_T": list(np.asarray(spec.field_B, float)),
        "temperature_K": temperature,
        "qgrid": list(qgrid),
        "sigma_cm1": sigma,
        "secular": False,
        "sweeps": list(sweeps),
        "output_dir": ".",
        "seed": spec.seed,
    }
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh, indent=1)
        fh.write("\n")
    return config_path
