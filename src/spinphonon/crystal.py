"""Periodic crystal model: cell, atoms, molecule partition, and the
molecules' rigid-body basis."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Atom:
    element: str
    mass: float  # amu
    frac: np.ndarray  # fractional position in the cell
    molecule: int

    def __post_init__(self):
        if self.mass <= 0:
            raise ValidationError(f"non-positive mass for atom {self.element!r}")
        object.__setattr__(self, "frac", np.asarray(self.frac, dtype=float))


@dataclass(frozen=True)
class CrystalModel:
    """Lattice vectors (rows, Angstrom) plus atoms grouped into molecules."""

    cell: np.ndarray
    atoms: tuple

    def __post_init__(self):
        cell = np.asarray(self.cell, dtype=float)
        if cell.shape != (3, 3):
            raise ValidationError("cell must be 3x3")
        if abs(np.linalg.det(cell)) < 1e-12:
            raise ValidationError("cell is singular")
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise ValidationError("crystal has no atoms")

    @property
    def n_atoms(self):
        return len(self.atoms)

    @property
    def masses(self):
        return np.array([a.mass for a in self.atoms])

    @property
    def frac_positions(self):
        return np.array([a.frac for a in self.atoms])

    @property
    def cart_positions(self):
        """Cartesian positions in Angstrom (rows)."""
        return self.frac_positions @ self.cell

    @property
    def molecule_ids(self):
        return sorted({a.molecule for a in self.atoms})

    def molecule_atoms(self, molecule_id):
        """Indices of the atoms belonging to one molecule."""
        idx = [k for k, a in enumerate(self.atoms) if a.molecule == molecule_id]
        if not idx:
            raise KeyError(f"no molecule {molecule_id}")
        return np.array(idx)

    @cached_property
    def rigid_body_rows(self):
        """(rows, n_trans): every molecule's translations (the first
        n_trans rows, three per molecule), then every molecule's rotations,
        from ``rigid_body_basis``, each a row over the 3N Cartesian
        displacements of the cell. Computed once per crystal, read-only."""
        n3 = 3 * self.n_atoms
        trans, rots = [], []
        for mol in self.molecule_ids:
            idx, t, r = rigid_body_basis(self, mol)
            comp = (3 * idx[:, None] + np.arange(3)[None, :]).reshape(-1)
            for kind, basis in ((trans, t), (rots, r)):
                embedded = np.zeros((len(basis), n3))
                embedded[:, comp] = basis
                kind.append(embedded)
        rows = np.concatenate(trans + rots)
        rows.flags.writeable = False
        return rows, 3 * len(trans)


def rigid_body_basis(crystal, molecule_id):
    """Orthonormal mass-weighted translation/rotation vectors for one molecule.

    Returns (atom_indices, T, R): T is (3, 3n_mol) and R (rank, 3n_mol)
    in the molecule's own 3n_mol-dimensional block. Rank-deficient
    rotations (linear molecules, single atoms) simply yield fewer rows.
    """
    idx = crystal.molecule_atoms(molecule_id)
    masses = crystal.masses[idx]
    pos = crystal.cart_positions[idx]
    com = masses @ pos / masses.sum()
    rel = pos - com
    sq = np.sqrt(masses)

    trans = np.zeros((3, 3 * idx.size))
    for s in range(3):
        trans[s, s::3] = sq
    rots = np.zeros((3, 3 * idx.size))
    for s in range(3):
        axis = np.zeros(3)
        axis[s] = 1.0
        disp = np.cross(np.broadcast_to(axis, rel.shape), rel)
        rots[s] = (disp * sq[:, None]).reshape(-1)

    # Orthonormalize: translations are already orthogonal; project them
    # out of the rotations and keep the non-degenerate directions.
    trans /= np.linalg.norm(trans, axis=1, keepdims=True)
    rots -= (rots @ trans.T) @ trans
    u, sv, vt = np.linalg.svd(rots, full_matrices=False)
    scale = max(1.0, sv[0]) if sv.size else 1.0
    keep = sv > 1e-10 * scale
    rot_basis = vt[keep]
    return idx, trans, rot_basis
