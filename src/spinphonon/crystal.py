"""Periodic crystal model: cell, atoms, molecule partition."""

from dataclasses import dataclass

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
