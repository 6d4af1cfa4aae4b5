"""Static spin Hamiltonian: assembly, diagonalization, dipolar tensors."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .units import DIPOLAR_PREFACTOR_CM1_A3


@dataclass(frozen=True)
class SpinHamiltonian:
    """Diagonalized spin Hamiltonian in cm^-1.

    ``eigvecs`` columns are eigenstates (ascending eigenvalues), with a
    fixed gauge: the largest-magnitude component of each column is made
    real positive, so matrix elements are reproducible across runs even
    for degenerate (Kramers) pairs.
    """

    matrix: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray

    @property
    def dimension(self):
        return self.matrix.shape[0]

    @property
    def omega(self):
        """Transition-frequency matrix omega[a,b] = E_a - E_b (cm^-1)."""
        return self.eigvals[:, None] - self.eigvals[None, :]

    def to_eigenbasis(self, op):
        return self.eigvecs.conj().T @ op @ self.eigvecs

    def from_eigenbasis(self, op):
        return self.eigvecs @ op @ self.eigvecs.conj().T


def _fix_gauge(vecs):
    out = vecs.copy()
    for k in range(out.shape[1]):
        idx = np.argmax(np.abs(out[:, k]))
        z = out[idx, k]
        if abs(z) > 0:
            out[:, k] *= np.conj(z) / abs(z)
    return out


def diagonalize(matrix):
    """Hermitian eigendecomposition with gauge-fixed eigenvectors."""
    matrix = np.asarray(matrix, dtype=complex)
    herm_residual = np.max(np.abs(matrix - matrix.conj().T))
    if herm_residual > 1e-10:
        raise ValidationError(f"Hamiltonian not Hermitian (residual {herm_residual:.2e})")
    vals, vecs = np.linalg.eigh(matrix)
    return SpinHamiltonian(matrix=matrix, eigvals=vals, eigvecs=_fix_gauge(vecs))


def assemble_hamiltonian(system, ops):
    """H = sum_i beta_i B.g(i).S(i) + 1/2 sum_ij S(i).D(ij).S(j).

    Pair tensors are stored once per unordered pair; both orderings of
    the double sum are expanded with the 1/2 factor, which for commuting
    embedded operators reduces to a single S(i).D.S(j) term per pair.
    That term is contracted in factored form, sum_v T_v S_v(j) with
    T_v = sum_u D_uv S_u(i): one tensordot and one (d, 3d) @ (3d, d)
    product.
    """
    d = system.dimension
    H = np.zeros((d, d), dtype=complex)
    B = system.field_B
    for c in system.centers:
        if c.kind == "nuclear" and not system.include_nuclear_zeeman:
            continue
        S = ops.embedded[c.id]
        gB = B @ c.g  # row vector B.g
        H += c.magneton_cm1_per_T * np.einsum("u,uab->ab", gB, S)
    for cp in system.couplings:
        # 1/2 [S_i.D.S_j + S_j.D^T.S_i] == S_i.D.S_j for commuting centers
        T = np.tensordot(cp.tensor, ops.embedded[cp.i], axes=(0, 0))
        H += (T.transpose(1, 0, 2).reshape(d, 3 * d)
              @ ops.embedded[cp.j].reshape(3 * d, d))
    return diagonalize(H)


def dipolar_tensor(center_i, center_j, r_vec):
    """Point-dipole interaction tensor between two centers, cm^-1.

    D = (C gi gj / r^3) [gi^T gj - 3 (gi^T r_hat)(r_hat^T gj)] with
    C = mu0 muB^2 / 4pi expressed in cm^-1 A^3; r_vec in Angstrom.
    """
    r_vec = np.asarray(r_vec, dtype=float)
    r = np.linalg.norm(r_vec)
    if r <= 0.1:
        raise ValidationError(f"centers too close for point-dipole tensor (r={r:.3g} A)")
    rhat = r_vec / r
    gi, gj = center_i.g, center_j.g
    kernel = gi.T @ gj - 3.0 * np.outer(gi.T @ rhat, rhat @ gj)
    return DIPOLAR_PREFACTOR_CM1_A3 / r**3 * kernel
