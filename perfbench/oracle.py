"""Independent two-level golden-rule oracle for a single S=1/2 spin (d=2).

Nothing here calls the program: the constants are typed in from
CODATA 2018, the lattice dynamics and the mode projection are redone
from the raw force-constant and derivative records, and the spin matrix
elements are taken in closed form. With the program's Gaussian
one-phonon correlation function G, the longitudinal rate is

    1/T1 = W_up + W_down
         = (pi/hbar^2) sum_m |V_m|^2 (2 n_m + 1) [g(w_m - D) + g(w_m + D)]

with D the Zeeman gap, n_m the Bose occupation of mode m and
g(x) = exp(-x^2/sigma^2) / (sigma sqrt(pi)).
"""

import math

import numpy as np

# CODATA 2018 (SI)
H_J_S = 6.62607015e-34
C_CM_S = 2.99792458e10
KB_J_K = 1.380649e-23
MU_B_J_T = 9.2740100783e-24
AMU_KG = 1.66053906660e-27
EV_J = 1.602176634e-19

KB_CM1 = KB_J_K / (H_J_S * C_CM_S)  # cm^-1 per K
MU_B_CM1 = MU_B_J_T / (H_J_S * C_CM_S)  # cm^-1 per T
RAD_PS_PER_CM1 = 2.0 * math.pi * C_CM_S * 1e-12
# sqrt(hbar / (omega m)) at omega = 1 cm^-1 and m = 1 amu, in Angstrom
ZPL_A = math.sqrt(H_J_S / (2.0 * math.pi) / (RAD_PS_PER_CM1 * 1e12 * AMU_KG)) * 1e10
# omega [cm^-1] = FREQ * sqrt(lambda [eV / A^2 / amu])
FREQ_CM1 = math.sqrt(EV_J / (1e-20 * AMU_KG)) / (2.0 * math.pi * C_CM_S)
PS_PER_MS = 1e9
OMEGA_MIN_CM1 = 0.01  # modes below this carry no coupling (as in the program)


def _grid(n):
    v = np.arange(n) / n
    return np.where(v > 0.5, v - 1.0, v)


class GoldenRuleOracle:
    """Phonons and mode couplings of one project, evaluated once; tau at
    any temperature is then a sum over modes."""

    def __init__(self, masses, fc_lvecs, fc_i, fc_s, fc_j, fc_t, fc_values,
                 d_atom, d_s, d_lvecs, d_tensors, g, field_T, qgrid, sigma):
        masses = np.asarray(masses, float)
        n3 = 3 * masses.size
        lvecs = np.asarray(fc_lvecs, int)
        uniq, inv = np.unique(lvecs, axis=0, return_inverse=True)
        phi = np.zeros((len(uniq), n3, n3))
        np.add.at(phi, (inv.reshape(-1), 3 * np.asarray(fc_i) + fc_s,
                        3 * np.asarray(fc_j) + fc_t), fc_values)
        # acoustic sum rule: every (i, s, t) row of sum_{l, j} Phi is zero
        zero = int(np.nonzero(~uniq.any(axis=1))[0][0])
        resid = phi.sum(axis=0).reshape(masses.size, 3, masses.size, 3).sum(axis=2)
        for i in range(masses.size):
            phi[zero, 3 * i:3 * i + 3, 3 * i:3 * i + 3] -= resid[i]

        g1, g2, g3 = np.meshgrid(*(_grid(n) for n in qgrid), indexing="ij")
        q = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1)
        nq = q.shape[0]
        invsq = 1.0 / np.sqrt(np.repeat(masses, 3))
        D = np.einsum("ql,lxy->qxy", np.exp(2j * np.pi * q @ uniq.T), phi)
        D = D * np.outer(invsq, invsq)
        D = 0.5 * (D + np.conj(np.swapaxes(D, 1, 2)))
        lam, vecs = np.linalg.eigh(D)  # (nq, 3N), (nq, 3N, 3N)
        omega = np.sign(lam) * FREQ_CM1 * np.sqrt(np.abs(lam))
        keep = omega >= OMEGA_MIN_CM1
        w = np.where(keep, omega, 1.0)

        # dT/dQ for each mode: sum over records of amplitude * phase * e
        atom = np.asarray(d_atom)
        rows = 3 * atom + np.asarray(d_s)
        phase = np.exp(2j * np.pi * q @ np.asarray(d_lvecs, float).T)  # (nq, K)
        L = vecs[:, rows, :]  # (nq, K, modes)
        amp = ZPL_A / np.sqrt(nq * w[:, None, :] * masses[atom][None, :, None])
        coeff = amp * phase[:, :, None] * L
        dT = np.einsum("qkm,kuv->qmuv", coeff, np.asarray(d_tensors, float))

        # V = mu_B (B . dT) . S; real and imaginary parts are two Hermitian
        # couplings, and |<0|u.S|1>|^2 = |u_perp|^2 / 4 about n = B.g
        B = np.asarray(field_T, float)
        bg = B @ np.asarray(g, float)
        self.gap = MU_B_CM1 * float(np.linalg.norm(bg))
        n = bg / np.linalg.norm(bg)
        u = MU_B_CM1 * np.einsum("u,qmuv->qmv", B, dT)
        u_perp = u - np.einsum("qmv,v->qm", u, n)[..., None] * n
        v2 = np.sum(np.abs(u_perp) ** 2, axis=-1) / 4.0
        self.omega = omega[keep]
        self.v2 = v2[keep]
        self.sigma = sigma

    def _gauss(self, x):
        return np.exp(-(x / self.sigma) ** 2) / (self.sigma * math.sqrt(math.pi))

    def tau_ms(self, T):
        """Relaxation time (ms) of Sz at temperature T (K)."""
        nb = 1.0 / np.expm1(self.omega / (KB_CM1 * T))
        G = (2.0 * nb + 1.0) * (self._gauss(self.omega - self.gap)
                                + self._gauss(self.omega + self.gap))
        rate_per_ps = math.pi * RAD_PS_PER_CM1 * float(np.sum(self.v2 * G))
        return 1.0 / rate_per_ps / PS_PER_MS
