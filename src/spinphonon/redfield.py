"""Non-secular Redfield superoperator, propagation and relaxation times.

Rate units: with spin energies in cm^-1 and the one-phonon correlation
function carrying 1/cm^-1, the master-matrix elements come out in 1/ps
after multiplying by the rad/ps-per-cm^-1 conversion (hbar = 1).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .lattice import bose_population, gaussian_kernel
from .units import ANGULAR_FREQUENCY_PER_CM1, KB_CM1_PER_K, PS_PER_MS

#: (pi / 2 hbar^2) in working units: multiplies V^2 [cm^-2] * G [cm] -> 1/ps
RATE_PREFACTOR = 0.5 * np.pi * ANGULAR_FREQUENCY_PER_CM1

SECULAR_TOL_CM1 = 1e-8

#: rows x d^2 entries per block of the assembly products
ASSEMBLY_BLOCK = 1 << 16


@dataclass(frozen=True)
class DensityMatrix:
    """d x d density matrix with basis tag and time stamp (ps)."""

    matrix: np.ndarray
    basis: str = "eigen"  # "product" | "eigen"
    time_ps: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if abs(np.trace(m) - 1.0) > 1e-6:
            raise ValidationError(f"density matrix trace {np.trace(m)} != 1")
        if np.max(np.abs(m - m.conj().T)) > 1e-6:
            raise ValidationError("density matrix not Hermitian")

    @property
    def min_eigenvalue(self):
        """Smallest eigenvalue; negative values flag positivity loss."""
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])

    def populations(self):
        return np.real(np.diag(self.matrix))


@dataclass(frozen=True)
class PhononCorrelation:
    """Gaussian-smeared one-phonon correlation function parameters."""

    sigma: float  # cm^-1 (breadth)
    temperature: float  # K
    kernel: str = "gaussian"

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValidationError("sigma must be positive")
        if self.temperature < 0:
            raise ValidationError("negative temperature")
        if self.kernel != "gaussian":
            raise ValidationError(f"unknown kernel {self.kernel!r}")


def phonon_correlation_value(pc, omega_ij, omega_mode):
    """G = n gauss(w_mode - w_ij) + (n+1) gauss(w_mode + w_ij), in 1/cm^-1."""
    if np.any(np.asarray(omega_mode) <= 0):
        raise ValidationError("omega_mode must be positive")
    n = bose_population(omega_mode, pc.temperature)
    return (n * gaussian_kernel(omega_mode - omega_ij, pc.sigma)
            + (n + 1.0) * gaussian_kernel(omega_mode + omega_ij, pc.sigma))


@dataclass(frozen=True)
class RedfieldTensor:
    """d^2 x d^2 superoperator on vectorized rho in the eigenbasis.

    Channel-resolved partial tensors are retained so single-channel
    relaxation curves need no reassembly.
    """

    ham: object
    channels: dict = field(repr=False)
    temperature: float = 0.0
    sigma: float = 0.0
    secular: bool = False
    n_couplings: int = 0

    @property
    def dimension(self):
        return self.ham.dimension

    def matrix(self, channels=None):
        """Superoperator (1/ps) summed over the requested channels."""
        d2 = self.dimension ** 2
        out = np.zeros((d2, d2), dtype=complex)
        for ch, part in self.channels.items():
            if channels is None or ch in channels:
                out += part
        return out

    def apply(self, rho, channels=None):
        d = self.dimension
        return (self.matrix(channels) @ np.asarray(rho, complex).reshape(-1)).reshape(d, d)


def assemble_redfield(stack, ham, pc, secular=False):
    """Assemble the (non-)secular Redfield tensor from a CouplingStack.

    The rows' V matrices must be in the eigenbasis of ``ham``. Only
    same-channel coupling products enter (cross-channel interference
    excluded); each channel is

        R_{ab,cd} = sum_m (V G)_ac V_db + V_ac (V G^T)_db
                    - delta_bd S1_ac - delta_ac S2_db,
        S1 = sum_m V (G V),  S2 = sum_m (V G^T) V,

    with G_m = G(omega_xy; omega_m) multiplied elementwise, which
    conserves the trace exactly and obeys detailed balance. The first
    two terms are (d^2 x M)(M x d^2) products over blocks of rows.
    """
    d = ham.dimension
    if stack.V.shape[1:] != (d, d):
        raise ValidationError(
            "coupling not rotated into the Hamiltonian eigenbasis")
    omega = ham.omega  # (x, y): E_x - E_y
    step = max(1, ASSEMBLY_BLOCK // (d * d))
    if secular:
        # elements coupling rho_ab to rho_cd with w_ab != w_cd
        off = (np.abs(omega.reshape(-1, 1) - omega.reshape(1, -1))
               > SECULAR_TOL_CM1)
    parts = {}
    for ch in dict.fromkeys(stack.channel.tolist()):
        rows = np.flatnonzero(stack.channel == ch)
        X = np.zeros((d * d, d * d), dtype=complex)  # (ac, db)
        S1 = np.zeros((d, d), dtype=complex)
        S2 = np.zeros((d, d), dtype=complex)
        for start in range(0, rows.size, step):
            idx = rows[start:start + step]
            V = stack.V[idx]
            G = phonon_correlation_value(pc, omega,
                                         stack.omega[idx, None, None])
            VG = V * G
            VGT = V * G.transpose(0, 2, 1)
            flat = V.reshape(idx.size, d * d)
            X += VG.reshape(idx.size, d * d).T @ flat
            X += flat.T @ VGT.reshape(idx.size, d * d)
            S1 += np.einsum("mab,mbc->ac", V, VG, optimize=True)
            S2 += np.einsum("mab,mbc->ac", VGT, V, optimize=True)
        R = np.ascontiguousarray(X.reshape(d, d, d, d).transpose(0, 3, 1, 2))
        for k in range(d):
            R[:, k, :, k] -= S1
            R[k, :, k, :] -= S2.T
        R = R.reshape(d * d, d * d)
        R *= RATE_PREFACTOR
        if secular:
            R[off] = 0.0
        parts[ch] = R
    return RedfieldTensor(ham=ham, channels=parts, temperature=pc.temperature,
                          sigma=pc.sigma, secular=secular,
                          n_couplings=len(stack))


def unitary_evolution(rho0, ham, t_ps):
    """Interaction-picture phase evolution of the coherences."""
    rho = np.asarray(rho0.matrix if isinstance(rho0, DensityMatrix) else rho0,
                     dtype=complex)
    phases = np.exp(-1j * ham.omega * ANGULAR_FREQUENCY_PER_CM1 * t_ps)
    out = rho * phases
    t0 = rho0.time_ps if isinstance(rho0, DensityMatrix) else 0.0
    return DensityMatrix(matrix=out, basis="eigen", time_ps=t0 + t_ps)


def equilibrium_state(ham, T):
    """rho_eq = exp(-H/kT)/Z in the eigenbasis (diagonal)."""
    if T <= 0:
        raise ValidationError("equilibrium_state requires T > 0")
    x = -(ham.eigvals - ham.eigvals.min()) / (KB_CM1_PER_K * T)
    w = np.exp(x)
    return DensityMatrix(matrix=np.diag(w / w.sum()).astype(complex), basis="eigen")


class _Propagator:
    """exp(R t) from R's eigendecomposition (w, Vr), or by
    scaling-and-squaring expm when Vr is missing or ill-conditioned
    (``fallback``; ``cond`` is the condition number of Vr)."""

    def __init__(self, Rmat, w, Vr):
        self.R = np.asarray(Rmat, dtype=complex)
        self.w, self.Vr = w, Vr
        self.cond = float(np.linalg.cond(Vr)) if Vr is not None else np.inf
        self.fallback = not self.cond <= 1e10
        if not self.fallback:
            try:
                self.Vr_inv = np.linalg.inv(Vr)
            except np.linalg.LinAlgError:
                self.fallback = True

    def apply(self, vec, t):
        if self.fallback:
            return scipy.linalg.expm(self.R * t) @ vec
        return self.Vr @ (np.exp(self.w * t) * (self.Vr_inv @ vec))


def propagate(rho0, R, times):
    """rho(t) = exp(Rt) rho(0) at the requested times (ps, ascending)."""
    times = np.asarray(times, dtype=float)
    if times.size and (np.any(np.diff(times) < 0) or times[0] < 0):
        raise ValidationError("times must be ascending and non-negative")
    rho0_mat = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0)
    d = rho0_mat.shape[0]
    Rmat = R.matrix() if isinstance(R, RedfieldTensor) else np.asarray(R)
    try:
        w, Vr = np.linalg.eig(Rmat)
    except np.linalg.LinAlgError:
        w = Vr = None
    prop = _Propagator(Rmat, w, Vr)
    vec0 = rho0_mat.reshape(-1)
    out = []
    for t in times:
        rho = prop.apply(vec0, t).reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)  # curb round-off drift
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-8:
            raise NumericalError(f"trace drift {tr - 1.0:.2e} at t={t}")
        out.append(DensityMatrix(matrix=rho, basis="eigen", time_ps=float(t)))
    return out


@dataclass(frozen=True)
class RelaxationEstimate:
    """Relaxation time from the two extraction routes (ms)."""

    tau_ms: float  # headline: slowest-mode value
    tau_slowest_ms: float
    tau_fit_ms: float = None
    mismatch: bool = False
    fit_residual: float = None
    non_exponential: bool = False
    min_rho_eigenvalue: float = None
    expm_fallback: bool = False  # propagation used expm, not (w, Vr)
    eigvec_cond: float = None  # condition number of R's eigenvectors


def stationary_state(w, Vr, dim, tol=1e-9):
    """Trace-one stationary state of the superoperator.

    ``w, Vr`` is the eigendecomposition of the d^2 x d^2 superoperator,
    as ``np.linalg.eig`` returns it. Non-secular tensors in the
    interaction picture can carry additional traceless null modes in the
    coherence sector; the physical fixed point is the null vector with
    non-vanishing trace.
    """
    scale = float(np.max(np.abs(w)))
    cand = np.nonzero(np.abs(w) <= max(tol * scale, 1e-300))[0]
    if cand.size == 0:
        cand = np.array([int(np.argmin(np.abs(w)))])
    best = None
    best_tr = 0.0
    for k in cand:
        v = Vr[:, k] / np.linalg.norm(Vr[:, k])
        tr = abs(np.trace(v.reshape(dim, dim)))
        if tr > best_tr:
            best_tr = tr
            best = k
    if best is None or best_tr < 1e-12:
        raise NumericalError("no stationary state with nonzero trace found")
    rho = Vr[:, best].reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho)


def extract_relaxation_time(R, ham, ops, target_center=None, observable=None,
                            method="both", rho0=None, channels=None):
    """Relaxation time of the chosen observable (default Sz of a spin).

    slowest_mode: tau = 1 / |Re lambda| for the nonzero eigenvalue of R
    whose eigenvector overlaps the observable's traceless part the most.
    exp_fit: log-linear single-exponential fit of M_z(t) between rho0
    and the stationary state. Both values are reported; a >5% mismatch
    or a non-exponential fit is flagged, never hidden.
    """
    d = ham.dimension
    Rmat = R.matrix(channels) if isinstance(R, RedfieldTensor) else np.asarray(R)
    if observable is None:
        if target_center is None:
            target_center = min(ops.system.centers, key=lambda c: c.id).id
        observable = ham.to_eigenbasis(ops.embedded[target_center][2])
    O = np.asarray(observable, dtype=complex)
    O_traceless = O - np.trace(O) / d * np.eye(d)
    o_vec = O_traceless.reshape(-1)
    norm = np.linalg.norm(o_vec)
    if norm == 0:
        raise ValidationError("observable has no traceless part")
    o_vec = o_vec / norm

    w, Vr = np.linalg.eig(Rmat)
    scale = np.max(np.abs(w)) if w.size else 0.0
    if scale == 0.0:
        raise NumericalError("Redfield tensor is zero; no relaxation")
    stat = int(np.argmin(np.abs(w)))
    weights = np.abs(o_vec.conj() @ (Vr / np.linalg.norm(Vr, axis=0)))
    weights[stat] = -1.0
    weights[np.abs(w.real) < 1e-14 * scale] = -1.0
    k = int(np.argmax(weights))
    if weights[k] < 0:
        raise NumericalError("no decaying mode overlaps the observable")
    tau_slow_ps = 1.0 / abs(w[k].real)
    tau_slow_ms = tau_slow_ps / PS_PER_MS

    if method == "slowest_mode":
        return RelaxationEstimate(tau_ms=tau_slow_ms, tau_slowest_ms=tau_slow_ms)

    # single-exponential fit of the observable decay
    rho_ss = stationary_state(w, Vr, d)
    if rho0 is None:
        # default probe: stationary state perturbed along the observable
        pert = 0.1 * O_traceless / np.max(np.abs(O_traceless))
        rho0_mat = rho_ss + pert - np.trace(pert) / d * np.eye(d)
    else:
        rho0_mat = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0)
    times = np.geomspace(0.02, 5.0, 24) * tau_slow_ps
    prop = _Propagator(Rmat, w, Vr)
    vec0 = rho0_mat.reshape(-1)
    m_eq = float(np.real(np.trace(rho_ss @ O)))
    m_t = np.empty(times.size)
    min_eig = np.inf
    for idx, t in enumerate(times):
        rho = prop.apply(vec0, t).reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)
        m_t[idx] = float(np.real(np.trace(rho @ O)))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(rho)[0]))
    dm = m_t - m_eq
    ref = np.max(np.abs(dm))
    tau_fit_ms = None
    residual = None
    non_exp = False
    mask = np.abs(dm) > 1e-12 * max(ref, 1e-300)
    same_sign = mask.any() and ((dm[mask] > 0).all() or (dm[mask] < 0).all())
    if ref > 0 and np.count_nonzero(mask) >= 3 and same_sign:
        y = np.log(np.abs(dm[mask]))
        A = np.vstack([np.ones(mask.sum()), -times[mask]]).T
        coef, res_arr, *_ = np.linalg.lstsq(A, y, rcond=None)
        inv_tau = coef[1]
        if inv_tau > 0:
            tau_fit_ms = (1.0 / inv_tau) / PS_PER_MS
            pred = A @ coef
            residual = float(np.sqrt(np.mean((y - pred) ** 2)))
            non_exp = residual > 0.05
    mismatch = (tau_fit_ms is not None
                and abs(tau_fit_ms / tau_slow_ms - 1.0) > 0.05)
    return RelaxationEstimate(tau_ms=tau_slow_ms, tau_slowest_ms=tau_slow_ms,
                              tau_fit_ms=tau_fit_ms, mismatch=mismatch,
                              fit_residual=residual, non_exponential=non_exp,
                              min_rho_eigenvalue=float(min_eig),
                              expm_fallback=prop.fallback,
                              eigvec_cond=prop.cond)
