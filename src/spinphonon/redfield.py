"""Non-secular Redfield superoperator, propagation and relaxation times.

Rate units: with spin energies in cm^-1 and the one-phonon correlation
function carrying 1/cm^-1, the master-matrix elements come out in 1/ps
after multiplying by the rad/ps-per-cm^-1 conversion (hbar = 1).
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .lattice import bose_population, gaussian_kernel
from .units import ANGULAR_FREQUENCY_PER_CM1, KB_CM1_PER_K, PS_PER_MS

#: (pi / 2 hbar^2) in working units: multiplies V^2 [cm^-2] * G [cm] -> 1/ps
RATE_PREFACTOR = 0.5 * np.pi * ANGULAR_FREQUENCY_PER_CM1

SECULAR_TOL_CM1 = 1e-8

#: most negative eigenvalue a stationary state may have
POSITIVITY_TOL = 1e-8

#: rows x d^2 entries per block of the assembly products
ASSEMBLY_BLOCK = 1 << 16


@dataclass(frozen=True)
class DensityMatrix:
    """d x d density matrix with time stamp (ps)."""

    matrix: np.ndarray
    time_ps: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if abs(np.trace(m) - 1.0) > 1e-6:
            raise ValidationError(f"density matrix trace {np.trace(m)} != 1")
        if np.max(np.abs(m - m.conj().T)) > 1e-6:
            raise ValidationError("density matrix not Hermitian")


@dataclass(frozen=True)
class PhononCorrelation:
    """Gaussian-smeared one-phonon correlation function parameters."""

    sigma: float  # cm^-1 (breadth)
    temperature: float  # K

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValidationError("sigma must be positive")
        if self.temperature < 0:
            raise ValidationError("negative temperature")


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
    for ch in stack.distinct_channels():
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
    return RedfieldTensor(ham=ham, channels=parts, n_couplings=len(stack))


def equilibrium_state(ham, T):
    """rho_eq = exp(-H/kT)/Z in the eigenbasis (diagonal)."""
    if T <= 0:
        raise ValidationError("equilibrium_state requires T > 0")
    x = -(ham.eigvals - ham.eigvals.min()) / (KB_CM1_PER_K * T)
    w = np.exp(x)
    return DensityMatrix(matrix=np.diag(w / w.sum()).astype(complex))


@functools.lru_cache(maxsize=None)
def _hermitian_basis(d):
    """Index arrays of the unitary Q onto the orthonormal Hermitian basis
    of d x d matrices: E_aa for each a, then (E_ab + E_ba)/sqrt(2) and
    i(E_ab - E_ba)/sqrt(2) for each a < b. Column k of Q is
    alpha[k] e_p[k] + beta[k] e_q[k] in the vectorised (ab) index."""
    a, b = np.triu_indices(d, 1)
    diag = np.arange(d) * (d + 1)
    h = np.sqrt(0.5)
    p = np.concatenate([diag, np.repeat(a * d + b, 2)])
    q = np.concatenate([diag, np.repeat(b * d + a, 2)])
    alpha = np.concatenate([np.ones(d), np.tile([h, 1j * h], a.size)])
    beta = np.concatenate([np.zeros(d), np.tile([h, -1j * h], a.size)])
    for x in (p, q, alpha, beta):
        x.flags.writeable = False
    return p, q, alpha, beta


def _coords(m):
    """Q^H vec(m): coordinates of a d x d matrix in the Hermitian basis,
    real when m is Hermitian. The trace is the sum of the first d."""
    p, q, alpha, beta = _hermitian_basis(m.shape[0])
    flat = np.asarray(m).reshape(-1)
    return alpha.conj() * flat[p] + beta.conj() * flat[q]


def _matrix(x, d):
    """Q x: the d x d matrix with coordinates x (Hermitian for real x);
    one matrix per row of a stack x of shape (..., d^2)."""
    p, q, _, _ = _hermitian_basis(d)
    h = np.sqrt(0.5)
    s, a = x[..., d::2], x[..., d + 1::2]
    flat = np.zeros(x.shape[:-1] + (d * d,), dtype=complex)
    flat[..., p[:d]] = x[..., :d]
    flat[..., p[d::2]] = h * (s + 1j * a)
    flat[..., q[d::2]] = h * (s - 1j * a)
    return flat.reshape(x.shape[:-1] + (d, d))


def _real_form(R, channels=None):
    """Q^H R Q: the generator as a real d^2 x d^2 matrix on the
    coordinates of Hermitian rho, with the same eigenvalues as R.

    ``R`` is a RedfieldTensor (summed over ``channels``) or a raw
    d^2 x d^2 array in its (ab, cd) layout. The rows are built block by
    block from each channel part, so no second complex d^2 x d^2 array
    is held. A generator that does not map Hermitian rho to Hermitian
    rho has no real form: a discarded imaginary part above 1e-12 of
    max|R| raises ValidationError. A non-finite entry raises
    NumericalError.
    """
    if isinstance(R, RedfieldTensor):
        d = R.dimension
        parts = [part for ch, part in R.channels.items()
                 if channels is None or ch in channels]
    else:
        parts = [np.asarray(R)]
        d = int(round(np.sqrt(parts[0].shape[0])))
        if parts[0].shape != (d * d, d * d):
            raise ValidationError(
                f"generator of shape {parts[0].shape} is not d^2 x d^2")
    p, q, alpha, beta = _hermitian_basis(d)
    n = d * d
    out = np.zeros((n, n))
    if not parts:
        return out
    step = max(1, ASSEMBLY_BLOCK // n)
    scale = imag = 0.0
    for start in range(0, n, step):
        rows = slice(start, start + step)
        Rp = sum(part[p[rows]] for part in parts)
        Rq = sum(part[q[rows]] for part in parts)
        # np.max, not max: a NaN must propagate into the scale
        scale = np.max([scale, np.max(np.abs(Rp)), np.max(np.abs(Rq))])
        Z = alpha[rows, None].conj() * Rp + beta[rows, None].conj() * Rq
        block = Z[:, p] * alpha + Z[:, q] * beta
        out[rows] = block.real
        imag = max(imag, np.max(np.abs(block.imag)))
    if not np.isfinite(scale):
        raise NumericalError("generator has non-finite entries")
    if imag > 1e-12 * scale:
        raise ValidationError(
            f"generator does not preserve Hermiticity: imaginary part "
            f"{imag:.2e} of its real form (max|R| {scale:.2e})")
    return out


class _Eigensystem:
    """The eigendecomposition (w, Vr) of a real generator M (both None
    when eig fails), and exp(M t) from it, or by scaling-and-squaring
    expm when Vr is missing, singular or ill-conditioned (``fallback``).
    Vr^-1 and its 1-norm condition number ``cond``, ||Vr||_1 ||Vr^-1||_1
    (inf without an inverse), are formed on first use."""

    def __init__(self, M):
        self.M = M
        try:
            self.w, self.Vr = np.linalg.eig(M)
        except np.linalg.LinAlgError:
            self.w = self.Vr = None

    @functools.cached_property
    def cond(self):
        if self.Vr is not None:
            try:
                self.Vr_inv = np.linalg.inv(self.Vr)
                return float(np.linalg.norm(self.Vr, 1)
                             * np.linalg.norm(self.Vr_inv, 1))
            except np.linalg.LinAlgError:
                pass
        return np.inf

    @property
    def fallback(self):
        return not self.cond <= 1e10

    def evolve(self, x0, times):
        """Real coordinates exp(M t) x0, one row per time."""
        if self.fallback:
            return np.array([scipy.linalg.expm(self.M * t) @ x0
                             for t in times]).reshape(len(times), x0.size)
        E = np.exp(np.multiply.outer(times, self.w))
        return ((E * (self.Vr_inv @ x0)) @ self.Vr.T).real


def propagate(rho0, R, times):
    """rho(t) = exp(Rt) rho(0) at the requested times (ps, ascending).

    Propagation runs on the real form of R; the Hermitian part of rho(0)
    is propagated."""
    times = np.asarray(times, dtype=float)
    if times.size and (np.any(np.diff(times) < 0) or times[0] < 0):
        raise ValidationError("times must be ascending and non-negative")
    rho0_mat = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0)
    d = rho0_mat.shape[0]
    X = _Eigensystem(_real_form(R)).evolve(_coords(rho0_mat).real, times)
    drift = X[:, :d].sum(axis=1) - 1.0
    bad = np.flatnonzero(~(np.abs(drift) <= 1e-8))  # NaN is drift too
    if bad.size:
        k = bad[0]
        raise NumericalError(f"trace drift {drift[k]:.2e} at t={times[k]}")
    return [DensityMatrix(matrix=m, time_ps=float(t))
            for m, t in zip(_matrix(X, d), times)]


@dataclass(frozen=True)
class RelaxationEstimate:
    """Relaxation time from the two extraction routes (ms)."""

    tau_ms: float  # headline: slowest-mode value
    tau_fit_ms: float = None
    fit_error: str = None  # why there is no exp-fit (no physical rho_ss)
    min_rho_eigenvalue: float = None
    fit_residual: float = None
    mismatch: bool = False
    non_exponential: bool = False
    expm_fallback: bool = False  # propagation used expm, not (w, Vr)
    eigvec_cond: float = None  # 1-norm condition number of R's eigenvectors


def stationary_state(w, Vr, dim, tol=1e-9):
    """Trace-one stationary state of the superoperator, as a d x d matrix.

    ``w, Vr`` is the eigendecomposition of the real form of the
    superoperator (coordinates in the Hermitian basis), as
    ``np.linalg.eig`` returns it. Non-secular tensors in the
    interaction picture can carry additional traceless null modes in the
    coherence sector; the physical fixed point is the null vector with
    non-vanishing trace. A trace-one candidate with an eigenvalue below
    -``POSITIVITY_TOL`` is not a physical state (it can reach outside
    the range of any observable) and raises NumericalError.
    """
    scale = float(np.max(np.abs(w)))
    cand = np.nonzero(np.abs(w) <= max(tol * scale, 1e-300))[0]
    if cand.size == 0:
        cand = np.array([int(np.argmin(np.abs(w)))])
    tr = (np.abs(Vr[:dim, cand].sum(axis=0))
          / np.linalg.norm(Vr[:, cand], axis=0))
    best = int(np.argmax(tr))  # the first candidate of largest trace
    if not tr[best] >= 1e-12:
        raise NumericalError("no stationary state with nonzero trace found")
    x = Vr[:, cand[best]].real  # the Hermitian part of the null vector
    rho = _matrix(x / np.sum(x[:dim]), dim)
    lowest = float(np.linalg.eigvalsh(rho)[0])
    if lowest < -POSITIVITY_TOL:
        raise NumericalError(
            f"stationary state is not physical: minimum eigenvalue "
            f"{lowest:.3g} (of {cand.size} null-space candidates)")
    return rho


def _exp_fit(times, dm):
    """(tau_fit_ms, rms residual, non_exponential) of a log-linear fit of
    the deviation dm(t) from equilibrium; (None, None, False) when dm
    has fewer than three points of one sign or does not decay."""
    ref = np.max(np.abs(dm))
    mask = np.abs(dm) > 1e-12 * max(ref, 1e-300)
    same_sign = mask.any() and ((dm[mask] > 0).all() or (dm[mask] < 0).all())
    if not (ref > 0 and np.count_nonzero(mask) >= 3 and same_sign):
        return None, None, False
    y = np.log(np.abs(dm[mask]))
    A = np.vstack([np.ones(mask.sum()), -times[mask]]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    if coef[1] <= 0:
        return None, None, False
    residual = float(np.sqrt(np.mean((y - A @ coef) ** 2)))
    return (1.0 / coef[1]) / PS_PER_MS, residual, residual > 0.05


def extract_relaxation_time(R, ham, ops, observable=None, method="both",
                            rho0=None, channels=None):
    """Relaxation time of the chosen observable (default Sz of a spin).

    slowest_mode: tau = 1 / |Re lambda| for the nonzero eigenvalue of R
    whose eigenvector overlaps the observable's traceless part the most;
    NumericalError when that mode grows (Re lambda > 0).
    exp_fit: log-linear single-exponential fit of M_z(t) between rho0
    and the stationary state. Both values are reported; a >5% mismatch
    or a non-exponential fit is flagged, never hidden. Without a
    physical stationary state there is no fit: ``tau_fit_ms`` is None,
    ``fit_error`` says why and ``mismatch`` is set, while rho0 is still
    propagated for ``min_rho_eigenvalue`` (the default probe needs the
    stationary state, so without ``rho0`` the error is raised). Every spectral
    step runs on one eigendecomposition of the real form of R in the
    Hermitian basis; ``eigvec_cond`` refers to that basis. Only the
    exp-fit inverts the eigenvectors (``slowest_mode`` forms no inverse).
    """
    d = ham.dimension
    M = _real_form(R, channels)
    if observable is None:
        first = min(ops.system.centers, key=lambda c: c.id).id
        observable = ham.to_eigenbasis(ops.embedded[first][2])
    O = np.asarray(observable, dtype=complex)
    O_traceless = O - np.trace(O) / d * np.eye(d)
    o_vec = _coords(O_traceless)
    norm = np.linalg.norm(o_vec)
    if norm == 0:
        raise ValidationError("observable has no traceless part")
    o_vec = o_vec / norm

    eigsys = _Eigensystem(M)
    w, Vr = eigsys.w, eigsys.Vr
    if w is None:
        raise NumericalError("eigendecomposition of the generator failed")
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
    if w[k].real > 0:
        raise NumericalError(
            f"the mode that overlaps the observable most grows "
            f"(Re lambda = {w[k].real:.3g} /ps); it has no relaxation time")
    tau_slow_ps = 1.0 / abs(w[k].real)
    tau_slow_ms = tau_slow_ps / PS_PER_MS

    if method == "slowest_mode":
        return RelaxationEstimate(tau_ms=tau_slow_ms)

    # single-exponential fit of the observable decay, on real coordinates:
    # <O>(t) = Tr(rho(t) O) is x(t) . o
    try:
        rho_ss = stationary_state(w, Vr, d)
        fit_error = None
    except NumericalError as exc:
        if rho0 is None:
            raise
        rho_ss, fit_error = None, str(exc)
    if rho0 is None:
        # default probe: stationary state perturbed along the observable
        pert = 0.1 * O_traceless / np.max(np.abs(O_traceless))
        rho0_mat = rho_ss + pert - np.trace(pert) / d * np.eye(d)
    else:
        rho0_mat = rho0.matrix if isinstance(rho0, DensityMatrix) else np.asarray(rho0)
    times = np.geomspace(0.02, 5.0, 24) * tau_slow_ps
    X = eigsys.evolve(_coords(rho0_mat).real, times)
    o = _coords(O)
    m_t = np.real(X @ o)
    min_eig = np.min(np.linalg.eigvalsh(_matrix(X, d))[:, 0])
    tau_fit_ms = residual = None
    non_exp = False
    if rho_ss is not None:
        dm = m_t - float(np.real(_coords(rho_ss).real @ o))
        tau_fit_ms, residual, non_exp = _exp_fit(times, dm)
    # no fit is a failed cross-check too: it must not read as agreement
    mismatch = fit_error is not None or bool(
        tau_fit_ms is not None and abs(tau_fit_ms / tau_slow_ms - 1.0) > 0.05)
    return RelaxationEstimate(tau_ms=tau_slow_ms,
                              tau_fit_ms=tau_fit_ms, mismatch=mismatch,
                              fit_residual=residual, non_exponential=non_exp,
                              min_rho_eigenvalue=float(min_eig),
                              expm_fallback=eigsys.fallback,
                              eigvec_cond=eigsys.cond, fit_error=fit_error)
