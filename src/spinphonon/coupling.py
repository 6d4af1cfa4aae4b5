"""Spin-phonon coupling: derivative fitting, analytic dipolar derivatives,
normal-mode projection and coupling-norm distributions."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NumericalError, ValidationError
from .hamiltonian import dipolar_tensor
from .spins import SpinCoupling
from .units import DIPOLAR_PREFACTOR_CM1_A3, ZERO_POINT_LENGTH_A

#: channels, keyed by the target-tensor kind
CHANNEL_OF_KIND = {"g": "zeeman", "A": "hyperfine", "dip": "dipolar"}
CHANNELS = ("zeeman", "hyperfine", "dipolar")

#: a fitted scan component is rejected when the standard error of its
#: linear term exceeds this fraction of it
SCAN_REJECTION_THRESHOLD = 0.07
NORM_BIN_WIDTH_CM1 = 2.0  # frequency bins of coupling_norm_distribution


@dataclass(frozen=True)
class DerivativeScan:
    """Displacement scan of one tensor along one Cartesian direction.

    ``displacements`` in Angstrom (spanning zero, >= 5 distinct values),
    ``tensors`` the 3x3 tensor at each displacement.
    """

    target: tuple  # e.g. ("g", center_id) or ("A", (i, j))
    atom: int
    direction: int
    displacements: np.ndarray
    tensors: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.displacements, dtype=float)
        t = np.asarray(self.tensors, dtype=float)
        object.__setattr__(self, "displacements", x)
        object.__setattr__(self, "tensors", t)
        if len(np.unique(x)) < 5:
            raise ValidationError("scan needs at least 5 distinct displacements")
        if x.min() >= 0 or x.max() <= 0:
            raise ValidationError("scan displacements must span zero")
        if t.shape != (x.size, 3, 3) or not np.all(np.isfinite(t)):
            raise ValidationError("scan tensors must be finite with shape (n, 3, 3)")


def fit_derivative_scan(scan):
    """Quartic fit of each tensor component; returns the linear term.

    Each component is fitted with p0 + p1 x + ... + p4 x^4. A component
    is set to zero when the standard error of p1 exceeds
    SCAN_REJECTION_THRESHOLD * |p1|. Returns (d_tensor, decisions) where
    decisions[u][v] is one of "kept", "rejected", "zero".
    """
    x = scan.displacements
    X = np.vander(x, 5, increasing=True)
    n = x.size
    if np.linalg.matrix_rank(X) < 5:
        raise NumericalError("rank-deficient design matrix in derivative scan fit")
    XtX_inv = np.linalg.inv(X.T @ X)
    out = np.zeros((3, 3))
    decisions = [["zero"] * 3 for _ in range(3)]
    for u in range(3):
        for v in range(3):
            y = scan.tensors[:, u, v]
            coef, *_ = np.linalg.lstsq(X, y, rcond=None)
            p1 = coef[1]
            resid = y - X @ coef
            dof = max(n - 5, 1)
            var = float(resid @ resid) / dof
            se = np.sqrt(var * XtX_inv[1, 1])
            if p1 == 0.0:
                decisions[u][v] = "zero"
            elif se > SCAN_REJECTION_THRESHOLD * abs(p1):
                decisions[u][v] = "rejected"
            else:
                out[u, v] = p1
                decisions[u][v] = "kept"
    return out, decisions


def dipolar_derivative(center_i, center_j, r_vec, s):
    """d D^dip / d r_s for the point-dipole tensor, r_vec = x_j - x_i (A).

    Closed-form differentiation of C/r^3 [gi^T gj - 3 gi^T rhat rhat^T gj].
    Displacing center j along s adds +this; displacing center i, -this.
    """
    r_vec = np.asarray(r_vec, dtype=float)
    r = np.linalg.norm(r_vec)
    if r <= 0.1:
        raise ValidationError("singular separation in dipolar derivative")
    gi, gj = center_i.g, center_j.g
    C = DIPOLAR_PREFACTOR_CM1_A3
    G = gi.T @ gj
    e = np.zeros(3)
    e[s] = 1.0
    M = np.outer(gi.T @ r_vec, r_vec @ gj)
    dM = np.outer(gi.T @ e, r_vec @ gj) + np.outer(gi.T @ r_vec, e @ gj)
    return C * (
        -3.0 * r_vec[s] * G / r**5
        - 3.0 * dM / r**5
        + 15.0 * r_vec[s] * M / r**7
    )


@dataclass(frozen=True)
class CouplingDerivativeSet:
    """Cartesian derivatives of spin-Hamiltonian tensors, one per record.

    targets[k] identifies the tensor (("g", center), ("A", (i, j)) or
    ("dip", (i, j))); atom/s/lvec locate the displaced degree of freedom;
    tensors[k] is the 3x3 derivative per Angstrom (g dimensionless/A,
    A and dip in cm^-1/A). ``CouplingDerivativeSet()`` has no records.
    """

    targets: tuple = ()
    atom: np.ndarray = ()
    s: np.ndarray = ()
    lvecs: np.ndarray = ()
    tensors: np.ndarray = ()
    provenance: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "atom", np.asarray(self.atom, dtype=int))
        object.__setattr__(self, "s", np.asarray(self.s, dtype=int))
        lv = np.asarray(self.lvecs, dtype=int)
        if lv.size == 0:
            lv = lv.reshape(0, 3)
        object.__setattr__(self, "lvecs", lv)
        t = np.asarray(self.tensors, dtype=float)
        if t.size == 0:
            t = t.reshape(0, 3, 3)
        object.__setattr__(self, "tensors", t)
        if not np.all(np.isfinite(t)):
            raise ValidationError("non-finite derivative tensors")
        if len(self.provenance) != len(self.targets):
            object.__setattr__(
                self, "provenance", tuple(["synthetic"] * len(self.targets))
            )

    @property
    def n_records(self):
        return len(self.targets)

    def merged(self, other):
        return CouplingDerivativeSet(
            targets=list(self.targets) + list(other.targets),
            atom=np.concatenate([self.atom, other.atom]),
            s=np.concatenate([self.s, other.s]),
            lvecs=np.concatenate([self.lvecs, other.lvecs]),
            tensors=np.concatenate([self.tensors, other.tensors]),
            provenance=list(self.provenance) + list(other.provenance),
        )


def dipolar_pair_records(center_i, center_j, atom_i, atom_j,
                         lvec_j=(0, 0, 0), lvec_i=(0, 0, 0)):
    """Analytic dipolar derivative records for one electron pair.

    Rigid translation invariance is built in: the derivative with
    respect to the carrier atom of i is minus that of j.
    """
    r_vec = center_j.position - center_i.position
    targets, atoms, ss, lvecs, tensors, prov = [], [], [], [], [], []
    for s in range(3):
        d = dipolar_derivative(center_i, center_j, r_vec, s)
        for atom, sign, lv in ((atom_j, 1.0, lvec_j), (atom_i, -1.0, lvec_i)):
            targets.append(("dip", (center_i.id, center_j.id)))
            atoms.append(atom)
            ss.append(s)
            lvecs.append(lv)
            tensors.append(sign * d)
            prov.append("analytic")
    return CouplingDerivativeSet(targets, atoms, ss, lvecs, tensors, prov)


def dipolar_network(centers, atoms, cells=None):
    """Point-dipole couplings of every electron pair a < b of
    ``centers``, in itertools.combinations order, and their analytic
    derivative records.

    ``atoms[a]`` is the carrier atom of centers[a] and ``cells[a]`` the
    lattice vector of its cell (default: the home cell). Returns
    (list of SpinCoupling, CouplingDerivativeSet).
    """
    if cells is None:
        cells = [(0, 0, 0)] * len(centers)
    couplings, derivs = [], CouplingDerivativeSet()
    for a, b in combinations(range(len(centers)), 2):
        ci, cj = centers[a], centers[b]
        couplings.append(SpinCoupling(
            i=ci.id, j=cj.id, tag="dipolar",
            tensor=dipolar_tensor(ci, cj, cj.position - ci.position)))
        derivs = derivs.merged(dipolar_pair_records(
            ci, cj, atoms[a], atoms[b], lvec_j=cells[b], lvec_i=cells[a]))
    return couplings, derivs


@dataclass(frozen=True)
class ModeTensors:
    """Target-tensor derivatives for a stack of M normal modes.

    ``omega`` (M,) in cm^-1; ``tensors`` complex (M, n_targets, 3, 3),
    the derivative of tensor ``targets[t]`` with respect to each mode
    coordinate; ``weight`` (M,) int, the number of grid q-points each
    mode stands for (already folded into ``tensors`` as sqrt(weight)).
    """

    omega: np.ndarray
    targets: tuple
    tensors: np.ndarray
    weight: np.ndarray

    def __len__(self):
        return self.omega.shape[0]


def mode_tensor_derivatives(derivs, q, omega, eigvecs, crystal, n_q,
                            weight=None):
    """Project Cartesian derivative records on a stack of normal modes.

    ``q`` (M, 3) fractional wavevectors, ``omega`` (M,) frequencies and
    ``eigvecs`` (M, 3N) polarization vectors, one row per mode;
    ``weight`` (M,) the number of grid q-points each mode stands for
    (default 1; 2 for a mode that also stands for its partner at -q).
    The amplitude factor sqrt(weight hbar / (N_q omega m_i)) and the
    Bloch phase e^{2 pi i q.l} of each record are folded in, and the
    records of each target are summed over all modes at once. Returns a
    ModeTensors.
    """
    q = np.asarray(q, dtype=float).reshape(-1, 3)
    omega = np.asarray(omega, dtype=float).reshape(-1)
    eigvecs = np.asarray(eigvecs)
    eigvecs = eigvecs.reshape(omega.size, eigvecs.shape[-1])
    weight = (np.ones(omega.size, dtype=int) if weight is None
              else np.asarray(weight, dtype=int).reshape(omega.size))
    if np.any(omega <= 0):
        raise ValidationError("cannot project on an imaginary/zero mode")
    masses = crystal.masses
    amp = ZERO_POINT_LENGTH_A / np.sqrt(n_q * omega[:, None]
                                        * masses[derivs.atom][None, :])
    amp *= np.sqrt(weight)[:, None]
    phase = np.exp(2j * np.pi * (q @ derivs.lvecs.T))
    coeff = amp * phase * eigvecs[:, 3 * derivs.atom + derivs.s]
    targets = tuple(dict.fromkeys(derivs.targets))
    tensors = np.zeros((omega.size, len(targets), 3, 3), dtype=complex)
    # summed in record order: records that cancel give exact zeros
    for k, tgt in enumerate(derivs.targets):
        tensors[:, targets.index(tgt)] += (coeff[:, k, None, None]
                                           * derivs.tensors[k])
    return ModeTensors(omega=omega, targets=targets, tensors=tensors,
                       weight=weight)


@dataclass(frozen=True)
class CouplingStack:
    """Hermitian spin-phonon coupling operators, one row per retained
    (mode, target, standing-wave part).

    ``omega`` (M,) mode frequencies in cm^-1, ``channel`` (M,) channel
    names, ``V`` (M, d, d) matrix elements in the eigenbasis of the
    spin Hamiltonian (cm^-1). Complex e^{iq.R} phases are handled by
    splitting each mode's operator into Hermitian and anti-Hermitian
    standing-wave parts. The grid is solved on one q of each {q, -q}
    pair: the partner's operator is e^{i phi} conj(c) of this one's, and
    the two parts together add Re(c c^H) to R, which neither the
    conjugation nor the phase changes; the pair's weight 2 is already
    in the amplitude (``mode_tensor_derivatives``). So one row set per
    pair gives the full-grid rates, independently of eigenvector phase
    conventions.
    """

    omega: np.ndarray
    channel: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        for name, dtype in (("omega", float), ("channel", str),
                            ("V", complex)):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=dtype))

    def __len__(self):
        return self.omega.shape[0]

    def distinct_channels(self):
        """Channel names in order of first appearance, read from the
        starts of runs of equal rows (no sort or hash of every row)."""
        ch = self.channel
        if ch.size == 0:
            return []
        starts = np.flatnonzero(ch[1:] != ch[:-1]) + 1
        return list(dict.fromkeys(ch[np.r_[0, starts]].tolist()))


def operator_terms(system, ops, target, T):
    """Spin operator of a target tensor as sum_k c[m, k] B[k].

    ``T`` is a (M, 3, 3) stack of tensors of ``target``. Returns the
    coefficients c (M, n) and Hermitian product-basis operators
    B (n, d, d): B_v = magneton * S_v with c_v = (field . T)_v for a g
    tensor, and B_uv = S_i,u S_j,v with c_uv = T_uv for a pair tensor.
    """
    kind, key = target
    if kind == "g":
        c = system.center(key)
        coeff = np.einsum("u,muv->mv", system.field_B, T)
        return coeff, c.magneton_cm1_per_T * ops.embedded[key]
    i, j = key
    basis = np.einsum("uab,vbc->uvac", ops.embedded[i], ops.embedded[j])
    return T.reshape(-1, 9), basis.reshape(9, *basis.shape[2:])


def coupling_norm_distribution(modes, n_q):
    """q-averaged squared Frobenius norms of tensor derivatives vs omega.

    ``modes`` is a ModeTensors, e.g. from mode_tensor_derivatives over a
    grid; a mode that stands for weight-many q-points carries
    sqrt(weight) in its tensors and so counts weight times. Returns
    {channel: (bin_centers, V2)} with V2 = (1/N_q) sum |dT/dQ|_F^2
    accumulated per NORM_BIN_WIDTH_CM1-wide frequency bin.
    """
    x = modes.omega / NORM_BIN_WIDTH_CM1
    nbins = int(np.ceil(np.max(x, initial=0.0))) + 1
    bins = np.minimum(x.astype(int), nbins - 1)
    norms = np.sum(np.abs(modes.tensors) ** 2, axis=(2, 3))
    kinds = np.array([CHANNEL_OF_KIND[t[0]] for t in modes.targets], dtype=str)
    centers = (np.arange(nbins) + 0.5) * NORM_BIN_WIDTH_CM1
    out = {}
    for ch in CHANNELS:
        weight = norms[:, kinds == ch].sum(axis=1)
        acc = np.bincount(bins, weights=weight, minlength=nbins)
        out[ch] = (centers, acc / max(n_q, 1))
    return out
