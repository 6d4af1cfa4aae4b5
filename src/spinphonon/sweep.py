"""Relaxation pipeline and parameter-sweep orchestration.

The pipeline caches two things: phonon spectra per q-grid, and mode
tensors per (q-grid, omega_min). Everything after that (spin
Hamiltonian, coupling stack, Redfield tensor) is rebuilt at every
point, whichever axis moves.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .coupling import (CHANNELS, CHANNEL_OF_KIND, DEFAULT_OMEGA_MIN,
                       CouplingDerivativeSet, CouplingStack,
                       dipolar_pair_records, mode_tensor_derivatives,
                       operator_terms)
from .errors import CapacityError, NumericalError, ValidationError
from .hamiltonian import assemble_hamiltonian, dipolar_tensor
from .lattice import enforce_acoustic_sum_rule, phonon_spectrum
from .redfield import (PhononCorrelation, assemble_redfield, equilibrium_state,
                       extract_relaxation_time)
from .spins import SpinCenter, SpinCoupling, SpinSystem, build_spin_operators


def kpoint_grid(n1, n2, n3):
    """Gamma-centered uniform fractional grid, inversion-symmetric as a set."""
    if min(n1, n2, n3) < 1:
        raise ValidationError("grid divisions must be >= 1")
    axes = []
    for n in (n1, n2, n3):
        v = np.arange(n) / n
        axes.append(np.where(v > 0.5, v - 1.0, v))
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([x.reshape(-1) for x in g], axis=1)


@dataclass(frozen=True)
class RunParams:
    """One relaxation-pipeline evaluation point."""

    qgrid: tuple = (8, 8, 8)
    sigma: float = 1.0
    temperature: float = 20.0
    field_B: tuple = None  # None: use the spin system's field
    channels: tuple = None  # None: every channel with derivative records
    secular: bool = False
    omega_min: float = DEFAULT_OMEGA_MIN
    freq_scale: float = 1.0
    coupling_scale: dict = None  # channel -> factor
    prune_sigma_mult: float = 20.0


@dataclass(frozen=True)
class RelaxationPoint:
    """tau values (ms) and diagnostics for one parameter point."""

    tau_ms: float
    tau_fit_ms: float
    tau_channel_ms: dict
    diagnostics: dict


class RelaxationPipeline:
    """Full chain crystal + force constants + derivatives -> tau."""

    def __init__(self, crystal, fc, derivs, system, enforce_sum_rule=True):
        self.crystal = crystal
        self.fc = enforce_acoustic_sum_rule(fc) if enforce_sum_rule else fc
        self.derivs = derivs
        self.system = system
        self.ops = build_spin_operators(system)
        self._phonon_cache = {}
        self._precursor_cache = {}

    # -- cached stages ----------------------------------------------------
    def phonons(self, qgrid):
        key = tuple(qgrid)
        if key not in self._phonon_cache:
            qpts = kpoint_grid(*qgrid)
            omega, vecs = phonon_spectrum(self.fc, qpts)
            self._phonon_cache[key] = (qpts, omega, vecs)
        return self._phonon_cache[key]

    def mode_precursors(self, qgrid, omega_min=DEFAULT_OMEGA_MIN):
        """Cached ModeTensors of every usable mode on the grid, plus counts
        of the imaginary modes and of those below omega_min."""
        key = (tuple(qgrid), omega_min)
        if key in self._precursor_cache:
            return self._precursor_cache[key]
        qpts, omega, vecs = self.phonons(qgrid)
        nq = qpts.shape[0]
        imaginary = omega < 0
        usable = ~imaginary & (omega >= omega_min)
        iq, branch = np.nonzero(usable)
        modes = mode_tensor_derivatives(self.derivs, qpts[iq],
                                        omega[iq, branch], vecs[iq, :, branch],
                                        self.crystal, nq)
        n_imaginary = int(np.count_nonzero(imaginary))
        skipped = omega.size - len(modes) - n_imaginary
        result = (modes, {"skipped_modes": skipped,
                          "imaginary_modes": n_imaginary, "n_q": nq})
        self._precursor_cache[key] = result
        return result

    # -- per-point stages --------------------------------------------------
    def hamiltonian(self, field_B=None):
        system = self.system if field_B is None else self.system.with_field(field_B)
        return system, assemble_hamiltonian(system, self.ops)

    def couplings(self, params, ham, system):
        """CouplingStack of every retained mode, target and Hermitian part.

        Modes farther than prune_sigma_mult * sigma from every spin gap
        are pruned. Each target's operator sum_k c_k B_k is built on its
        Hermitian basis B_k, rotated into the eigenbasis once per call:
        Re c gives the Hermitian part, Im c the anti-Hermitian part, and
        a part whose coefficients are all zero is dropped.
        """
        modes, diag = self.mode_precursors(params.qgrid, params.omega_min)
        fs = params.freq_scale
        omega = modes.omega * fs
        keep = np.ones(omega.shape, dtype=bool)
        if params.prune_sigma_mult is not None:
            # distance to the nearest spin gap, from its sorted neighbours
            gaps = np.unique(np.round(np.abs(ham.omega), 12))
            gaps = np.concatenate(([-np.inf], gaps, [np.inf]))
            k = np.searchsorted(gaps, omega)
            near = np.minimum(gaps[k] - omega, omega - gaps[k - 1])
            keep = near <= params.prune_sigma_mult * params.sigma
        omega = omega[keep]
        scale = params.coupling_scale or {}
        parts = []  # (channel, mode rows, coefficients, eigenbasis operators)
        for t, tgt in enumerate(modes.targets):
            ch = CHANNEL_OF_KIND[tgt[0]]
            if params.channels is not None and ch not in params.channels:
                continue
            T = modes.tensors[keep, t] / np.sqrt(fs) * scale.get(ch, 1.0)
            coeff, basis = operator_terms(system, self.ops, tgt, T)
            basis = ham.to_eigenbasis(basis)
            for c in (coeff.real, coeff.imag):
                rows = np.flatnonzero(np.any(c != 0.0, axis=1))
                parts.append((ch, rows, c[rows], basis))
        counts = [rows.size for _, rows, _, _ in parts]
        d = ham.dimension
        stack = CouplingStack(
            omega=np.concatenate([omega[rows] for _, rows, _, _ in parts]
                                 + [np.empty(0)]),
            channel=np.repeat([ch for ch, _, _, _ in parts], counts),
            V=np.empty((sum(counts), d, d), dtype=complex))
        # each part's rows written in place: V is never held twice
        blocks = np.split(stack.V.reshape(-1, d * d), np.cumsum(counts)[:-1])
        for (_, _, c, basis), out in zip(parts, blocks):
            np.matmul(c, basis.reshape(len(basis), d * d), out=out)
        diag = dict(diag)
        diag["pruned_modes"] = int(keep.size - np.count_nonzero(keep))
        return stack, diag

    def redfield(self, params):
        system, ham = self.hamiltonian(params.field_B)
        cpls, diag = self.couplings(params, ham, system)
        pc = PhononCorrelation(sigma=params.sigma, temperature=params.temperature)
        R = assemble_redfield(cpls, ham, pc, secular=params.secular)
        return R, ham, system, diag

    def relax(self, params):
        """Relaxation times for the point, with per-channel breakdown."""
        R, ham, system, diag = self.redfield(params)
        rho0 = self._field_inverted_initial_state(params, system, ham)
        est = extract_relaxation_time(R, ham, self.ops, method="both", rho0=rho0)
        tau_channel = {}
        channel_errors = {}
        for ch in R.channels:
            try:
                est_ch = extract_relaxation_time(R, ham, self.ops,
                                                 method="slowest_mode",
                                                 channels=(ch,))
                tau_channel[ch] = est_ch.tau_ms
            except NumericalError as exc:
                tau_channel[ch] = float("nan")
                channel_errors[ch] = str(exc)
        diag = dict(diag)
        diag.update({
            "n_couplings": R.n_couplings,
            "tau_fit_ms": est.tau_fit_ms,
            "min_rho_eigenvalue": est.min_rho_eigenvalue,
            "fit_residual": est.fit_residual,
            "mismatch": bool(est.mismatch),
            "non_exponential": bool(est.non_exponential),
            "expm_fallback": bool(est.expm_fallback),
            "eigvec_cond": est.eigvec_cond,
            "channel_errors": channel_errors,
        })
        return RelaxationPoint(tau_ms=est.tau_ms, tau_fit_ms=est.tau_fit_ms,
                               tau_channel_ms=tau_channel, diagnostics=diag)

    def _field_inverted_initial_state(self, params, system, ham):
        """Equilibrium of the field-reversed Hamiltonian, expressed in
        the working eigenbasis (magnetometry-style initial state)."""
        T = params.temperature
        if T <= 0:
            T = 1e-3
        B = system.field_B
        if np.linalg.norm(B) == 0:
            return None
        sys_rev, ham_rev = self.hamiltonian(-B)
        rho_rev = equilibrium_state(ham_rev, T)
        rho_prod = ham_rev.from_eigenbasis(rho_rev.matrix)
        return ham.to_eigenbasis(rho_prod)


# -- sweeps ----------------------------------------------------------------

SWEEP_AXES = ("field_magnitude", "temperature", "qgrid", "sigma",
              "n_spins", "coupling_scale", "frequency_scale")


@dataclass(frozen=True)
class SweepPlan:
    axis: str
    values: tuple
    params: RunParams = field(default_factory=RunParams)
    channel: str = None  # for coupling_scale
    replication_axis: int = 0  # for n_spins
    threads: int = 1

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValidationError(f"unknown sweep axis {self.axis!r}")
        vals = tuple(self.values)
        if not vals:
            raise ValidationError("sweep values must be nonempty")
        if self.axis != "qgrid" and not all(np.isfinite(v) for v in vals):
            raise ValidationError("sweep values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SweepRow:
    value: object
    tau_ms: float
    tau_channel_ms: dict
    diagnostics: dict
    error: str = None


@dataclass(frozen=True)
class SweepResult:
    plan_axis: str
    rows: tuple
    metadata: dict


def _point_params(plan, value):
    p = plan.params
    if plan.axis == "field_magnitude":
        base = np.asarray(p.field_B if p.field_B is not None else (0, 0, 1.0), float)
        n = np.linalg.norm(base)
        direction = base / n if n > 0 else np.array([0.0, 0.0, 1.0])
        return replace(p, field_B=tuple(direction * float(value)))
    if plan.axis == "temperature":
        return replace(p, temperature=float(value))
    if plan.axis == "qgrid":
        g = (int(value),) * 3 if np.isscalar(value) else tuple(int(x) for x in value)
        return replace(p, qgrid=g)
    if plan.axis == "sigma":
        return replace(p, sigma=float(value))
    if plan.axis == "frequency_scale":
        return replace(p, freq_scale=float(value))
    if plan.axis == "coupling_scale":
        scale = dict(p.coupling_scale or {})
        for ch in (CHANNELS if plan.channel is None else (plan.channel,)):
            scale[ch] = scale.get(ch, 1.0) * float(value)
        return replace(p, coupling_scale=scale)
    raise ValidationError(f"axis {plan.axis} handled elsewhere")


def run_sweep(pipeline, plan):
    """Evaluate tau along one axis; per-point failures are recorded in
    the row and the sweep continues."""
    if plan.axis == "n_spins":
        return multi_spin_scaling(pipeline, plan)

    def one(value):
        try:
            point = pipeline.relax(_point_params(plan, value))
            return SweepRow(value=value, tau_ms=point.tau_ms,
                            tau_channel_ms=point.tau_channel_ms,
                            diagnostics=point.diagnostics)
        except Exception as exc:  # per-point failure stays in the row
            return SweepRow(value=value, tau_ms=float("nan"),
                            tau_channel_ms={}, diagnostics={},
                            error=f"{type(exc).__name__}: {exc}")

    if plan.threads > 1:
        # warm shared caches once so workers only read
        try:
            pipeline.phonons(plan.params.qgrid)
        except Exception:
            pass
        with ThreadPoolExecutor(max_workers=plan.threads) as pool:
            rows = list(pool.map(one, plan.values))
    else:
        rows = [one(v) for v in plan.values]
    meta = {"axis": plan.axis, "params": _params_dict(plan.params)}
    return SweepResult(plan_axis=plan.axis, rows=tuple(rows), metadata=meta)


def _params_dict(p):
    return {
        "qgrid": list(p.qgrid),
        "sigma": p.sigma,
        "temperature": p.temperature,
        "field_B": None if p.field_B is None else list(p.field_B),
        "channels": None if p.channels is None else list(p.channels),
        "secular": p.secular,
        "omega_min": p.omega_min,
        "freq_scale": p.freq_scale,
        "coupling_scale": p.coupling_scale,
    }


def perturbation_study(pipeline, params, kind, channel="hyperfine"):
    """Supplementary-style robustness checks: double one channel's
    couplings or rescale every phonon frequency by 0.8."""
    if kind not in ("coupling_x2", "freq_x0.8"):
        raise ValidationError(f"unknown perturbation {kind!r}")
    base = pipeline.relax(params)
    if kind == "coupling_x2":
        scale = dict(params.coupling_scale or {})
        scale[channel] = scale.get(channel, 1.0) * 2.0
        pert_params = replace(params, coupling_scale=scale)
    else:
        pert_params = replace(params, freq_scale=params.freq_scale * 0.8)
    pert = pipeline.relax(pert_params)
    rows = (
        SweepRow(value="baseline", tau_ms=base.tau_ms,
                 tau_channel_ms=base.tau_channel_ms, diagnostics=base.diagnostics),
        SweepRow(value=kind, tau_ms=pert.tau_ms,
                 tau_channel_ms=pert.tau_channel_ms, diagnostics=pert.diagnostics),
    )
    meta = {"kind": kind, "channel": channel,
            "tau_ratio": pert.tau_ms / base.tau_ms,
            "params": _params_dict(params)}
    return SweepResult(plan_axis="perturbation", rows=rows, metadata=meta)


def replicated_spin_system(pipeline, count, axis=0):
    """Spin system and derivatives for 1..3 unit cells of electron
    pairs stacked along one lattice direction, dipolar-coupled from
    geometry."""
    base_sys = pipeline.system
    electrons = [c for c in base_sys.centers if c.kind == "electronic"]
    if not electrons:
        raise ValidationError("replication needs electronic spins")
    if not (1 <= count <= 3):
        raise ValidationError("replication count must be 1..3")
    cell_vec = pipeline.crystal.cell[axis]

    # carrier atoms: match electron positions against atom positions
    cart = pipeline.crystal.cart_positions
    carrier = {}
    for c in electrons:
        k = int(np.argmin(np.linalg.norm(cart - c.position, axis=1)))
        carrier[c.id] = k

    centers = []
    mapping = []  # (new_id, base_id, cell_index)
    cid = 0
    for cell_idx in range(count):
        for c in electrons:
            centers.append(SpinCenter(id=cid, kind="electronic", s=c.s, g=c.g,
                                      position=c.position + cell_idx * cell_vec))
            mapping.append((cid, c.id, cell_idx))
            cid += 1
    dim = 2 ** len(centers)
    if dim > base_sys.dimension_cap:
        raise CapacityError(
            f"replicated Hilbert dimension {dim} exceeds cap {base_sys.dimension_cap}")
    couplings = []
    for a in range(len(centers)):
        for b in range(a + 1, len(centers)):
            D = dipolar_tensor(centers[a], centers[b],
                               centers[b].position - centers[a].position)
            couplings.append(SpinCoupling(i=centers[a].id, j=centers[b].id,
                                          tensor=D, tag="dipolar"))
    system = SpinSystem(centers=tuple(centers), couplings=tuple(couplings),
                        field_B=base_sys.field_B,
                        dimension_cap=base_sys.dimension_cap)

    lshift = np.zeros(3, dtype=int)
    lshift[axis] = 1
    base_derivs = pipeline.derivs
    targets, atoms, ss, lvecs, tensors, prov = [], [], [], [], [], []
    for new_id, base_id, cell_idx in mapping:
        for k in range(base_derivs.n_records):
            kind, key = base_derivs.targets[k]
            if kind != "g" or key != base_id:
                continue
            targets.append(("g", new_id))
            atoms.append(base_derivs.atom[k])
            ss.append(base_derivs.s[k])
            lvecs.append(base_derivs.lvecs[k] + cell_idx * lshift)
            tensors.append(base_derivs.tensors[k])
            prov.append(base_derivs.provenance[k])
    derivs = CouplingDerivativeSet(targets, atoms, ss, lvecs, tensors, prov)
    for cp in couplings:
        ci = system.center(cp.i)
        cj = system.center(cp.j)
        cell_i = next(m[2] for m in mapping if m[0] == cp.i)
        cell_j = next(m[2] for m in mapping if m[0] == cp.j)
        base_i = next(m[1] for m in mapping if m[0] == cp.i)
        base_j = next(m[1] for m in mapping if m[0] == cp.j)
        derivs = derivs.merged(dipolar_pair_records(
            ci, cj, carrier[base_i], carrier[base_j],
            lvec_j=tuple(cell_j * lshift), lvec_i=tuple(cell_i * lshift)))
    return system, derivs


def multi_spin_scaling(pipeline, plan):
    """tau versus number of replicated electron pairs along one axis."""
    rows = []
    for count in plan.values:
        try:
            system, derivs = replicated_spin_system(pipeline, int(count),
                                                    plan.replication_axis)
            sub = RelaxationPipeline(pipeline.crystal, pipeline.fc, derivs,
                                     system, enforce_sum_rule=False)
            point = sub.relax(plan.params)
            n_spins = len(system.centers)
            rows.append(SweepRow(value=n_spins, tau_ms=point.tau_ms,
                                 tau_channel_ms=point.tau_channel_ms,
                                 diagnostics=point.diagnostics))
        except Exception as exc:
            rows.append(SweepRow(value=count, tau_ms=float("nan"),
                                 tau_channel_ms={}, diagnostics={},
                                 error=f"{type(exc).__name__}: {exc}"))
    meta = {"axis": "n_spins", "replication_axis": plan.replication_axis,
            "params": _params_dict(plan.params)}
    return SweepResult(plan_axis="n_spins", rows=tuple(rows), metadata=meta)


def converge_protocol(pipeline, params, sigmas=(4.0, 2.0, 1.0),
                      grids=((4, 4, 4), (8, 8, 8), (16, 16, 16)),
                      rel_tol=0.02):
    """Nested convergence: for each sigma, grow the q-grid until tau
    changes by less than rel_tol, then move to the next (smaller)
    sigma. Returns a list of dicts, one per sigma."""
    report = []
    for sigma in sigmas:
        taus = []
        converged = False
        used = []
        for grid in grids:
            p = replace(params, sigma=float(sigma), qgrid=tuple(grid))
            taus.append(pipeline.relax(p).tau_ms)
            used.append(tuple(grid))
            if len(taus) >= 2 and abs(taus[-1] / taus[-2] - 1.0) < rel_tol:
                converged = True
                break
        report.append({"sigma": float(sigma), "grids": used,
                       "tau_ms": taus, "converged": converged})
    return report
