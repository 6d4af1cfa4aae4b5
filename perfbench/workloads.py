"""Benchmark workloads: their inputs, the CLI call a user would make, and
the checks that decide whether each operation's output is right.

An operation is one tau point (one per ``relax``, eight per ``sweep``)
or one DOS curve. Every check uses a property the method must have or a
computation made apart from the program (``oracle.py``); none compares
against a stored copy of an earlier output.

The program is imported lazily inside each function, because the
benchmark re-imports the package to time its set-up.
"""

import hashlib
import json
import math
import os

import numpy as np

import oracle

# The shipped fixture is read as is; a changed file would change the workload.
VANADYL_DIR = os.path.join("examples_runs", "vanadyl_fixture")
VANADYL_SHA256 = {
    "config.json": "155eb4e2dff8042b852858eacdd1fc55d7b11db82e0559fa7721f6943ee17447",
    "crystal.json": "c8eeec412b5d5d6ae5c94b1252c658f3ed54cd635e6e0e7e246b4f7905680a95",
    "derivatives.dat": "6b2eebb2ae8f3799b85ac8c019f24501ad9a7f920aa93ef1df11d46c93d04092",
    "force_constants.dat": "dbb17c777b1eb8415815c0cf883bfe2953369838e5deea1e5681134d9ebd6983",
}

SOFT_TEMPS_K = tuple(float(t) for t in np.geomspace(68.0, 680.0, 8))
# The soft sweep fails on every point at HEAD (non-secular generator R
# instead of L); a failing operation must not depend on --seed, so its
# derivative records are drawn from this fixed seed.
SOFT_SEED = 0

# Tolerances of the checks.
REL_TOL_ORACLE = 0.01
SLOPE_TOL_T = 0.05
MIN_RHO_EIG = -1e-8
DOS_AREA_REL_TOL = 1e-3
DOS_SLOPE_TOL = 0.2
DOS_SUM_REL_TOL = 1e-6
R_TRACE_REL_TOL = 1e-12
R_HERM_REL_TOL = 1e-12


class Failure:
    """Why one check failed; ``known`` marks the fault the workload is
    expected to show (the non-secular generator is R, not
    L = -i diag(omega_ab) + R)."""

    def __init__(self, what, known=False):
        self.what = what
        self.known = known

    def __repr__(self):
        return ("known fault: " if self.known else "") + self.what


# -- generated projects -------------------------------------------------------

def soft_spec(seed):
    """The ``soft`` toy preset: d=2, soft acoustic band below ~4 cm^-1."""
    from spinphonon.toy import ToySpec
    return ToySpec(lattice=(6.0, 6.0, 6.0), molecules_per_cell=1,
                   atoms_per_molecule=2, mass=150.0, k_intra=1.0,
                   k_inter=0.0008, g_deriv_mag=1e-3, dipolar_couplings=False,
                   field_B=(0.0, 0.0, 5.0), seed=seed)


def dos_spec(seed):
    """The criterion-07 Debye crystal: one molecule of four atoms.

    No jitter is applied, so lattice and force constants do not depend
    on the seed; only the (unused) derivative records do.
    """
    from spinphonon.toy import ToySpec
    return ToySpec(atoms_per_molecule=4, mass=20.0, k_intra=2.0,
                   k_inter=0.15, seed=seed)


def pair_spec(seed):
    """d=32: two S=1/2 electrons on two molecules plus an I=7/2 nucleus,
    with Zeeman, hyperfine and dipolar channels."""
    from spinphonon.toy import ToySpec
    return ToySpec(lattice=(7.0, 7.0, 7.0), molecules_per_cell=2,
                   atoms_per_molecule=2, mass=120.0, k_intra=1.0,
                   k_inter=0.003, g_baseline=(1.9830, 1.9814, 1.9274),
                   a_baseline=(0.00354, 0.00396, 0.01396), nuclear_spin=3.5,
                   g_deriv_mag=1e-3, a_deriv_mag=1e-4, spin_molecules=2,
                   dipolar_couplings=True, field_B=(0.0, 0.0, 5.0), seed=seed)


def write_project(out_dir, spec, qgrid, temperature, sweeps=()):
    """Generate a toy crystal and write it with the program's own
    serializers; returns (config path, generated objects)."""
    from spinphonon.project import (serialize_crystal, serialize_derivatives,
                                    serialize_force_constants,
                                    serialize_spin_system)
    from spinphonon.toy import generate_toy_crystal
    bundle = generate_toy_crystal(spec)
    crystal, fc, derivs, system = bundle
    os.makedirs(out_dir, exist_ok=True)
    files = {
        "crystal.json": json.dumps(serialize_crystal(crystal), indent=1) + "\n",
        "force_constants.dat": serialize_force_constants(fc),
        "derivatives.dat": serialize_derivatives(derivs),
    }
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    config = {
        "crystal": "crystal.json",
        "force_constants": "force_constants.dat",
        "derivatives": ["derivatives.dat"],
        "spin_system": serialize_spin_system(system),
        "field_T": [float(x) for x in spec.field_B],
        "temperature_K": temperature,
        "qgrid": list(qgrid),
        "sigma_cm1": 1.0,
        "secular": False,
        "sweeps": list(sweeps),
        "output_dir": ".",
        "seed": spec.seed,
    }
    path = os.path.join(out_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=1)
        fh.write("\n")
    return path, bundle


def check_vanadyl_fixture(root):
    """Path of the shipped fixture's config, after checking every file."""
    base = os.path.join(root, VANADYL_DIR)
    for name, want in VANADYL_SHA256.items():
        with open(os.path.join(base, name), "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        if got != want:
            raise SystemExit(f"{VANADYL_DIR}/{name}: SHA-256 {got} is not the "
                             f"benchmarked {want}")
    return os.path.join(base, "config.json")


# -- workloads ----------------------------------------------------------------

class Workload:
    """One CLI verb on one project.

    ``prepare`` writes the inputs (untimed); ``argv`` is the CLI call
    timed per round; ``check`` reads the written outputs and returns one
    list of Failure per operation.
    """

    name = None
    verb = None
    ops_per_round = 1

    def __init__(self, root, work_dir, seed):
        self.root = root
        self.work_dir = work_dir
        self.seed = seed
        self.config = None

    def out_dir(self, round_no):
        return os.path.join(self.work_dir, f"out{round_no}")

    def _relax_argv(self, grid, temp, round_no):
        return ["relax", "--config", self.config, "--grid", grid,
                "--temp", str(temp), "--out", self.out_dir(round_no)]

    def _relax_row(self, round_no):
        with open(os.path.join(self.out_dir(round_no), "relax.json")) as fh:
            return json.load(fh)["rows"][0]


def _tau_and_rho_failures(row):
    out = []
    tau = row["tau_ms"]
    if row.get("error") or tau is None or not math.isfinite(tau) or tau <= 0:
        out.append(Failure(f"tau {tau!r} is not finite and positive "
                           f"(error {row.get('error')!r})"))
    min_eig = row["diagnostics"].get("min_rho_eigenvalue")
    if min_eig is None or not min_eig >= MIN_RHO_EIG:
        out.append(Failure(f"min rho eigenvalue {min_eig!r} below {MIN_RHO_EIG}"))
    return out


class VanadylRelax(Workload):
    name = "vanadyl_relax"
    verb = "relax"

    def prepare(self):
        self.config = check_vanadyl_fixture(self.root)

    def argv(self, round_no):
        return self._relax_argv("8,8,8", 20.0, round_no)

    def check(self, round_no, captured):
        row = self._relax_row(round_no)
        fails = _tau_and_rho_failures(row)
        # relax.json carries no tau_fit_ms; the mismatch flag says whether
        # the exp-fit and slowest-mode estimates differ by more than 5%.
        if row["diagnostics"].get("mismatch") is not False:
            fails.append(Failure("exp-fit and slowest-mode tau differ by more "
                                 "than 5% (mismatch set)", known=True))
        return [fails]


class SoftTsweep(Workload):
    name = "soft_tsweep"
    verb = "sweep"
    ops_per_round = len(SOFT_TEMPS_K)

    def prepare(self):
        sweeps = [{"axis": "temperature", "values": list(SOFT_TEMPS_K)}]
        self.config, bundle = write_project(
            os.path.join(self.work_dir, "project"), soft_spec(SOFT_SEED),
            (16, 16, 16), 100.0, sweeps)
        crystal, fc, derivs, system = bundle
        center = system.centers[0]
        self.oracle = oracle.GoldenRuleOracle(
            masses=crystal.masses, fc_lvecs=fc.lvecs, fc_i=fc.i, fc_s=fc.s,
            fc_j=fc.j, fc_t=fc.t, fc_values=fc.values, d_atom=derivs.atom,
            d_s=derivs.s, d_lvecs=derivs.lvecs, d_tensors=derivs.tensors,
            g=center.g, field_T=system.field_B, qgrid=(16, 16, 16),
            sigma=1.0)

    def argv(self, round_no):
        return ["sweep", "--config", self.config, "--threads", "1",
                "--out", self.out_dir(round_no)]

    def check(self, round_no, captured):
        path = os.path.join(self.out_dir(round_no), "sweep_0_temperature.json")
        with open(path) as fh:
            rows = json.load(fh)["rows"]
        per_op = []
        temps, taus = [], []
        for row in rows:
            fails = []
            T, tau = float(row["value"]), row["tau_ms"]
            if row.get("error") or tau is None or not math.isfinite(tau):
                fails.append(Failure(f"T={T:g} K: no finite tau "
                                     f"({row.get('error')!r})"))
            else:
                ref = self.oracle.tau_ms(T)
                if abs(tau / ref - 1.0) > REL_TOL_ORACLE:
                    fails.append(Failure(
                        f"T={T:g} K: tau {tau:.6g} ms is {tau / ref - 1.0:+.1%} "
                        f"off the golden-rule oracle {ref:.6g} ms", known=True))
                temps.append(T)
                taus.append(tau)
            per_op.append(fails)
        per_op += [[Failure("point missing from the sweep output")]
                   for _ in range(self.ops_per_round - len(rows))]
        if len(taus) >= 2:
            slope = np.polyfit(np.log(temps), np.log(taus), 1)[0]
            if abs(slope + 1.0) > SLOPE_TOL_T:
                for fails in per_op:
                    fails.append(Failure(f"d log tau / d log T = {slope:.4f}, "
                                         f"not -1 within {SLOPE_TOL_T}"))
        return per_op


class DebyeDos(Workload):
    name = "debye_dos"
    verb = "dos"

    def prepare(self):
        self.config, bundle = write_project(
            os.path.join(self.work_dir, "project"), dos_spec(self.seed),
            (32, 32, 32), 20.0)
        self.n_atoms = bundle[0].n_atoms

    def argv(self, round_no):
        return ["dos", "--config", self.config, "--grid", "32,32,32",
                "--sigma", "1.0", "--out", self.out_dir(round_no)]

    def check(self, round_no, captured):
        path = os.path.join(self.out_dir(round_no), "dos.csv")
        cols = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
        w, total, trans, rot, intra = cols.T
        fails = []
        three_n = 3 * self.n_atoms
        area = float(np.sum(0.5 * (total[1:] + total[:-1]) * np.diff(w)))
        if abs(area / three_n - 1.0) > DOS_AREA_REL_TOL:
            fails.append(Failure(f"DOS area {area:.6f}, not 3N = {three_n}"))
        window = (w >= 5.0) & (w <= 15.0) & (total > 0)
        slope = (np.polyfit(np.log(w[window]), np.log(total[window]), 1)[0]
                 if np.count_nonzero(window) >= 3 else float("nan"))
        if not abs(slope - 2.0) <= DOS_SLOPE_TOL:
            fails.append(Failure(f"Debye slope {slope:.3f}, not 2"))
        gap = np.max(np.abs(trans + rot + intra - total))
        if gap > DOS_SUM_REL_TOL * np.max(total):
            fails.append(Failure(f"decomposition misses the total by {gap:.2e}"))
        if np.min(total) < 0:
            fails.append(Failure(f"negative DOS {np.min(total):.2e}"))
        return [fails]


class PairD32Relax(Workload):
    name = "pair_d32_relax"
    verb = "relax"
    # The verb's Redfield tensor is kept (untimed) for the library check.
    capture = ("spinphonon.sweep", "assemble_redfield")

    def prepare(self):
        self.config, _ = write_project(os.path.join(self.work_dir, "project"),
                                       pair_spec(self.seed), (2, 2, 2), 20.0)

    def argv(self, round_no):
        return self._relax_argv("2,2,2", 20.0, round_no)

    def check(self, round_no, captured):
        # the exp-fit cross-check is left out: the program itself flags
        # this decay as non-exponential
        fails = _tau_and_rho_failures(self._relax_row(round_no))
        fails += redfield_failures(captured)
        return [fails]


def redfield_failures(R):
    """R preserves the trace and maps a Hermitian rho to a Hermitian one."""
    if R is None:
        return [Failure("no Redfield tensor was assembled")]
    d = R.dimension
    M = R.matrix().reshape(d, d, d, d)  # (a, b, c, d) on rho_ab <- rho_cd
    scale = np.max(np.abs(M))
    trace_row = np.einsum("aacd->cd", M)
    fails = []
    if np.max(np.abs(trace_row)) > R_TRACE_REL_TOL * scale:
        fails.append(Failure(f"sum_a R_aa,cd = {np.max(np.abs(trace_row)):.2e} "
                             f"(max|R| {scale:.2e})"))
    rng = np.random.default_rng(12345)
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A + A.conj().T
    out = np.einsum("abcd,cd->ab", M, rho)
    herm = np.max(np.abs(out - out.conj().T))
    if herm > R_HERM_REL_TOL * scale * np.max(np.abs(rho)) * d:
        fails.append(Failure(f"R(rho) is not Hermitian: residual {herm:.2e}"))
    return fails


WORKLOADS = {w.name: w for w in (VanadylRelax, SoftTsweep, DebyeDos,
                                 PairD32Relax)}
