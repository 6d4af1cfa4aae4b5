"""Bundled worked examples and their pass/fail harness.

Each example is described by an ExampleManifest: a fixture under
``examples_runs/``, a SHA-256 digest pinning the fixture's entry file
(numerical outputs are judged against explicit tolerances instead, so
the report stays stable across BLAS builds), and the tolerance spec the
checker applies. Examples run independently, one after another.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingStack
from .hamiltonian import diagonalize
from .lattice import phonon_spectrum
from .project import load_project
from .redfield import PhononCorrelation, assemble_redfield
from .sweep import RelaxationPipeline, run_sweep
from .units import ANGULAR_FREQUENCY_PER_CM1, KB_CM1_PER_K

def examples_dir():
    """Root of the shipped example fixtures."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.normpath(os.path.join(here, "..", "..", "examples_runs"))


@dataclass(frozen=True)
class ExampleManifest:
    example_id: str
    config_path: str  # relative to examples_dir()
    kind: str
    expected_digest: str
    tolerance: dict = field(default_factory=dict)
    description: str = ""


MANIFESTS = (
    ExampleManifest(
        example_id="temperature-sweep",
        config_path="temperature_sweep/config.json",
        kind="temperature-slope",
        expected_digest="44624e01d4b4050ec429d03c0770175ec7416bb6a8"
                        "92b9915a503ca68b3ab1dc",
        tolerance={"slope": -1.0, "slope_tol": 0.05},
        description="relaxation time follows 1/T across a decade of "
                    "temperature in the one-phonon regime"),
    ExampleManifest(
        example_id="gamma-acoustic",
        config_path="gamma_acoustic/config.json",
        kind="gamma-zeros",
        expected_digest="bb30a6d67757fc90108570330f3b32949f7576c57c"
                        "8ed2bdd0140f8a0dea5408",
        tolerance={"max_abs_cm1": 1e-6},
        description="three acoustic frequencies vanish at the zone "
                    "center once the sum rule is enforced"),
    ExampleManifest(
        example_id="golden-rule",
        config_path="golden_rule/params.json",
        kind="golden-rule",
        expected_digest="b4ce5196261089b3249817cf156b64f8e36e86633c"
                        "eefe19afaeba2e62a828e0",
        tolerance={"rel_tol": 1e-10},
        description="two-level population-transfer rates match an "
                    "independent golden-rule evaluation"),
    ExampleManifest(
        example_id="vanadyl-fixture",
        config_path="vanadyl_fixture/config.json",
        kind="fixture-structure",
        expected_digest="155eb4e2dff8042b852858eacdd1fc55d7b11db82e"
                        "0559fa7721f6943ee17447",
        tolerance={"dimension": 16, "max_abs_cm1": 1e-6},
        description="molecular-qubit-like project: S=1/2 electron plus "
                    "an I=7/2 nucleus gives a 16-level space"),
)


def _check_digest(manifest, path):
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if digest != manifest.expected_digest:
        return f"fixture digest mismatch: {digest}"
    return None


def _run_temperature_slope(manifest, path):
    crystal, fc, derivs, system, config = load_project(path)
    pipeline = RelaxationPipeline(crystal, fc, derivs, system)
    result = run_sweep(pipeline, config.sweeps[0])
    errors = [r.error for r in result.rows if r.error]
    if errors:
        return False, f"sweep failures: {errors}"
    temps = np.array([float(r.value) for r in result.rows])
    taus = np.array([r.tau_ms for r in result.rows])
    slope = float(np.polyfit(np.log(temps), np.log(taus), 1)[0])
    target = manifest.tolerance["slope"]
    tol = manifest.tolerance["slope_tol"]
    ok = abs(slope - target) <= tol
    return ok, f"log-log slope {slope:.4f} (target {target} +- {tol})"


def _gamma_acoustic_residual(fc):
    """Largest |omega| (cm^-1) of the three acoustic branches at Gamma."""
    omega, _ = phonon_spectrum(fc, np.zeros((1, 3)))
    return float(np.max(np.abs(omega[0, :3])))


def _run_gamma_zeros(manifest, path):
    crystal, fc, derivs, system, config = load_project(path)
    pipeline = RelaxationPipeline(crystal, fc, derivs, system)  # enforces ASR
    worst = _gamma_acoustic_residual(pipeline.fc)
    tol = manifest.tolerance["max_abs_cm1"]
    return worst < tol, f"max |Gamma acoustic| = {worst:.2e} cm^-1 (< {tol:g})"


def _golden_rule_oracle(v_ac, gap, omega0, sigma, T):
    """Independent golden-rule rate, written out from first principles."""
    from math import exp, expm1, pi, sqrt
    n = 0.0 if T <= 0 else 1.0 / expm1(omega0 / (KB_CM1_PER_K * T))
    gauss = lambda x: exp(-(x / sigma) ** 2) / (sigma * sqrt(pi))
    g = n * gauss(omega0 - gap) + (n + 1.0) * gauss(omega0 + gap)
    return pi * ANGULAR_FREQUENCY_PER_CM1 * abs(v_ac) ** 2 * g


def _run_golden_rule(manifest, path):
    with open(path) as fh:
        params = json.load(fh)
    rng = np.random.default_rng(params["seed"])
    sigma = params["sigma_cm1"]
    T = params["temperature_K"]
    rel_tol = manifest.tolerance["rel_tol"]
    worst = 0.0
    for _ in range(params["cases"]):
        gap = rng.uniform(1.0, 10.0)
        omega0 = gap + rng.normal(scale=0.3 * sigma)
        ham = diagonalize(np.diag([0.0, gap]).astype(complex))
        v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        v = 0.5 * (v + v.conj().T)
        V, omega_mode = ham.to_eigenbasis(v), abs(omega0) + 1e-9
        stack = CouplingStack.from_rows([omega_mode], ["zeeman"], [V])
        R = assemble_redfield(stack, ham, PhononCorrelation(sigma, T))
        w_up = R.matrix()[3, 0].real  # rho_11 <- rho_00 transfer
        oracle = _golden_rule_oracle(V[1, 0], ham.omega[1, 0], omega_mode,
                                     sigma, T)
        worst = max(worst, abs(w_up / oracle - 1.0))
    return worst <= rel_tol, (f"max relative deviation {worst:.2e} "
                              f"over {params['cases']} cases (<= {rel_tol:g})")


def _run_fixture_structure(manifest, path):
    crystal, fc, derivs, system, config = load_project(path)
    want = manifest.tolerance["dimension"]
    if system.dimension != want:
        return False, f"Hilbert dimension {system.dimension} != {want}"
    pipeline = RelaxationPipeline(crystal, fc, derivs, system)
    worst = _gamma_acoustic_residual(pipeline.fc)
    tol = manifest.tolerance["max_abs_cm1"]
    if worst >= tol:
        return False, f"Gamma acoustic residual {worst:.2e} cm^-1"
    return True, (f"dimension {system.dimension}, "
                  f"{derivs.n_records} derivative records, "
                  f"Gamma residual {worst:.2e} cm^-1")


_RUNNERS = {
    "temperature-slope": _run_temperature_slope,
    "gamma-zeros": _run_gamma_zeros,
    "golden-rule": _run_golden_rule,
    "fixture-structure": _run_fixture_structure,
}


def _run_one(manifest, base_dir):
    path = os.path.join(base_dir, manifest.config_path)
    try:
        if not os.path.exists(path):
            return {"example": manifest.example_id, "passed": False,
                    "details": f"fixture missing: {path}"}
        problem = _check_digest(manifest, path)
        if problem:
            return {"example": manifest.example_id, "passed": False,
                    "details": problem}
        passed, details = _RUNNERS[manifest.kind](manifest, path)
        return {"example": manifest.example_id, "passed": bool(passed),
                "details": details}
    except Exception as exc:
        return {"example": manifest.example_id, "passed": False,
                "details": f"{type(exc).__name__}: {exc}"}


def run_examples(filter=None, base_dir=None):
    """Run every bundled example (optionally substring-filtered).

    Returns a list of {"example", "passed", "details"} dicts, one per
    manifest, in manifest order.
    """
    base = base_dir if base_dir is not None else examples_dir()
    return [_run_one(m, base) for m in MANIFESTS
            if filter is None or filter in m.example_id]
