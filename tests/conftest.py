import pytest

from spinphonon.sweep import RelaxationPipeline
from spinphonon.toy import generate_toy_crystal, toy_preset, write_toy_project


@pytest.fixture(scope="session")
def soft_bundle():
    """Soft-lattice toy crystal with a single S=1/2 electron (d=2)."""
    return generate_toy_crystal(toy_preset("soft", 0))


@pytest.fixture(scope="session")
def soft_pipeline(soft_bundle):
    crystal, fc, derivs, system = soft_bundle
    return RelaxationPipeline(crystal, fc, derivs, system)


@pytest.fixture(scope="session")
def vanadyl_config(tmp_path_factory):
    """Serialized molecular-qubit-like project (electron + I=7/2, d=16)."""
    out = tmp_path_factory.mktemp("vanadyl")
    return write_toy_project(str(out), toy_preset("vanadyl", 1),
                             qgrid=(4, 4, 4), sigma=1.0, temperature=20.0)
