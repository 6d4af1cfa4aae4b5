"""Direct (one-phonon) spin-lattice relaxation for molecular crystals."""

from .version import __version__

from .coupling import (CouplingDerivativeSet, CouplingStack, DerivativeScan,
                       ModeTensors, coupling_norm_distribution,
                       dipolar_derivative, dipolar_network,
                       dipolar_pair_records, fit_derivative_scan,
                       mode_tensor_derivatives)
from .crystal import Atom, CrystalModel
from .errors import (CapacityError, ConfigError, NumericalError, ParseError,
                     SpinPhononError, ValidationError)
from .hamiltonian import (SpinHamiltonian, assemble_hamiltonian, diagonalize,
                          dipolar_tensor)
from .lattice import (DosCurve, ForceConstantSet, bose_population,
                      enforce_acoustic_sum_rule, phonon_dos, phonon_spectrum)
from .redfield import (DensityMatrix, PhononCorrelation, RedfieldTensor,
                       assemble_redfield, equilibrium_state,
                       extract_relaxation_time, phonon_correlation_value,
                       propagate)
from .spins import (SpinCenter, SpinCoupling, SpinOperators, SpinSystem,
                    build_spin_operators)
from .sweep import (RelaxationPipeline, RunParams, SweepPlan, SweepResult,
                    converge_protocol, kpoint_grid, perturbation_study,
                    run_sweep)
from .project import (ProjectConfig, load_config, load_crystal,
                      load_derivatives, load_force_constants, load_project,
                      load_results, write_bands_csv, write_coupling_csv,
                      write_dos_csv, write_results)
from .toy import ToySpec, diatomic_chain, generate_toy_crystal
