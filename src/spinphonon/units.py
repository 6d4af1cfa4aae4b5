"""Unit system and physical constants.

Internal working units: energy/frequency in cm^-1, length in Angstrom,
mass in amu, magnetic field in Tesla, temperature in K, time in ps.
With hbar = 1 an energy E in cm^-1 corresponds to an angular frequency
E * ANGULAR_FREQUENCY_PER_CM1 in rad/ps.

Every constant below is derived from CODATA-2018 SI values at import
time rather than typed in as a decimal, so the unit algebra is explicit
and testable.
"""

import math

# CODATA 2018 (SI)
PLANCK_J_S = 6.62607015e-34
HBAR_J_S = PLANCK_J_S / (2.0 * math.pi)
SPEED_OF_LIGHT_CM_S = 2.99792458e10
BOLTZMANN_J_K = 1.380649e-23
BOHR_MAGNETON_J_T = 9.2740100783e-24
NUCLEAR_MAGNETON_J_T = 5.0507837461e-27
AMU_KG = 1.66053906660e-27
EV_J = 1.602176634e-19
MU0_OVER_4PI = 1.0e-7  # T^2 m^3 / J

# 1 cm^-1 expressed in Joule
_CM1_J = PLANCK_J_S * SPEED_OF_LIGHT_CM_S

#: Bohr magneton, cm^-1 per Tesla (~0.46686)
BOHR_MAGNETON_CM1_PER_T = BOHR_MAGNETON_J_T / _CM1_J

#: Nuclear magneton, cm^-1 per Tesla (~2.5426e-4)
NUCLEAR_MAGNETON_CM1_PER_T = NUCLEAR_MAGNETON_J_T / _CM1_J

#: Boltzmann constant, cm^-1 per Kelvin (~0.69503)
KB_CM1_PER_K = BOLTZMANN_J_K / _CM1_J

#: Angular frequency per wavenumber: rad/ps per cm^-1 (~0.188365)
ANGULAR_FREQUENCY_PER_CM1 = 2.0 * math.pi * SPEED_OF_LIGHT_CM_S * 1.0e-12

#: sqrt(hbar / (omega * m)) evaluated at omega = 1 cm^-1 (angular) and
#: m = 1 amu, in Angstrom: ~5.8065 A * sqrt(cm^-1 * amu)
ZERO_POINT_LENGTH_A = math.sqrt(
    HBAR_J_S / (2.0 * math.pi * SPEED_OF_LIGHT_CM_S * AMU_KG)
) * 1.0e10

#: mu0 * muB^2 / (4 pi), in cm^-1 * A^3 (~0.43297); multiply by the g
#: factors and divide by r^3 in Angstrom for a point-dipole energy scale.
DIPOLAR_PREFACTOR_CM1_A3 = MU0_OVER_4PI * BOHR_MAGNETON_J_T**2 / _CM1_J * 1.0e30

#: omega[cm^-1] = FREQ_CM1_PER_SQRT_EV_A2_AMU * sqrt(lambda[eV/A^2/amu])
#: for eigenvalues of the mass-weighted dynamical matrix (~521.47)
FREQ_CM1_PER_SQRT_EV_A2_AMU = math.sqrt(EV_J / (1.0e-20 * AMU_KG)) / (
    2.0 * math.pi * SPEED_OF_LIGHT_CM_S
)

#: picoseconds per millisecond
PS_PER_MS = 1.0e9
