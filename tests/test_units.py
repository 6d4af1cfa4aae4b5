from spinphonon import units


def test_bohr_magneton_in_wavenumbers_per_tesla():
    assert abs(units.BOHR_MAGNETON_CM1_PER_T - 0.46686448) < 1e-7


def test_nuclear_magneton_in_wavenumbers_per_tesla():
    assert abs(units.NUCLEAR_MAGNETON_CM1_PER_T - 2.542623e-4) < 1e-9


def test_boltzmann_in_wavenumbers_per_kelvin():
    assert abs(units.KB_CM1_PER_K - 0.69503480) < 1e-7


def test_angular_frequency_conversion_factor():
    assert abs(units.ANGULAR_FREQUENCY_PER_CM1 - 0.188365) < 1e-6


def test_zero_point_length_scale():
    assert abs(units.ZERO_POINT_LENGTH_A - 5.80648) < 1e-4


def test_dipolar_prefactor():
    assert abs(units.DIPOLAR_PREFACTOR_CM1_A3 - 0.432971) < 1e-5


def test_dynamical_matrix_frequency_conversion():
    assert abs(units.FREQ_CM1_PER_SQRT_EV_A2_AMU - 521.471) < 1e-2
