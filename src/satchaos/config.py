"""Global tolerances and resource guards.

Every numeric tolerance used across the package lives here so that tests,
the CLI, and library callers agree on one set of constants. So do the names
and default seed of the ``verify`` suites, which the CLI's parser needs
without importing :mod:`satchaos.verify` and numpy. Model counts need no
tolerance: both plane engines count r exactly, as an integer, and every
check that compares counts is integer equality.
"""

# Numerical tolerances.
SINGLE_OP_ATOL = 1e-12      # one gate / one channel step / one table row; linearity
ACCUMULATED_ATOL = 1e-10    # norm budget for a whole pipeline, scaled by op count
UNITARITY_ATOL = 1e-14      # max-abs deviation of U†U from the identity
AMPLITUDE_PRUNE_EPS = 1e-15 # machine branches below this magnitude are dropped
INTEGRALITY_ATOL = 1e-6     # a float readout's q²·2^n must sit this close to an integer

# Resource guards (refusals, not crashes), each read by the engine it protects.
MAX_PLANE_BYTES = 1 << 30   # circuit: one 2^n-bit plane per qubit, 1 GiB in all
DEFAULT_MAX_QUBITS = 26     # dense reference: 2^26 complex128 amplitudes is 1 GiB
DEFAULT_MAX_ENUM_VARS = 30  # brute-force assignment enumeration cap
DEFAULT_MAX_MACHINE_VARS = 16  # superposed machine runs: 2^n-bit planes

# Amplifier defaults.
DEFAULT_LOGISTIC_A = 3.71
DEFAULT_THRESHOLD = 0.5

# The verify suites, by name, and the seed of their random corpora.
VERIFY_SUITES = ("bounds", "gates", "oracle", "tables")
DEFAULT_SEED = 20260816


class GuardExceeded(RuntimeError):
    """A configured resource guard refused the requested computation."""
