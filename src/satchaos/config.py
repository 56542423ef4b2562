"""Global tolerances and resource guards.

Every numeric tolerance used across the package lives here so that tests,
the CLI, and library callers agree on one set of constants.
"""

# Numerical tolerances.
SINGLE_OP_ATOL = 1e-12      # one gate / one channel step / one table row; linearity
ACCUMULATED_ATOL = 1e-10    # norm budget for a whole pipeline, scaled by op count
UNITARY_STAGE_NORM_ATOL = 1e-9  # machine norm drift over its whole unitary stage
ORACLE_ATOL = 1e-10         # circuit readout against the brute-force fraction
CROSS_BACKEND_ATOL = 1e-9   # machine weight against circuit readout
UNITARITY_ATOL = 1e-14      # max-abs deviation of U†U from the identity
AMPLITUDE_PRUNE_EPS = 1e-15 # machine branches below this magnitude are dropped
SAT_DECISION_EPS = 1e-12    # q² above this counts as nonzero (exact decision)
INTEGRALITY_ATOL = 1e-6     # q²·2^n must sit this close to an integer

# Resource guards (refusals, not crashes), each read by the engine it protects.
MAX_PLANE_BYTES = 1 << 30   # circuit: one 2^n-bit plane per qubit, 1 GiB in all
DEFAULT_MAX_QUBITS = 26     # dense reference: 2^26 complex128 amplitudes is 1 GiB
DEFAULT_MAX_ENUM_VARS = 30  # brute-force assignment enumeration cap
DEFAULT_MAX_MACHINE_VARS = 3  # full superposed machine runs (2^n branches)

# Amplifier defaults.
DEFAULT_LOGISTIC_A = 3.71
DEFAULT_THRESHOLD = 0.5


class GuardExceeded(RuntimeError):
    """A configured resource guard refused the requested computation."""
