"""Numbers of the form p + 2^k: covering systems, exceptional arithmetic
progressions, sieve verification for small moduli, and certified upper
bounds on the density of representable integers."""

from .modcore import (
    CongruenceCondition,
    euler_phi,
    factorize,
    mersenne_prime_divisors,
    ord2,
    primitive_mersenne_divisors,
)
from .covering import (
    CoveringSystem,
    EnumerationReport,
    PrimeAssignment,
    double_cover,
    enumerate_cdl_systems,
    find_prime_assignments,
    is_covering,
    is_minimal,
)
from .progressions import (
    CdlProgression,
    ExclusionCertificate,
    derive_progression,
    membership_in_U_is_certified,
    pair_gcd_census,
    verify_excludes_primes,
)
from .chenscan import (
    ModulusVerdict,
    ScanReport,
    check_even_modulus,
    find_witness,
    scan_range,
)
from .density import (
    BoundResult,
    Cluster,
    DeltaHistogram,
    augment,
    brute_force_delta,
    cross_histogram,
    evaluate_bound,
    merge,
    prime_cluster,
    run_estimate,
)

__version__ = "0.1.0"
