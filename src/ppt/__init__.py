"""Primality testing via quadratic non-residues and binomial congruences.

The package decides primality with three related algorithms (an explicit
non-residue test, a no-search variant backed by canonical divisor
polynomials, and a randomized Miller-Rabin hybrid), each producing a
verdict whose compositeness mechanism re-verifies from its own fields.
"""

from .algorithms import (
    ALGORITHMS,
    BinomialWitness,
    Even,
    EulerWitness,
    FermatWitness,
    JacobiZeroFactor,
    MrNontrivialRoot,
    Outcome,
    PerfectSquare,
    PgpcViolation,
    PrimeBasis,
    QnrMrProbe,
    QnrProbe,
    QnrSearch,
    TrivialFactor,
    Verdict,
    certificate,
    default_qnr_iter_limit,
    enhanced_mr,
    find_qnr,
    find_qnr_with_mr,
    mechanism_from_json,
    miller_rabin_base,
    ppta_eqnr,
    ppta_inr,
    verify_certificate,
)
from .canonical import (
    CanonicalParams,
    FindResult,
    canonical_params,
    cyclotomic_prime_power,
    factor_prime_power,
    find_qnr_or_m,
    psi_of,
    upsilon_of,
)
from .checks import PgpcReport, bcc, ecc, fgpc_check, pgpc_check
from .harness import (
    BatchStats,
    Dataset,
    TrialResult,
    generate_carmichaels,
    load_dataset,
    run_batch,
    trial_division,
)
from .ntcore import MrOutcome, count_qnr, isqrt, jacobi, lof_tpow, next_prime
from .polyring import (
    Poly,
    QuotientRing,
    euler_poly_check,
    mbec_remainder,
    poly_mulmod,
    poly_powmod,
)
from .quadext import QuadCtx, QuadInt, conjugate, norm, quad_mul, quad_pow

__version__ = "0.1.0"
