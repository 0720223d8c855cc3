"""Jordan partitions of tensor products of unipotent Jordan blocks over GF(p),
Norman involutions, standardness criteria, and the groups the involutions generate.
"""

from .corr import (DeviationError, DeviationVector, NotReversalProduct, SubsetProfile,
                   eps_to_perm, eps_to_subset, perm_to_eps, perm_to_subset,
                   reversal_cuts, subset_to_eps, subset_to_perm, validate_eps)
from .delta import DeltaProfile, delta_profile
from .green import (GreenDecomposition, GreenIdentityReport, GreenIdentityViolation,
                    check_green_identities, decompose)
from .groupengine import (GroupReport, diagonal_embed, generator_census, group_generators,
                          phi_image, residue_blocks, verify_wreath)
from .jordan import (FastPathResult, JordanResult, Partition, deviation, jordan_result,
                     lambda_of, pi_fast_path, pi_of)
from .oracle import (DEFAULT_CAP, DimensionCapExceeded, nilpotent_mu, oracle_lambda,
                     oracle_nilpotent)
from .parith import (PPartDecomposition, ensure_prime, is_prime, p_adic_valuation,
                     p_parts, p_power_at_least)
from .perm import (CycleParseError, Permutation, compose, conjugate, embed,
                   format_cycles, identity, parse_cycles, rev, transposition)
from .standardness import (EquivalenceViolation, StandardnessReport, equivalence_report,
                           standard_triple)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
