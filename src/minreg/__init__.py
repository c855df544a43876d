"""Minimal Castelnuovo-Mumford regularity for schemes with a given
Hilbert polynomial, with strongly stable witness ideals.

The central objects are admissible Hilbert polynomials, Hilbert functions
written as a finite prefix plus a polynomial tail, strongly stable
monomial ideals, and verified witness certificates.  The regularity
module answers "how small can the regularity be" (globally, at a fixed
function regularity, for a fixed function, inside a fixed projective
space) and the constructions module produces ideals achieving it.
"""

from .borel import StronglyStableIdeal
from .constructions import (VerificationReport, WitnessCertificate,
                            certificate_from_dict, verify_witness,
                            witness_min_reg)
from .errors import (AmbientTooSmall, DomainError, EmptyClass, InputError,
                     InternalInconsistency, LinearVariety, MinregError,
                     NegativeDerivative, NotAdmissible, NotSchemeHF,
                     ParseError, RhoTooSmall, TooManyDigits,
                     VerificationFailure)
from .functions import (HilbertFunction, is_admissible_function,
                        is_scheme_function, min_function_regularity,
                        min_scheme_regularity, minimal_function,
                        minimal_function_exact, minimal_scheme_function,
                        parse_hilbert_function)
from .polynomials import (AdmissiblePolynomial, parse_polynomial,
                          polynomial_from_coefficients)
from .regularity import (RegularityReport, min_regularity, min_regularity_at,
                         min_regularity_in_space, min_regularity_of_function)

__version__ = "0.1.0"

__all__ = [
    "AdmissiblePolynomial",
    "AmbientTooSmall",
    "DomainError",
    "EmptyClass",
    "HilbertFunction",
    "InputError",
    "InternalInconsistency",
    "LinearVariety",
    "MinregError",
    "NegativeDerivative",
    "NotAdmissible",
    "NotSchemeHF",
    "ParseError",
    "RegularityReport",
    "RhoTooSmall",
    "StronglyStableIdeal",
    "TooManyDigits",
    "VerificationFailure",
    "VerificationReport",
    "WitnessCertificate",
    "certificate_from_dict",
    "is_admissible_function",
    "is_scheme_function",
    "min_function_regularity",
    "min_regularity",
    "min_regularity_at",
    "min_regularity_in_space",
    "min_regularity_of_function",
    "min_scheme_regularity",
    "minimal_function",
    "minimal_function_exact",
    "minimal_scheme_function",
    "parse_hilbert_function",
    "parse_polynomial",
    "polynomial_from_coefficients",
    "verify_witness",
    "witness_min_reg",
]
