"""The witness builder.

witness_min_reg takes a descent report of the regularity module, which
carries a Hilbert function u and the least regularity m among all
subschemes with that function, and builds a saturated strongly stable
ideal whose quotient has function u and regularity m.  The paper
reaches that ideal step by step, by term removals, expanded liftings
and ideal grafts; each lifting keeps the ghl slice of its target at its
working degree, so the witness is one borel.ghl_ideal call on u at
degree m, read off class sizes.  The tests keep the stepwise route as
the reference it must agree with.  The certificate is verified as it
leaves, by verify.verify_witness, which `minreg verify` runs too.
"""

from __future__ import annotations

from .borel import ghl_ideal
from .errors import VerificationFailure
from .functions import HilbertFunction
from .verify import WitnessCertificate, verify_witness


def witness_min_reg(descent) -> WitnessCertificate:
    """A verified ideal whose quotient has the descent's Hilbert function u
    and the least regularity m among all subschemes with that function.

    The descent (a regularity.RegularityReport, from any of its four
    queries) gives u and m.  The paper reaches m by expanded liftings
    down the derivative tower, and each lifting's output is the ghl slice
    of its target at its working degree: the tail fixes the growth
    classes and the function the height classes.  So the witness is
    ghl_ideal(u, m, u(1)), built in one step, and verified once, as it
    leaves.  A HilbertFunction in its place is a TypeError."""
    if isinstance(descent, HilbertFunction):
        raise TypeError("witness_min_reg takes a RegularityReport, such as"
                        " min_regularity_of_function(u), not the"
                        " HilbertFunction %s" % descent)
    u, m = descent.function, descent.regularity
    nvars = u(1)
    log = tuple("descent at %s: rho_used %d, rho_fit %s, regularity %d"
                % (row.polynomial, row.rho_used,
                   "-" if row.rho_fit is None else row.rho_fit,
                   row.regularity)
                for row in descent.rows)
    log += ("ghl slice of degree %d in %d variables" % (m, nvars),)
    certificate = WitnessCertificate(ghl_ideal(u, m, nvars), u, m, log)
    report = verify_witness(certificate)
    if not report:
        raise VerificationFailure(
            "certificate for %s at regularity %d failed verification: %s"
            % (u, m, report))
    return certificate
