"""Exception taxonomy for the minreg package.

Every error raised on purpose derives from MinregError.  InputError covers
malformed input (CLI exit code 2): polynomial or function text, and a
certificate document of the wrong shape.  DomainError covers structurally
valid input that falls outside an operation's domain (CLI exit code 1).
No error stands for an ideal that is not minimal or not strongly stable:
ideals are trusted records, and a certificate's ideal is judged by
verify_witness, whose failed checks are a report, not an exception.
InternalInconsistency and VerificationFailure signal bugs: a theorem the
code relies on failed to hold at runtime, or an independently re-checked
certificate did not validate.  They are never caught and converted, and
the CLI reports them with exit code 3, as it does any other exception.
"""


class MinregError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class InputError(MinregError):
    """Malformed input text (polynomial, Hilbert function, ideal JSON)."""

    exit_code = 2


class ParseError(InputError):
    """Input string does not match the expected grammar."""


class DomainError(MinregError):
    """Structurally valid input outside the operation's domain."""

    exit_code = 1


class NotAdmissible(DomainError):
    """Polynomial is not the Hilbert polynomial of any subscheme, or an
    integer sequence violates Macaulay growth."""


class LinearVariety(DomainError):
    """Hilbert polynomial of a linear variety (Gotzmann number below 2):
    regularity questions are trivial and outside scope."""


class NegativeDerivative(DomainError):
    """A difference function takes a negative value."""


class RhoTooSmall(DomainError):
    """Requested regularity is below the minimum for this Hilbert polynomial."""


class EmptyClass(DomainError):
    """No scheme with the given Hilbert polynomial and regularity exists."""


class NotSchemeHF(DomainError):
    """Function is not the Hilbert function of any subscheme."""


class AmbientTooSmall(DomainError):
    """No subscheme of the given projective space has this Hilbert polynomial."""


class TooManyDigits(DomainError):
    """An answer has more decimal digits than Python converts to text
    (sys.get_int_max_str_digits)."""


class VerificationFailure(MinregError):
    """The witness builder's certificate failed verify_witness, the
    independent check that it runs on its result."""

    exit_code = 3


class InternalInconsistency(MinregError):
    """A structural fact the algorithms rely on failed to hold at runtime."""

    exit_code = 3
