"""Error types shared across the library.

Every error carries a structured payload so callers (the CLI in
particular) can emit machine-readable diagnostics. Exit-code policy:
input/shape problems exit 2, scope and size limits exit 3, and errors
that carry a computed mathematical witness exit 4.
"""


class LibraryError(Exception):
    exit_code = 2

    def __init__(self, message, **payload):
        super().__init__(message)
        self.payload = payload

    def to_json(self):
        out = {"error": type(self).__name__, "message": str(self)}
        out.update(self.payload)
        return out


class SpecError(LibraryError):
    """Malformed or unsupported input."""

    exit_code = 2


class ScopeError(LibraryError):
    """The request is valid but exceeds the supported scope or size."""

    exit_code = 3


class WitnessError(LibraryError):
    """A mathematical property failed; the payload names a witness."""

    exit_code = 4


class NotAssociative(SpecError):
    pass


class NotLatinSquare(SpecError):
    pass


class NoIdentity(SpecError):
    pass


class NoInverse(SpecError):
    pass


class UnsupportedParameter(SpecError):
    pass


class GroupMismatch(SpecError):
    pass


class UnsupportedSubgroup(SpecError):
    pass


class GroupTooLarge(ScopeError):
    pass


class ScopeExceeded(ScopeError):
    pass


class NotSupportedForScope(ScopeError):
    pass


class NotAHomomorphism(WitnessError):
    pass


class NotComposable(WitnessError):
    pass


class NotADerivation(WitnessError):
    pass


class NotCentralElement(WitnessError):
    pass


class NotAHomomorphismToC(WitnessError):
    pass
