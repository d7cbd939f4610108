"""Shared exception types."""


class UnsupportedCaseError(ValueError):
    """Raised when an operation does not apply to the given Galois case."""


class SizeLimitError(ValueError):
    """Raised when an exponential-size computation exceeds the desk-scale cap."""


class ProfileMembershipError(ValueError):
    """Raised when a weight profile is outside the parameter set an operation needs."""
