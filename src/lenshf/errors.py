"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside an operation's documented domain."""


class NotInvertibleError(DomainError):
    """A modular inverse was requested for a residue that has none."""


class ResourceError(RuntimeError):
    """A search or effort cap was exhausted before success."""


class IntegrityError(RuntimeError):
    """An internal consistency check failed, e.g. a modulus believed prime
    behaved compositely, or a constructed witness did not certify."""
