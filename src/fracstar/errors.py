"""Exception types and the validated-record decorator shared across the package."""


class CoefficientError(ValueError):
    """A diffusion or reaction coefficient violates its positivity bound."""


class SolverFailure(RuntimeError):
    """A linear solve produced NaN/Inf or a singular system."""


class SizeGuardError(ValueError):
    """A brute-force oracle was asked to exceed its hard size limit."""


class ConfigError(ValueError):
    """A problem-description file is invalid.

    Carries the full list of violations, not just the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def checked(base: type) -> type:
    """The ``NamedTuple`` class ``base`` as a validated record: a thin subclass
    under its name whose ``__new__`` runs ``base._check`` on every record
    built, by ``_make`` and so by ``_replace`` too.  ``_check`` raises on bad
    input, or returns a record to use in place of the one given."""

    def __new__(cls, *args, **kwargs):
        record = base.__new__(cls, *args, **kwargs)
        return record._check() or record

    __new__.__wrapped__ = base.__new__  # inspect.signature shows the fields

    def _make(cls, iterable):
        return cls(*iterable)

    body = {"__slots__": (), "__doc__": base.__doc__, "__module__": base.__module__}
    return type(base.__name__, (base,), {**body, "__new__": __new__, "_make": classmethod(_make)})
