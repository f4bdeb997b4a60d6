"""Exception hierarchy shared by all ergolab modules."""


class ErgolabError(Exception):
    """Base class for all errors raised by ergolab."""


class InvalidInputError(ErgolabError):
    """Non-finite or otherwise malformed numerical input."""


class IncompatibleGridsError(ErgolabError):
    """Two grid functions do not share a grid/measure."""


class DomainError(ErgolabError):
    """A point lies outside the map's domain."""


class DegenerateMeasureError(ErgolabError):
    """A measure density vanishes where the transfer operator needs it."""


class NumericalEscapeError(ErgolabError):
    """An orbit left the domain by more than the clamping tolerance."""


class ConfigurationError(ErgolabError):
    """Unsupported map/observable name or invalid parameter."""


class ConvergenceError(ErgolabError):
    """An iterative procedure hit its iteration cap without converging."""


class PreconditionError(ErgolabError):
    """A documented operation precondition was violated."""


class FitError(ErgolabError):
    """A log-log rate fit was requested on invalid data."""


class ParameterError(ErgolabError):
    """A statistical reference law got an invalid parameter."""


class EnsembleRunError(ErgolabError):
    """Too many samples were dropped during an ensemble run."""
