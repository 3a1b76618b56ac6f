"""Exception types shared across the package."""


class RaceError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(RaceError):
    """Scenario configuration is malformed or violates the schema."""


class CollisionError(RaceError):
    """A platoon step produced a non-positive inter-vehicle gap."""


class InfeasibleError(RaceError):
    """A resource-allocation instance admits no feasible point."""


class ConvergenceError(RaceError):
    """An iterative solver hit its iteration cap before converging."""


class AssignmentError(RaceError):
    """A round's selection is not one integer per agent, each -1 (idle)
    or a distinct device index whose mask entry is > 0."""


class AggregationError(RaceError):
    """Model aggregation was requested over an empty selection."""


class CheckpointError(RaceError):
    """A parameter checkpoint file is missing, corrupt, or incompatible."""
