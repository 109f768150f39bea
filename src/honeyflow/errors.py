"""Exception types shared across the package."""


class HoneyflowError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HoneyflowError):
    """A game spec or input violates a structural invariant."""


class ShapeError(HoneyflowError):
    """A strategy vector does not match the game's honey-flow bounds."""


class SolverError(HoneyflowError):
    """A solver failed in a way that indicates a bug, not a game property."""


class EmptyActionSet(HoneyflowError):
    """No attackable vulnerability type exists."""


class TopologyError(HoneyflowError):
    """A network topology violates node-count or connectivity requirements."""


class ConfigError(HoneyflowError):
    """A flow or experiment configuration cannot be satisfied."""


class EmptyObservation(HoneyflowError):
    """An attack was requested on a type with no observed flows."""
