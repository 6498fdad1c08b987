"""Exception types shared across the package."""


class RadiolabError(Exception):
    """Base class for all radiolab errors."""


class IndexOutOfRange(RadiolabError):
    pass


class DuplicateEdge(RadiolabError):
    pass


class SelfLoop(RadiolabError):
    pass


class Disconnected(RadiolabError):
    pass


class NotPerfectEvenSquare(RadiolabError):
    pass


class InvalidParams(RadiolabError):
    pass


class RoundLimitExceeded(RadiolabError):
    pass


class MalformedCodeword(RadiolabError):
    pass


class Undominatable(RadiolabError):
    pass


class MessageTooLong(RadiolabError):
    pass


class ProtocolViolation(RadiolabError):
    pass


class TooShallow(RadiolabError):
    pass


class WitnessNotFound(RadiolabError):
    pass


class EmptySourceSet(RadiolabError):
    pass


class InconsistentReports(RadiolabError):
    pass


class ConflictingPaths(RadiolabError):
    pass


class BarrierExceeded(RadiolabError):
    pass
