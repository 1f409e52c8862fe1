"""Exception types shared across the library."""


class StablesetError(Exception):
    """Base class for all library errors."""


class EmptyGround(StablesetError):
    """An operation received an empty carrier set."""


class PosetViolation(StablesetError):
    """A relation given as a partial order failed a poset axiom."""


class LimitExceeded(StablesetError):
    """A size-bounded construction was requested above its ceiling."""


def check_size(n: int, limit: int, what: str, counted: str = "n") -> None:
    """The one size guard: raise `LimitExceeded` when n > limit; `counted`
    names the size in the message."""
    if n > limit:
        raise LimitExceeded(f"{counted}={n} exceeds {what} ceiling {limit}")


class ParseError(StablesetError):
    """Malformed instance document."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class LoopEdge(ParseError):
    """An instance document contained a reflexive edge."""

    def __init__(self, index: int, line: int | None = None):
        super().__init__(f"loop edge at alternative {index}", line=line)
        self.index = index
