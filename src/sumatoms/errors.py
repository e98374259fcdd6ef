"""Exception types shared across the package.

The CLI maps these onto exit codes, so raising the right class matters:
input problems (parse/validation/size) are distinct from mathematical
preconditions (separability, generation) and from verification failures.
"""


class SumatomsError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SumatomsError):
    """Malformed input document (group table or subset literal)."""


class ValidationError(SumatomsError):
    """A group axiom or structural invariant is violated."""


class SizeCapError(SumatomsError):
    """Requested object exceeds a configured size cap."""


class GroupMismatchError(SumatomsError):
    """Operands belong to different groups."""


class PreconditionError(SumatomsError):
    """An operation's mathematical precondition does not hold."""


class NotSeparableError(PreconditionError):
    """The set admits no subset with the required interior and remainder."""


class NotGeneratingError(PreconditionError):
    """The set does not generate the ambient group."""


class OracleCapError(SizeCapError):
    """Group too large for the exhaustive oracle."""


class EngineMismatchError(SumatomsError):
    """Two independent engines computed different values for one quantity."""


class GraphError(SumatomsError):
    """Base class for digraph-specific errors."""


class DisconnectedGraphError(GraphError):
    """The digraph is not strongly connected."""


class GraphTooLargeError(GraphError, SizeCapError):
    """Exact cut computation infeasible at this vertex count."""
