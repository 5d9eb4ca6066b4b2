"""The three refusals the CLI maps to exit codes.

Each is raised where its limit is known, and cli.main alone turns it into
one "error:" line and an exit code.  This module imports nothing, so that
the CLI can name them before it loads numpy or any other module of the
package.
"""


class SplitPointError(ArithmeticError):
    """Two routes to L(1) disagree: the approximate functional equation at two
    split points, or it and the reduced cycles.  The CLI exits 1."""


class InvalidInputError(ValueError):
    """The input names nothing that maassforge computes: the CLI exits 2."""


class BudgetError(ValueError):
    """The request is over a stated resource budget: the CLI exits 3."""
