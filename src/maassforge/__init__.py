"""Maass cusp forms attached to class characters of real quadratic fields.

Submodules
----------
quadfield   real quadratic fields, ideals in Hermite normal form, prime splitting
classforms  indefinite binary quadratic forms, class groups, fundamental units
heckechar   class-group Hecke characters and Gauss sums
special     K_0 and its incomplete Mellin transform (the AFE weights)
maassform   the theta cusp form: coefficients, evaluation, verification checks
lseries     the Hecke L-series coefficient table, L(1) by two routes
petersson   closed-form Petersson norm assembly
cli         command-line interface; each command imports the modules it runs

The three refusals cli.main maps to exit codes live here, in the file every
process loads first, which imports os alone: the CLI names them before numpy.
"""

import os

# numpy's OpenBLAS starts a worker thread per CPU as it loads; on 2 vCPUs its
# spin cost each process 0.07-0.12 s of CPU time, and as much wall time when no
# vCPU was free.  maassforge's products are small; set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"


class SplitPointError(ArithmeticError):
    """Two routes to L(1) disagree: the approximate functional equation at two
    split points, or it and the reduced cycles.  The CLI exits 1."""


class InvalidInputError(ValueError):
    """The input names nothing that maassforge computes: the CLI exits 2."""


class BudgetError(ValueError):
    """The request is over a stated resource budget: the CLI exits 3."""
