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
errors      the three refusals the CLI maps to exit codes
cli         command-line interface; each command imports the modules it runs
"""

import os

# numpy's OpenBLAS starts a worker thread per CPU as it loads; on 2 vCPUs its
# spin cost each process 0.07-0.12 s of CPU time, and as much wall time when no
# vCPU was free.  maassforge's products are small; set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
