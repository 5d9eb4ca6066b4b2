"""Maass cusp forms attached to class characters of real quadratic fields.

Submodules
----------
quadfield   real quadratic fields, ideals in Hermite normal form, prime splitting
classforms  indefinite binary quadratic forms, class groups, fundamental units
heckechar   class-group Hecke characters and Gauss sums
special     K_0 and its incomplete Mellin transform (the AFE weights)
maassform   the theta cusp form: coefficients, evaluation, verification checks
lseries     Hecke and Rankin-Selberg Dirichlet series, L(1) evaluation
petersson   closed-form Petersson norm assembly
cli         command-line interface
"""

__version__ = "0.1.0"
