"""The oracles stay independent of the routes they check.

tests/oracles.py holds one reference per quantity, each sharing no code with
the route maassforge takes to it.  An earlier implementation kept there to be
compared with bit for bit checks the refactor that replaced it, not the
mathematics, so the module may define only the names below, and may import
no private name of maassforge.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).parent / "oracles.py"

# every name oracles.py defines, by the quantity it is a reference for
REFERENCES = {
    "chi_D(n)": {"kronecker"},
    "prime ideals and ideals": {"tonelli_shanks", "prime_roots", "split_prime", "enumerate_ideals"},
    "ideal counts": {"ideal_count"},
    "class group": {"IndefiniteForm", "ideal_to_form", "scalar_cycles"},
    "character values on ideals": {"dlog", "exponent"},
    "a'(n) per class": {"SIEVE_CHUNK", "ReferenceCountTable", "row"},
    "the support of a'(n)": {"exact_zeros", "_vanishing", "_cyclotomic", "cancelling_rows"},
    "a'(n) as numbers": {"dense_coefficients"},
    "Hecke relations": {"prime_power_vector", "convolve", "hecke_recursion_residual", "multiplicativity_failures"},
    "Euler products": {"coefficients", "_prime_values", "euler_factor"},
    "Rankin-Selberg": {
        "rankin_coeffs", "rankin_local_factor", "rankin_residue", "_rankin_partials",
        "rankin_euler_identity_residual", "rankin_euler_identity_residual_corrected",
    },
    "principal and conjugate ideals": {"principal_ideal", "ideal_conj"},
    "sign exponent": {"epsilon_by_ideal"},
    "norm-induced characters": {"is_norm_induced"},
    "Gauss sums": {"check_gauss_twisting"},
    "printed floats": {"report_floats"},
}


def _tree() -> ast.Module:
    return ast.parse(ORACLES.read_text())


def test_oracles_define_only_references():
    tree = _tree()
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert defined == set().union(*REFERENCES.values())
    # and the module docstring names each public one beside its quantity
    doc = ast.get_docstring(tree)
    assert [name for name in sorted(defined) if not name.startswith("_") and name not in doc] == []


def test_oracles_import_no_private_name_of_the_library():
    tree = _tree()
    private, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "maassforge":
            private += [a.name for a in node.names if a.name.startswith("_")]
            if node.module == "maassforge":  # submodules, as names
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names if a.name.startswith("maassforge"))
    assert private == []
    # nor reach one through a module: special._hermite_sum, say
    reached = [
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and _root(node.value) in modules
    ]
    assert reached == []


def _root(node: ast.expr) -> str | None:
    """The name an attribute chain such as maassforge.lseries starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None
