"""The public surface: ``heartlab.__all__`` and the README's library example."""

import ast
import re
from pathlib import Path

import heartlab

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "AuditReport", "CycleType", "EndoAlgebra", "FieldElement", "FieldSpec", "GModuleRep",
    "GroupId", "IntPolynomial", "ModMatrix", "PermGroup", "Permutation", "ProbeReport",
    "ProjPoint", "Subspace", "alternating", "audit", "build_group", "canonicalize", "charpoly",
    "check_unbounded", "compose", "cycle_type", "cycle_type_mod_p", "cyclic",
    "cyclotomic_obstruction", "dihedral", "endomorphism_algebra", "from_cycles", "genus_of",
    "group_cycle_types", "heart", "identity", "is_indecomposable", "is_irreducible", "kernel",
    "make_field", "mathieu", "min_projective_degree_bound", "parse_group_spec", "parse_poly",
    "pgl", "probe", "projective_points", "psl", "spin", "symmetric",
]


def test_all_is_pinned():
    assert sorted(heartlab.__all__) == PUBLIC_NAMES
    assert all(hasattr(heartlab, name) for name in PUBLIC_NAMES)


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace: dict = {}
    exec(block, namespace)
    # each `expression  # value` line states the value the expression has
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        stated = re.match(r'\s*(\d+|"[^"]*")(,|$)', comment)
        if stated:
            assert eval(code, namespace) == ast.literal_eval(stated.group(1)), line
            checked += 1
    assert checked == 4
