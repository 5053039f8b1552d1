"""heartlab: permutation groups, mod-2 heart modules, and certified audits.

The toolkit constructs the permutation groups behind the certified families
(Mathieu groups, PSL/PGL on projective points, symmetric/alternating),
computes their mod-2 hearts with endomorphism rings and (ir)reducibility or
indecomposability status, audits the certification hypotheses to emit
citation-backed "End(J(C_f)) = Z" verdicts, and probes integer polynomials
through Frobenius cycle types.
"""

__version__ = "0.1.0"

from .audit import (
    AuditReport,
    audit,
    check_unbounded,
    cyclotomic_obstruction,
    genus_of,
    min_projective_degree_bound,
)
from .fields import FieldSpec, make_field, projective_points
from .linalg import ModMatrix, Subspace, charpoly, kernel, spin
from .perms import CycleType, PermGroup, Permutation, compose, cycle_type, from_cycles, identity
from .probe import IntPolynomial, ProbeReport, cycle_type_mod_p, group_cycle_types, parse_poly, probe
from .reps import (
    EndoAlgebra,
    GModuleRep,
    endomorphism_algebra,
    heart,
    is_indecomposable,
    is_irreducible,
)
from .zoo import (
    GroupId,
    alternating,
    build_group,
    cyclic,
    dihedral,
    mathieu,
    parse_group_spec,
    pgl,
    psl,
    symmetric,
)

__all__ = [
    "AuditReport", "audit", "check_unbounded", "cyclotomic_obstruction", "genus_of",
    "min_projective_degree_bound",
    "FieldSpec", "make_field", "projective_points",
    "ModMatrix", "Subspace", "charpoly", "kernel", "spin",
    "CycleType", "PermGroup", "Permutation", "compose", "cycle_type", "from_cycles", "identity",
    "IntPolynomial", "ProbeReport", "cycle_type_mod_p", "group_cycle_types", "parse_poly", "probe",
    "EndoAlgebra", "GModuleRep", "endomorphism_algebra", "heart", "is_indecomposable",
    "is_irreducible",
    "GroupId", "alternating", "build_group", "cyclic", "dihedral", "mathieu",
    "parse_group_spec", "pgl", "psl", "symmetric",
]
