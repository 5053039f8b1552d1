"""The public surface: ``heartlab.__all__``, the README's library example,
the caches a command starts with, and the functions the benchmark traces."""

import ast
import functools
import importlib
import importlib.util
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import heartlab
from heartlab import fields, zoo

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PUBLIC_NAMES = [
    "AuditReport", "CycleType", "EndoAlgebra", "FieldSpec", "GModuleRep",
    "GroupId", "IntPolynomial", "ModMatrix", "PermGroup", "Permutation", "ProbeReport",
    "Subspace", "alternating", "audit", "build_group", "charpoly",
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


class TestColdStart:
    """A command starts cold once ``zoo.build_group`` and ``fields.make_field``
    are cleared, as the benchmark clears them before each command: those are
    the only function caches, and every other cached value hangs off a
    ``FieldSpec`` that ``make_field`` returns."""

    def test_only_two_function_caches(self):
        function_caches, property_caches = set(), set()
        for info in pkgutil.iter_modules(heartlab.__path__):
            module = importlib.import_module(f"heartlab.{info.name}")
            for name, value in vars(module).items():
                if hasattr(value, "cache_clear"):  # wherever it is imported
                    function_caches.add(f"{value.__module__}.{value.__qualname__}")
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    for attr, member in vars(value).items():
                        if isinstance(member, functools.cached_property):
                            property_caches.add(f"{info.name}.{name}.{attr}")
        assert function_caches == {"heartlab.zoo.build_group", "heartlab.fields.make_field"}
        assert property_caches == {
            "fields.FieldSpec.primitive", "fields.FieldSpec.exp", "fields.FieldSpec.log",
        }

    def test_tables_go_with_make_field(self):
        field = fields.make_field(2, 8)
        assert field.mul(2, field.inv(2)) == 1
        assert "exp" in vars(field)
        fields.make_field.cache_clear()
        fresh = fields.make_field(2, 8)
        assert fresh is not field
        assert not {"primitive", "exp", "log"} & set(vars(fresh))

    def test_import_builds_nothing(self):
        code = (
            "import heartlab, heartlab.cli\n"
            "from heartlab import fields, zoo\n"
            "print(fields.make_field.cache_info().currsize, zoo.build_group.cache_info().currsize)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={"PYTHONPATH": str(Path(zoo.__file__).parents[1])})
        assert out.stdout.split() == ["0", "0"]


def test_every_trace_hook_finds_its_target():
    # perfbench/tracing.py wraps functions by name; a renamed one would drop
    # out of its per-layer metric with no error, so none may be missing
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
        kernel = heartlab.linalg.kernel
        with tracing.installed(tracing.Tracer()) as missing:
            assert missing == []
            assert heartlab.linalg.kernel is not kernel
        assert heartlab.linalg.kernel is kernel
    finally:
        del sys.modules[spec.name]
