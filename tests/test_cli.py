"""CLI exit codes, JSON schema validity, and byte stability."""

import argparse
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from heartlab import cli, perms, zoo
from heartlab.perms import ChainOrderError, ClosureLimitError, PermGroup
from support import chain_evidence

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text()
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    document = json.loads(out)
    jsonschema.validate(document, SCHEMA)
    return code, document, err


class TestExitCodes:
    def test_audit_certified_exit_zero(self, capsys):
        code, doc, _ = run_json(capsys, "audit", "M23")
        assert code == 0
        assert doc["payload"]["verdict"] == "certified"

    def test_audit_excluded_exit_two(self, capsys):
        code, doc, _ = run_json(capsys, "audit", "PSL(4,2)")
        assert code == 2
        assert doc["payload"]["verdict"] == "excluded"

    def test_audit_inconclusive_exit_three(self, capsys):
        code, doc, _ = run_json(capsys, "audit", "PSL(2,5)")
        assert code == 3
        assert doc["payload"]["verdict"] == "inconclusive"

    def test_audit_usage_error_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "audit", "S4")
        assert code == 1
        assert out == ""
        assert "degree 4 < 5" in err

    def test_unknown_group_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "audit", "Q17")
        assert code == 1
        assert "cannot parse" in err

    def test_probe_parse_error_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "probe", "x^2+)")
        assert code == 1
        assert "parenthes" in err

    def test_probe_degree_mismatch_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "probe", "x^4+1", "--candidates", "S5")
        assert code == 1
        assert "deg f" in err

    @pytest.mark.parametrize("option,value", [("--primes", "0"), ("--primes", "-3"),
                                              ("--budget", "0"), ("--budget", "-1")])
    def test_probe_non_positive_count_exit_one(self, capsys, option, value):
        # rejected whatever the candidates: none are given here
        code, out, err = run_cli(capsys, "probe", "x^5-x-1", option, value)
        assert code == 1
        assert out == ""
        assert err == f"error: {option} must be positive, got {value}\n"

    @pytest.mark.parametrize("name", ["PSL(2,10000000000000061)", "PSL(2,1000000000000000003)",
                                      "PSL(100000000,2)"])
    def test_huge_projective_parameters_fail_fast(self, capsys, name):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "audit", name)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "exceeds the supported scale q^m <= 1e5" in err

    def test_missing_subcommand_exit_one(self, capsys):
        assert run_cli(capsys, )[0] == 1

    @pytest.mark.parametrize(
        "error",
        [AssertionError("witness subspace is not invariant"),
         ChainOrderError("chain order 60 exceeds the given order 30")],
    )
    def test_internal_check_failure_exit_four(self, capsys, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "is_irreducible", failing)
        code, out, err = run_cli(capsys, "heart", "M11", "--meataxe")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == f"error: internal check failed: {error}\n"


    def test_closure_limit_exit_four(self, capsys, monkeypatch):
        def failing(self):
            raise ClosureLimitError(f"closure exceeds limit {perms.CLOSURE_LIMIT}")

        # PSL(2,4) acts on 5 points and still enumerates; A5 has a closed form
        monkeypatch.setattr(PermGroup, "enumerate_elements", failing)
        code, out, err = run_cli(capsys, "probe", "x^5-x-1", "--candidates", "PSL(2,4)")
        assert code == 4
        assert out == ""
        assert err == "error: internal check failed: closure exceeds limit 1000000\n"

    def test_wrong_zoo_order_exit_four(self, capsys, monkeypatch):
        # a formula order above the true order: the known-order chain runs
        # out of draws and must not hand back an incomplete chain
        monkeypatch.setitem(zoo.MATHIEU_ORDERS, 11, 2 * 7920)
        zoo.build_group.cache_clear()
        try:
            code, out, err = run_cli(capsys, "audit", "M11")
        finally:
            zoo.build_group.cache_clear()
        assert code == 4
        assert out == ""
        assert err == (
            "error: internal check failed: chain order 7920 is still below the given "
            "order 15840 after 1000 sampled elements\n"
        )

    def test_wrong_alternating_generators_exit_four(self, capsys, monkeypatch):
        # odd generators offered as A_7: the Jordan certificate refuses them
        monkeypatch.setattr(zoo, "alternating_generators", zoo.symmetric_generators)
        code, out, err = run_cli(capsys, "audit", "A7")
        assert code == 4
        assert out == ""
        assert err == "error: internal check failed: the generators generate Sym(7), not Alt(7)\n"

    @pytest.mark.parametrize(
        "function,argv",
        [("audit", ["audit", "PSL(8,4)"]),
         ("build_group", ["heart", "PSL(6,5)", "--endo"]),
         ("probe", ["probe", "x^5-x-1", "--primes", "10"])],
    )
    def test_out_of_memory_exit_one(self, capsys, monkeypatch, function, argv):
        # the first library call raises as a failed allocation would, so
        # nothing large is built
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, function, exhausted)
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_USAGE == 1
        assert out == ""
        assert err == f"error: out of memory: {' '.join(argv)}\n"

    @pytest.mark.parametrize("name", ["S100001", "A100001", "S1000000"])
    def test_huge_symmetric_degree_fails_fast(self, capsys, name):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "audit", name)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "exceeds the supported scale n <= 1e5" in err

    def test_huge_cyclic_degree_still_answers(self, capsys):
        # cyclic and dihedral audits build nothing, so they keep no bound
        code, doc, _ = run_json(capsys, "audit", "C200000")
        assert code == 3
        assert doc["payload"]["verdict"] == "inconclusive"


# Runs one ``heartlab`` command (argv[2:]) in a child process whose address
# space is capped at argv[1] MB, so a regression fails with MemoryError (exit
# 1) instead of growing the machine, and reports its exit code, wall time,
# output and peak RSS.  The cap is set on the child only, and the child is
# this wrapper's only child, so RUSAGE_CHILDREN reads its peak alone.
CAPPED_WRAPPER = """
import json, resource, subprocess, sys, time
cap = int(sys.argv[1]) * 2**20
start = time.perf_counter()
done = subprocess.run([sys.executable, "-m", "heartlab.cli", *sys.argv[2:]],
                      capture_output=True, text=True,
                      preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
print(json.dumps({
    "code": done.returncode, "seconds": time.perf_counter() - start,
    "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    "stdout": done.stdout,
}))
"""


# far above every command run capped here, far below what the machine holds
CHILD_CAP_MB = 1024


def run_capped(*argv):
    """One CLI command in a child process capped at ``CHILD_CAP_MB`` of
    address space: its exit code, wall time (interpreter start included),
    stdout and peak RSS."""
    env = {**os.environ, "PYTHONPATH": str(Path(zoo.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", CAPPED_WRAPPER, str(CHILD_CAP_MB), *argv],
                          capture_output=True, text=True, check=True, env=env)
    return json.loads(done.stdout)


class TestJordanAudits:
    """A_n and S_n audits take their evidence from the Jordan certificate and
    build no stabilizer chain."""

    @pytest.mark.parametrize("argv", [
        (f"{letter}{n}",) for letter in "AS" for n in range(5, 101)
    ] + [
        (f"{letter}{n}", "--deep") for letter in "AS" for n in range(5, 13)
    ])
    def test_payload_matches_the_chain_oracle(self, capsys, monkeypatch, argv):
        certified = run_cli(capsys, "audit", *argv)
        monkeypatch.setattr(importlib.import_module("heartlab.audit"), "_jordan_evidence",
                            chain_evidence)
        assert run_cli(capsys, "audit", *argv) == certified
        assert certified[0] == 0

    def test_no_chain_is_built(self, capsys, monkeypatch):
        class ChainBuilt(Exception):
            pass

        def refuse(self, group):
            raise ChainBuilt

        monkeypatch.setattr(perms._StabilizerChain, "__init__", refuse)
        zoo.build_group.cache_clear()  # no cached group may bring its chain
        try:
            for name in ("A7", "S8", "S9", "A10", "A30", "A40"):
                code, doc, _ = run_json(capsys, "audit", name)
                assert (code, doc["payload"]["verdict"]) == (0, "certified")
            # the heart reads the generators only, so --deep builds no chain
            code, doc, _ = run_json(capsys, "audit", "A7", "--deep")
            assert (code, doc["payload"]["verdict"]) == (0, "certified")
            evidence = doc["payload"]["evidence"]
            assert (evidence["irreducibility"], evidence["indecomposability"]) == (
                "irreducible", "indecomposable"
            )
        finally:
            zoo.build_group.cache_clear()

    @pytest.mark.parametrize("name", ["S100000", "A99999"])
    def test_largest_degrees_in_a_second_and_100_mb(self, name):
        report = run_capped("audit", name)
        assert report["code"] == 0
        assert json.loads(report["stdout"])["payload"]["verdict"] == "certified"
        assert report["seconds"] < 1
        assert report["rss_mb"] < 100

    def test_largest_symmetric_in_process(self, capsys):
        # the audit's own time, free of the child's interpreter start-up
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, "audit", "S100000")
        assert time.perf_counter() - start < 1
        assert (code, doc["payload"]["verdict"]) == (0, "certified")


class TestChainFrontier:
    """Branch-i PSL audits whose chain is nearly their whole cost: Schreier
    vectors keep it at O(N) cells a level (PSL(5,9) took 2.06 GB with
    inverse transversals, and PSL(8,4) ran out of memory)."""

    @pytest.mark.parametrize("name", ["PSL(5,9)", "PSL(8,4)"])
    def test_certified_under_150_mb(self, name):
        report = run_capped("audit", name)
        assert report["code"] == 0
        assert json.loads(report["stdout"])["payload"]["verdict"] == "certified"
        assert report["seconds"] < 30
        assert report["rss_mb"] < 150


class TestAuditCommand:
    def test_summary_on_stderr_json_on_stdout(self, capsys):
        code, out, err = run_cli(capsys, "audit", "M11")
        assert code == 0
        json.loads(out)
        assert "audit M11: certified" in err

    def test_citations_nonempty_for_audit(self, capsys):
        _, doc, _ = run_json(capsys, "audit", "M24")
        assert doc["citations"]
        assert doc["payload"]["citations"]

    def test_deep_flag(self, capsys):
        code, doc, _ = run_json(capsys, "audit", "M22", "--deep")
        assert code == 0
        assert doc["payload"]["evidence"]["irreducibility"] == "reducible"

    def test_psl45_branch_iii_computes_endo(self, capsys):
        # degree 156, heart dimension 154: End is solved, not implied
        code, doc, _ = run_json(capsys, "audit", "PSL(4,5)")
        assert code == 0
        payload = doc["payload"]
        assert payload["verdict"] == "certified"
        assert payload["condition_branch"] == "iii"
        assert payload["evidence"]["endo_source"] == "computed"
        assert payload["evidence"]["endo_dimension"] == 1


class TestHeartCommand:
    def test_m24_meataxe(self, capsys):
        code, doc, _ = run_json(capsys, "heart", "M24", "--meataxe")
        assert code == 0
        payload = doc["payload"]
        assert payload["heart_dimension"] == 22
        assert payload["irreducibility"]["status"] == "reducible"
        witness = payload["irreducibility"]["witness"]
        assert witness["ambient"] == 22
        assert len(witness["basis_rows_hex"]) == witness["dimension"]
        rows = [int(h, 16) for h in witness["basis_rows_hex"]]
        assert all(0 < r < 2**22 for r in rows)

    def test_psl33_endo(self, capsys):
        code, doc, _ = run_json(capsys, "heart", "PSL(3,3)", "--endo")
        assert code == 0
        assert doc["payload"]["heart_dimension"] == 12
        assert doc["payload"]["endo_dimension"] == 1

    def test_psl39_endo(self, capsys):
        code, doc, _ = run_json(capsys, "heart", "PSL(3,9)", "--endo")
        assert code == 0
        assert doc["payload"]["heart_dimension"] == 90
        assert doc["payload"]["endo_dimension"] == 1

    def test_a5_endo(self, capsys):
        code, doc, _ = run_json(capsys, "heart", "A5", "--endo")
        assert code == 0
        assert doc["payload"]["heart_dimension"] == 4
        assert doc["payload"]["endo_dimension"] == 1

    def test_indecomposable_flag(self, capsys):
        code, doc, _ = run_json(capsys, "heart", "M23", "--indecomposable")
        assert code == 0
        assert doc["payload"]["indecomposability"]["status"] == "indecomposable"


class TestProbeCommand:
    def test_single_polynomial(self, capsys):
        code, doc, _ = run_json(
            capsys, "probe", "x^2+1", "--primes", "10", "--candidates", "S2"
        )
        assert code == 0
        assert doc["payload"]["candidates"][0]["status"] == "consistent"

    def test_polynomial_file(self, capsys, tmp_path):
        source = tmp_path / "polys.txt"
        source.write_text("x^2+1\nx^2-2\n")
        code, doc, _ = run_json(capsys, "probe", "--file", str(source), "--primes", "8")
        assert code == 0
        assert len(doc["payload"]["reports"]) == 2

    def test_batch_computes_each_type_set_once(self, capsys, monkeypatch, tmp_path):
        probe_module = importlib.import_module("heartlab.probe")  # the package exports a probe()
        calls = []
        original = probe_module.group_cycle_types

        def counting(*args, **kwargs):
            calls.append(args[0].name())
            return original(*args, **kwargs)

        monkeypatch.setattr(probe_module, "group_cycle_types", counting)
        monkeypatch.setattr(cli, "group_cycle_types", counting)
        source = tmp_path / "polys.txt"
        source.write_text("x^7-x-1\nx^7-7*x+3\nx^7+x^3+1\n")
        digest = payload_digest(
            capsys, "probe", "--file", str(source), "--primes", "30", "--candidates", "A7,S7"
        )
        assert calls == ["A7", "S7"]
        # recorded when every polynomial of a batch still recomputed the sets
        assert digest == "ebaece3b77aa328728de7f7fd64c30ecf2693d0e67d297b505b4d41696ff6ed1"

    def test_projective_candidate(self, capsys):
        # candidates split only at commas outside parentheses
        code, doc, err = run_json(
            capsys, "probe", "x^7-x-1", "--primes", "30", "--candidates", "PSL(3,2),A7"
        )
        assert code == 0
        assert [(c["group"], c["status"]) for c in doc["payload"]["candidates"]] == [
            ("PSL(3,2)", "inconsistent"), ("A7", "inconsistent"),
        ]
        assert err == "probe over 30 primes: PSL(3,2)=inconsistent, A7=inconsistent\n"

    def test_m23_probe_runs(self, capsys):
        code, doc, _ = run_json(
            capsys, "probe", "x^23-1", "--primes", "6", "--candidates", "M23",
            "--budget", "100",
        )
        assert code == 0
        assert doc["payload"]["candidates"][0]["group"] == "M23"


class TestZooCommand:
    def test_zoo_lists_facts(self, capsys):
        code, doc, _ = run_json(capsys, "zoo")
        assert code == 0
        assert len(doc["payload"]["facts"]) == 10
        assert doc["citations"]


# help and usage errors, one per subcommand and at the top level
SURFACE_ARGVS = [
    [], ["-h"], ["frob"], ["audit"], ["audit", "-h"], ["audit", "M11", "--bogus"],
    ["heart", "-h"], ["probe", "-h"], ["zoo", "-h"],
]


class TestParser:
    """``main`` builds the parser of the invoked subcommand only; every other
    argument list gets all four, as ``build_parser()`` does."""

    @pytest.mark.parametrize("argv", SURFACE_ARGVS, ids=lambda argv: " ".join(argv) or "none")
    def test_same_output_as_the_full_parser(self, capsys, monkeypatch, argv):
        narrow = run_cli(capsys, *argv)
        full_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
        assert run_cli(capsys, *argv) == narrow
        assert narrow[1] or narrow[2]

    def test_one_subparser_for_a_command(self, capsys, monkeypatch):
        calls = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        code, _, _ = run_cli(capsys, "audit", "M11")
        assert code == 0
        assert calls == ["audit"]
        calls.clear()
        run_cli(capsys, "-h")
        assert calls == list(cli.SUBCOMMANDS)


class TestEnvelope:
    def test_timestamp_null_by_default(self, capsys):
        _, doc, _ = run_json(capsys, "audit", "M11")
        assert doc["timestamp"] is None

    def test_timestamp_flag(self, capsys):
        _, doc, _ = run_json(capsys, "audit", "M11", "--timestamp")
        assert isinstance(doc["timestamp"], str)

    def test_command_echo(self, capsys):
        _, doc, _ = run_json(capsys, "heart", "A5", "--endo")
        assert doc["command"] == ["heartlab", "heart", "A5", "--endo"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("audit", "M11"),
            ("audit", "PSL(3,4)"),
            ("heart", "M22", "--meataxe", "--seed", "0"),
            ("probe", "x^5-x-1", "--primes", "40", "--candidates", "A5,S5"),
            ("zoo",),
        ],
    )
    def test_byte_stability(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


# sha256 of json.dumps(payload, sort_keys=True), recorded before the F_2-only
# rewrite of linalg/reps: MeatAxe witnesses and attempt counts for seeds 0-9 on
# the acceptance heart suite, and End / idempotent witnesses (C7 decomposes).
MEATAXE_PINS = {
    ("M11", 0): "7ec80400fed74dd69acf8b1c4825573fadc9170f8c0bf5df638bbed0f06fe6cb",
    ("M11", 1): "7ec80400fed74dd69acf8b1c4825573fadc9170f8c0bf5df638bbed0f06fe6cb",
    ("M11", 2): "7ec80400fed74dd69acf8b1c4825573fadc9170f8c0bf5df638bbed0f06fe6cb",
    ("M11", 3): "271c3451d63557efbc92a8cd1ec7bdedc0c4558d5b7d82fcf8f44048c94310d8",
    ("M11", 4): "7ec80400fed74dd69acf8b1c4825573fadc9170f8c0bf5df638bbed0f06fe6cb",
    ("M11", 5): "7ec80400fed74dd69acf8b1c4825573fadc9170f8c0bf5df638bbed0f06fe6cb",
    ("M11", 6): "7ec80400fed74dd69acf8b1c4825573fadc9170f8c0bf5df638bbed0f06fe6cb",
    ("M11", 7): "7ec80400fed74dd69acf8b1c4825573fadc9170f8c0bf5df638bbed0f06fe6cb",
    ("M11", 8): "7ec80400fed74dd69acf8b1c4825573fadc9170f8c0bf5df638bbed0f06fe6cb",
    ("M11", 9): "7ec80400fed74dd69acf8b1c4825573fadc9170f8c0bf5df638bbed0f06fe6cb",
    ("M12", 0): "f887cbc411082227f2a6e60aa93e4d40e0fce89ce9c9b68c992fe684167860e6",
    ("M12", 1): "09b0e872c19935b3bc612fe525fa36ba1ce629c32112ecc79a1bbfcf482210f8",
    ("M12", 2): "09b0e872c19935b3bc612fe525fa36ba1ce629c32112ecc79a1bbfcf482210f8",
    ("M12", 3): "09b0e872c19935b3bc612fe525fa36ba1ce629c32112ecc79a1bbfcf482210f8",
    ("M12", 4): "09b0e872c19935b3bc612fe525fa36ba1ce629c32112ecc79a1bbfcf482210f8",
    ("M12", 5): "09b0e872c19935b3bc612fe525fa36ba1ce629c32112ecc79a1bbfcf482210f8",
    ("M12", 6): "25aa9b691ac0e6e151b58479f1f9dcbe7aa80087d546dd00a7569156e31cb6d1",
    ("M12", 7): "25aa9b691ac0e6e151b58479f1f9dcbe7aa80087d546dd00a7569156e31cb6d1",
    ("M12", 8): "09b0e872c19935b3bc612fe525fa36ba1ce629c32112ecc79a1bbfcf482210f8",
    ("M12", 9): "09b0e872c19935b3bc612fe525fa36ba1ce629c32112ecc79a1bbfcf482210f8",
    ("M22", 0): "3d2533aadee1c5551a67272faf746e6a5e48b8d50bcf0915e4c9b2804fa2776e",
    ("M22", 1): "81d3065d863a1e19ee93b69a85eb45691242b547973a2196c599fc2b7318fe4a",
    ("M22", 2): "3d2533aadee1c5551a67272faf746e6a5e48b8d50bcf0915e4c9b2804fa2776e",
    ("M22", 3): "81d3065d863a1e19ee93b69a85eb45691242b547973a2196c599fc2b7318fe4a",
    ("M22", 4): "3d2533aadee1c5551a67272faf746e6a5e48b8d50bcf0915e4c9b2804fa2776e",
    ("M22", 5): "229ab45d01b91c74b49c508586030b68270d323bf1d207d6edb9950fe25700a8",
    ("M22", 6): "81d3065d863a1e19ee93b69a85eb45691242b547973a2196c599fc2b7318fe4a",
    ("M22", 7): "6772efd153510204eb0b2e5ae15f605566630927747b14dbfc3d518e645742ee",
    ("M22", 8): "81d3065d863a1e19ee93b69a85eb45691242b547973a2196c599fc2b7318fe4a",
    ("M22", 9): "81d3065d863a1e19ee93b69a85eb45691242b547973a2196c599fc2b7318fe4a",
    ("M23", 0): "e2ac9a0e02763fa47943954ec4b1f9e5c7f0ebffa9d30d553adbabcd38aee9ac",
    ("M23", 1): "e2ac9a0e02763fa47943954ec4b1f9e5c7f0ebffa9d30d553adbabcd38aee9ac",
    ("M23", 2): "e2ac9a0e02763fa47943954ec4b1f9e5c7f0ebffa9d30d553adbabcd38aee9ac",
    ("M23", 3): "ccbfc9ac958d507e5b7daab45cd7f788f7f43397a147c8cc761eeaad965974fd",
    ("M23", 4): "e2ac9a0e02763fa47943954ec4b1f9e5c7f0ebffa9d30d553adbabcd38aee9ac",
    ("M23", 5): "e2ac9a0e02763fa47943954ec4b1f9e5c7f0ebffa9d30d553adbabcd38aee9ac",
    ("M23", 6): "e2ac9a0e02763fa47943954ec4b1f9e5c7f0ebffa9d30d553adbabcd38aee9ac",
    ("M23", 7): "e2ac9a0e02763fa47943954ec4b1f9e5c7f0ebffa9d30d553adbabcd38aee9ac",
    ("M23", 8): "e2ac9a0e02763fa47943954ec4b1f9e5c7f0ebffa9d30d553adbabcd38aee9ac",
    ("M23", 9): "e2ac9a0e02763fa47943954ec4b1f9e5c7f0ebffa9d30d553adbabcd38aee9ac",
    ("M24", 0): "f2d4dc912177cef718f249d9b052e31cf991b08e20d44ecf4231ce7851d40733",
    ("M24", 1): "678acec06157fc3c4a7ff901edc2624ca7c4f08292eb564630981cb3713e6e1f",
    ("M24", 2): "678acec06157fc3c4a7ff901edc2624ca7c4f08292eb564630981cb3713e6e1f",
    ("M24", 3): "678acec06157fc3c4a7ff901edc2624ca7c4f08292eb564630981cb3713e6e1f",
    ("M24", 4): "678acec06157fc3c4a7ff901edc2624ca7c4f08292eb564630981cb3713e6e1f",
    ("M24", 5): "678acec06157fc3c4a7ff901edc2624ca7c4f08292eb564630981cb3713e6e1f",
    ("M24", 6): "678acec06157fc3c4a7ff901edc2624ca7c4f08292eb564630981cb3713e6e1f",
    ("M24", 7): "6e3bba5f8c052de568226c266b0f4c031e396132105cbcf440ba174ec11c96a4",
    ("M24", 8): "678acec06157fc3c4a7ff901edc2624ca7c4f08292eb564630981cb3713e6e1f",
    ("M24", 9): "f2d4dc912177cef718f249d9b052e31cf991b08e20d44ecf4231ce7851d40733",
    ("PSL(3,2)", 0): "ed7ca0fd47846582c7c8fd9af7670782b1b6c2132a272baecafd8f6175c16cf9",
    ("PSL(3,2)", 1): "ed7ca0fd47846582c7c8fd9af7670782b1b6c2132a272baecafd8f6175c16cf9",
    ("PSL(3,2)", 2): "ed7ca0fd47846582c7c8fd9af7670782b1b6c2132a272baecafd8f6175c16cf9",
    ("PSL(3,2)", 3): "115c8f34bc0d037fc7a4cce4527e0500727ef1eb8ebd0e41638919a1ee6c051c",
    ("PSL(3,2)", 4): "ed7ca0fd47846582c7c8fd9af7670782b1b6c2132a272baecafd8f6175c16cf9",
    ("PSL(3,2)", 5): "ed7ca0fd47846582c7c8fd9af7670782b1b6c2132a272baecafd8f6175c16cf9",
    ("PSL(3,2)", 6): "ed7ca0fd47846582c7c8fd9af7670782b1b6c2132a272baecafd8f6175c16cf9",
    ("PSL(3,2)", 7): "ed7ca0fd47846582c7c8fd9af7670782b1b6c2132a272baecafd8f6175c16cf9",
    ("PSL(3,2)", 8): "ed7ca0fd47846582c7c8fd9af7670782b1b6c2132a272baecafd8f6175c16cf9",
    ("PSL(3,2)", 9): "ed7ca0fd47846582c7c8fd9af7670782b1b6c2132a272baecafd8f6175c16cf9",
    ("PSL(2,8)", 0): "9b548ea373ca012433dffc9c9504d707525a583401a4e07179b8927e2ef0e750",
    ("PSL(2,8)", 1): "cf89e7eafe07bff7cc1a0e604156e61c196ce730e9f02974d594821e1811641b",
    ("PSL(2,8)", 2): "cf89e7eafe07bff7cc1a0e604156e61c196ce730e9f02974d594821e1811641b",
    ("PSL(2,8)", 3): "cf89e7eafe07bff7cc1a0e604156e61c196ce730e9f02974d594821e1811641b",
    ("PSL(2,8)", 4): "cf89e7eafe07bff7cc1a0e604156e61c196ce730e9f02974d594821e1811641b",
    ("PSL(2,8)", 5): "cf89e7eafe07bff7cc1a0e604156e61c196ce730e9f02974d594821e1811641b",
    ("PSL(2,8)", 6): "9b548ea373ca012433dffc9c9504d707525a583401a4e07179b8927e2ef0e750",
    ("PSL(2,8)", 7): "cf89e7eafe07bff7cc1a0e604156e61c196ce730e9f02974d594821e1811641b",
    ("PSL(2,8)", 8): "9b548ea373ca012433dffc9c9504d707525a583401a4e07179b8927e2ef0e750",
    ("PSL(2,8)", 9): "9b548ea373ca012433dffc9c9504d707525a583401a4e07179b8927e2ef0e750",
    ("PSL(3,3)", 0): "d08904aecd9ad0c3102debe77e3cbbd73d97f5a0866bd46a460437634e01d18f",
    ("PSL(3,3)", 1): "d08904aecd9ad0c3102debe77e3cbbd73d97f5a0866bd46a460437634e01d18f",
    ("PSL(3,3)", 2): "d08904aecd9ad0c3102debe77e3cbbd73d97f5a0866bd46a460437634e01d18f",
    ("PSL(3,3)", 3): "b55b0137262c3ed6fbb60f039c611d0ef4b43f76b1a39dea995c2442b4e761d8",
    ("PSL(3,3)", 4): "d08904aecd9ad0c3102debe77e3cbbd73d97f5a0866bd46a460437634e01d18f",
    ("PSL(3,3)", 5): "d08904aecd9ad0c3102debe77e3cbbd73d97f5a0866bd46a460437634e01d18f",
    ("PSL(3,3)", 6): "b55b0137262c3ed6fbb60f039c611d0ef4b43f76b1a39dea995c2442b4e761d8",
    ("PSL(3,3)", 7): "d08904aecd9ad0c3102debe77e3cbbd73d97f5a0866bd46a460437634e01d18f",
    ("PSL(3,3)", 8): "f1a1ec26958866ae61dbebbb5940a4624281d8e8db0d55ebafabbb0d18a6149e",
    ("PSL(3,3)", 9): "d08904aecd9ad0c3102debe77e3cbbd73d97f5a0866bd46a460437634e01d18f",
    ("PSL(3,4)", 0): "c0f0ccf8cc5bfcf1de8ce15a906b51872a61f55e0376beb2484505c46145efb5",
    ("PSL(3,4)", 1): "a68bfcf694fd84faa2c783fbc345201f3b34b152d622db5c6e501eb36ce40d99",
    ("PSL(3,4)", 2): "7b8775280255fee8698368491a685d1ff0522e88e36ca2223ce45501c70f8d8f",
    ("PSL(3,4)", 3): "61540a25be78ce8ccad3c3440dfe3634fe712b37c2ae146c75c56d35fce03dcb",
    ("PSL(3,4)", 4): "d24756cb58e8b6825200487ec537c9471e6bfea0e13a5f057dbc5aacb5615bd4",
    ("PSL(3,4)", 5): "61540a25be78ce8ccad3c3440dfe3634fe712b37c2ae146c75c56d35fce03dcb",
    ("PSL(3,4)", 6): "535ce8a98f8fe29e19ae826c77b7530c25dd15bea8576c7d67e978dab9090fd0",
    ("PSL(3,4)", 7): "73bfa317f16cac862e4b788c9e6fee7703b58c0baf24f9323b64d345e82484e3",
    ("PSL(3,4)", 8): "c0f0ccf8cc5bfcf1de8ce15a906b51872a61f55e0376beb2484505c46145efb5",
    ("PSL(3,4)", 9): "61540a25be78ce8ccad3c3440dfe3634fe712b37c2ae146c75c56d35fce03dcb",
    ("PSL(4,3)", 0): "b5db2c8146eb9ee5a18e964617d7e010328cb0d35aaf9ec3f7a795c44bd0cc89",
    ("PSL(4,3)", 1): "b5db2c8146eb9ee5a18e964617d7e010328cb0d35aaf9ec3f7a795c44bd0cc89",
    ("PSL(4,3)", 2): "b5db2c8146eb9ee5a18e964617d7e010328cb0d35aaf9ec3f7a795c44bd0cc89",
    ("PSL(4,3)", 3): "3acb34fe6fafc95d46a2a3b31a7810bd65d0d54201023ab7a2d297349558f9fe",
    ("PSL(4,3)", 4): "b5db2c8146eb9ee5a18e964617d7e010328cb0d35aaf9ec3f7a795c44bd0cc89",
    ("PSL(4,3)", 5): "b5db2c8146eb9ee5a18e964617d7e010328cb0d35aaf9ec3f7a795c44bd0cc89",
    ("PSL(4,3)", 6): "3acb34fe6fafc95d46a2a3b31a7810bd65d0d54201023ab7a2d297349558f9fe",
    ("PSL(4,3)", 7): "b5db2c8146eb9ee5a18e964617d7e010328cb0d35aaf9ec3f7a795c44bd0cc89",
    ("PSL(4,3)", 8): "fb74b51c3304f12ef6b788a22ec34fec19757bce9a8bac3d43e8a3305c58ac94",
    ("PSL(4,3)", 9): "b5db2c8146eb9ee5a18e964617d7e010328cb0d35aaf9ec3f7a795c44bd0cc89",
    # hearts of dimension 128 (8 generators) and 120, recorded before the spin
    # stopped once full and p(theta) was evaluated by left multiplication
    ("PSL(2,128)", 0): "8df1f61140d5c8cb7ba77eef7a5cf8509603be8170f9cd48eb0c85ff87a9c1c2",
    ("PSL(2,128)", 1): "73c2517dbf4347e71d70be723bc65ba11304d4146f9887e857196101e6b9e63b",
    ("PSL(2,128)", 2): "8df1f61140d5c8cb7ba77eef7a5cf8509603be8170f9cd48eb0c85ff87a9c1c2",
    ("PSL(2,128)", 3): "8df1f61140d5c8cb7ba77eef7a5cf8509603be8170f9cd48eb0c85ff87a9c1c2",
    ("PSL(2,128)", 4): "8df1f61140d5c8cb7ba77eef7a5cf8509603be8170f9cd48eb0c85ff87a9c1c2",
    ("PSL(5,3)", 0): "46014cbef8c822631b259885834b970c7e33b61d8e74216e614b691182babc20",
    ("PSL(5,3)", 1): "46014cbef8c822631b259885834b970c7e33b61d8e74216e614b691182babc20",
    ("PSL(5,3)", 2): "46014cbef8c822631b259885834b970c7e33b61d8e74216e614b691182babc20",
    ("PSL(5,3)", 3): "6c6c734cc285e6fa54c2208917d9f0be71931cd9cdc87291c5c22e6f0999ed11",
    ("PSL(5,3)", 4): "46014cbef8c822631b259885834b970c7e33b61d8e74216e614b691182babc20",
}
# heart G --meataxe --seed s on the three MeatAxe benchmark groups that the
# pins above leave out, recorded before the sparse kernel and the filled-spin
# memo.  PSL(3,16) is reducible: its witness starts from a p(theta)-kernel
# vector, so these pin the kernel's basis order as well as the verdicts.
MEATAXE_LARGE_PINS = {
    ("PSL(3,13)", 0): "697033a5fce608c877c88d9c82aef045857700d17346d22f62d6df6f0c435f34",
    ("PSL(3,13)", 1): "697033a5fce608c877c88d9c82aef045857700d17346d22f62d6df6f0c435f34",
    ("PSL(3,16)", 0): "d308ebb4ff9f23a9e0f5bfcb5d534dd8fb434aa9bf7a6c0631d233a7b669a85d",
    ("PSL(3,16)", 1): "172147370a5f8741bf7ae4a8e5344ae85560eb7f5faeae2f029acb7fd15912bc",
    ("PSL(2,256)", 0): "891719823a531ef4f15693654c0078927122d8fedd3fd72a15c539a943aefbea",
    ("PSL(2,256)", 1): "468837fe6b3d1327f230491f0a53461daae6357477a9906a6435d0ef1a3fe7a4",
}
INDECOMPOSABLE_PINS = {
    "M11": "a0a18a79c5b9e19b951269ff7d6cb7f51615c113ddb0089b3e140848df90a470",
    "M12": "79643e2125b1dafb629394448a855d5ed8bfdc19aaea89920b08486c66643ae2",
    "M22": "529d36f41e5365d27690ca125206f45fd5379c5ee372c74fdfc554c45df31c94",
    "M23": "fb230bed152fabf5db8869959c1aca96f023c5cc5bd03b583b7367e08649c03b",
    "M24": "946f12c6fcd8848035d35f98744f9d2a8bd076055ee4c337b3d24e5c8540c862",
    "PSL(3,2)": "ace5098434558cb82a4e4c2aee385009ddca41574231d55c2ab77a0816119655",
    "PSL(2,8)": "1b4f5f3c10057903f548359c92b74873aa00b512af133f0ead5d84f951145843",
    "PSL(3,3)": "dc7d4957e1702e4e641df43acb18d165b4f9307518a892813c9676b52d145f50",
    "PSL(3,4)": "7b9a8d796016a9b1aa172bfd4e91f570cc8ef063d4a69a928251dddafafaf1be",
    "PSL(4,3)": "bacbf050de86758565aea7fa2954e1574a2a09b0ed62ce78059da1d47db45f92",
    "C5": "dbec8130786c4375b82def9ea06ff48f4e5bd6e1f8d27a526ba5635b32cc3876",
    "C6": "f8a3f65a8aef3ac8170e35f57a4c57fa29423779bf4ebdc9ae8f52d5f5c85631",
    "C7": "0845a7c02665fc304f3040c98f1d5a74167d795f9931f8ae6e4e04efc76631d6",
    "C8": "a46bb0f3f3015c8471837dc5f29237e640c6cf26e65ff4fc3c70803284eecbac",
    "C9": "54b2ba4397cb99f901039666ce1479d2b4181047d9cf977ee4a8d5ac79d86b7a",
    "C10": "f6391acfa5b0275452c179b8172f7be1b672ce164bd7d68d7ebe15690ebbfe31",
    "C11": "ae4c6c67ec5c0f015086b17b9d6efef68f010346a835d263bedfad1f0a40bdd0",
    "C12": "ec705169e0bf03fadd62ebcb414294e540e892b2a6b43f3fe4f7b3aa37063672",
    "D5": "3689bda2280718d8e001b0637a4ac33baa9e67b6ca17b10f81705f5e4bf2fcd5",
    "D10": "90587caf0ca08768e3c07b9d83674fe8a271d231203ff027cb383f8649e01bcd",
}
# heart G --indecomposable without --endo, recorded while End was solved
# inside is_indecomposable: no top-level endo_dimension
INDECOMPOSABLE_ONLY_PINS = {
    "M11": "c2a3270c469a177b8cec08dc29657e1aa2c5edbf466777b2c5b2b4a1992c5b93",
    "M12": "819275b0098bb70ca9aafc7dbc371cb3b930711d11b825925b706ef9a85f47b2",
    "M22": "f6849b8c6a4e7caf32428f52ec18733ff64f31aa33b03d2d2d8a18d4b84e424e",
    "M23": "7c9ec0ccd65bbc4744d710e77be29af7a7b8e74d35779f217c6b4fa25f5d2483",
    "M24": "e620ca532e1e59f19f9a1635f1b8ce32d6da9574e2863a555012513836cb0ee4",
    "PSL(3,2)": "0a60b79be546954d3e73570f86dd7289fef5f43b563f353abe772314dbfb4a84",
    "PSL(2,8)": "16baf3edd4c62012d8a4be523db67ca7548c113a9eec6f3aaff98e729eec8999",
    "PSL(3,3)": "30dd9e7732bbc3d63e42e9466a0ce735927a62866b3b4acef276d55755ba5bf6",
    "PSL(3,4)": "f31e912b8af024f8423d87c9825039860d8e689fb15f45c8fbe8ccff90a00b31",
    "PSL(4,3)": "b690392d83ef282d966619518e2aadf29dc3a94df536b7a1a24d4f455fa855e7",
    "C5": "a9a1c0e4f17ad3cad1271227992947cab625984ce20c5ebd5c207d9af44c3836",
    "C6": "3d0ab8a1e045780f267cf9c23f99628d0739f3b8bfae6c2d40df982c9a04ed96",
    "C7": "0eeeb1eb64cd6efbd6ea2d8dc19a265ea5431b2a417bdfafc883584a7f3e3f55",
    "C8": "99305e47c68db3a8ebf76064af07d2812cdce93da4e4757a454959665829cd72",
    "C9": "97c56344e8667bb85c9d8810cb55e38797e442b3d029c493e64ac12957ca9534",
    "C10": "646685a4b9616149d11b115c44f88d3415a5a16914a351a1f1c11721b079f38b",
    "C11": "4baafc983e2b5de1961261d7104dfedbda3ec2cbdd163afcd7a90d7941360cb4",
    "C12": "efa7d22767ab36759eaa1333fe9fa23d31456c491a8c8ea7d2ebdd017d648140",
    "D5": "3b5e61bc4f681b0822385e0ef80fa76d90af11d341d7e4a09149b516f191f46d",
    "D10": "de2890c435b9a75816513820714a7f46f29e373ac995df2c96f418c53f930df2",
}

# audit G --deep --seed s on the acceptance groups, recorded before the Krylov
# charpoly and the int-encoded F_2[x] factoring: the MeatAxe and End results
# feed the audit evidence.  PSL(3,4) is excluded (exit 2); the rest certify.
AUDIT_DEEP_PINS = {
    ("M11", 0): "54617a12540a178edbadbe22e911a529da88e1641763821317367fd7548588c3",
    ("M11", 1): "54617a12540a178edbadbe22e911a529da88e1641763821317367fd7548588c3",
    ("M11", 2): "54617a12540a178edbadbe22e911a529da88e1641763821317367fd7548588c3",
    ("M12", 0): "0f72ca2878ebb71547e7be9ee62331b9fe3ce7b9229582bb62e64769a69281af",
    ("M12", 1): "0f72ca2878ebb71547e7be9ee62331b9fe3ce7b9229582bb62e64769a69281af",
    ("M12", 2): "0f72ca2878ebb71547e7be9ee62331b9fe3ce7b9229582bb62e64769a69281af",
    ("M22", 0): "158cdac8480a65c6a71c2442c8d549a15a74ee493f18473a3339c261f6d503bb",
    ("M22", 1): "158cdac8480a65c6a71c2442c8d549a15a74ee493f18473a3339c261f6d503bb",
    ("M22", 2): "158cdac8480a65c6a71c2442c8d549a15a74ee493f18473a3339c261f6d503bb",
    ("M23", 0): "9b843f3b28ce8a5ecaef88817651254b83afdb571f03657ce3a42ff27f24a618",
    ("M23", 1): "9b843f3b28ce8a5ecaef88817651254b83afdb571f03657ce3a42ff27f24a618",
    ("M23", 2): "9b843f3b28ce8a5ecaef88817651254b83afdb571f03657ce3a42ff27f24a618",
    ("M24", 0): "71a79d36fc82a03bbbf7b27022627872aa3ab4f58d7c278d70b23dcddf99cd27",
    ("M24", 1): "71a79d36fc82a03bbbf7b27022627872aa3ab4f58d7c278d70b23dcddf99cd27",
    ("M24", 2): "71a79d36fc82a03bbbf7b27022627872aa3ab4f58d7c278d70b23dcddf99cd27",
    ("PSL(3,2)", 0): "d7a4e53bbf80aad1e6a65dc0ca9d223bffc5dfa90dffcc0fd03e51275666422f",
    ("PSL(3,2)", 1): "d7a4e53bbf80aad1e6a65dc0ca9d223bffc5dfa90dffcc0fd03e51275666422f",
    ("PSL(3,2)", 2): "d7a4e53bbf80aad1e6a65dc0ca9d223bffc5dfa90dffcc0fd03e51275666422f",
    ("PSL(2,8)", 0): "85698278990bbfda1c9acf3f63d1a06e621ded2a4970d917c82cd40fc95c4ea1",
    ("PSL(2,8)", 1): "85698278990bbfda1c9acf3f63d1a06e621ded2a4970d917c82cd40fc95c4ea1",
    ("PSL(2,8)", 2): "85698278990bbfda1c9acf3f63d1a06e621ded2a4970d917c82cd40fc95c4ea1",
    ("PSL(3,3)", 0): "39c9b10254feb8bd2027884853a0e86c7668cf6da3ffccaa196c08e6df0474ba",
    ("PSL(3,3)", 1): "39c9b10254feb8bd2027884853a0e86c7668cf6da3ffccaa196c08e6df0474ba",
    ("PSL(3,3)", 2): "39c9b10254feb8bd2027884853a0e86c7668cf6da3ffccaa196c08e6df0474ba",
    ("PSL(3,4)", 0): "d34d81d8b1dd917d5a8a50bb375db263803d8bae696f8a806a39badae5fa4795",
    ("PSL(3,4)", 1): "d34d81d8b1dd917d5a8a50bb375db263803d8bae696f8a806a39badae5fa4795",
    ("PSL(3,4)", 2): "d34d81d8b1dd917d5a8a50bb375db263803d8bae696f8a806a39badae5fa4795",
    ("PSL(4,3)", 0): "3b943cd409ded4955729488651b833f8a8a014aa9f044bed088ee3cfaefd2f03",
    ("PSL(4,3)", 1): "3b943cd409ded4955729488651b833f8a8a014aa9f044bed088ee3cfaefd2f03",
    ("PSL(4,3)", 2): "3b943cd409ded4955729488651b833f8a8a014aa9f044bed088ee3cfaefd2f03",
}


# probe payloads recorded while every exact cycle-type set still came from
# breadth-first enumeration and odd-p distinct-degree splitting still raised
# h to the p-th power modulo f once per degree.
PROBE_PINS = {
    ("x^5-x-1", "--primes", "100", "--candidates", "A5,S5,C5,D5"):
        "60b8683238ff25c465cf13d764c1c0a528f1661f037dd45ead297e1037436c72",
    ("x^5+20*x+16", "--primes", "100", "--candidates", "A5,S5"):
        "89175929e9336952b5955cfceea4c80cf5a493a86bb8b1d01b2984f58c0e85b3",
    ("x^7-x-1", "--primes", "150", "--candidates", "A7,S7,D7,C7"):
        "fea9a57710c8fa4e10f1fb3be48ed095e348ebd401ccf85440d92a3029d08a7a",
    ("x^9-x-1", "--primes", "60", "--candidates", "A9"):
        "53a0b734a3cf7fb4ffba990396e580dfa611406021ab6e0f6337fcc736980803",
    ("x^8+x+3", "--primes", "150", "--candidates", "A8,S8"):
        "b0f0ee53fa67149ca3e9570ee4fa7326cabdd5b41248998027337b8888191eaa",
    ("x^10-x-1", "--primes", "50", "--candidates", "A10,S10", "--seed", "3"):
        "377463aef5f5939a714b1d726db6435c143cd80c3c8fc0472b811c0c63fdd094",
    # non-monic: the reduction is made monic before the squarefree test
    ("3*x^7-5*x+2", "--primes", "400", "--candidates", "A7,S7"):
        "bb8962fc37069924d6c0a0a3300b8397ce4b087370842ffa7fe1d5918e8d0c86",
}
PROBE_BATCH = "x^6-x-1\nx^6+3*x^2+2\nx^6-6*x^4+9*x^2-3\n"
PROBE_BATCH_PIN = "89a1cf0c3882e388e0c30d6f41d4d6cec7bcdcc82f3526135a1320acc68ec86f"
# the whole stdout of `heartlab zoo`: the families and every fact record as printed
ZOO_STDOUT_PIN = "184307c09875e9d959ddbe70c188689aa2a19ecb5d8d118aea19c24368e01bad"


def payload_digest(capsys, *argv, exit_code=0):
    code, out, _ = run_cli(capsys, *argv)
    assert code == exit_code
    payload = json.loads(out)["payload"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestPayloadPins:
    def test_zoo_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "zoo")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ZOO_STDOUT_PIN

    @pytest.mark.parametrize("group,seed", list(MEATAXE_PINS))
    def test_meataxe_payload(self, capsys, group, seed):
        digest = payload_digest(capsys, "heart", group, "--meataxe", "--seed", str(seed))
        assert digest == MEATAXE_PINS[group, seed]

    @pytest.mark.parametrize("group,seed", list(MEATAXE_LARGE_PINS))
    def test_meataxe_large_payload(self, capsys, group, seed):
        digest = payload_digest(capsys, "heart", group, "--meataxe", "--seed", str(seed))
        assert digest == MEATAXE_LARGE_PINS[group, seed]

    @pytest.mark.parametrize("group", list(INDECOMPOSABLE_PINS))
    def test_indecomposable_payload(self, capsys, group):
        digest = payload_digest(capsys, "heart", group, "--endo", "--indecomposable")
        assert digest == INDECOMPOSABLE_PINS[group]

    @pytest.mark.parametrize("group", list(INDECOMPOSABLE_ONLY_PINS))
    def test_indecomposable_only_payload(self, capsys, group):
        digest = payload_digest(capsys, "heart", group, "--indecomposable")
        assert digest == INDECOMPOSABLE_ONLY_PINS[group]

    @pytest.mark.parametrize("group,seed", list(AUDIT_DEEP_PINS))
    def test_audit_deep_payload(self, capsys, group, seed):
        exit_code = 2 if group == "PSL(3,4)" else 0
        digest = payload_digest(
            capsys, "audit", group, "--deep", "--seed", str(seed), exit_code=exit_code
        )
        assert digest == AUDIT_DEEP_PINS[group, seed]

    @pytest.mark.parametrize("argv", list(PROBE_PINS))
    def test_probe_payload(self, capsys, argv):
        assert payload_digest(capsys, "probe", *argv) == PROBE_PINS[argv]

    def test_probe_batch_payload(self, capsys, tmp_path):
        source = tmp_path / "polys.txt"
        source.write_text(PROBE_BATCH)
        digest = payload_digest(
            capsys, "probe", "--file", str(source), "--primes", "80", "--candidates",
            "A6,S6,C6,D6",
        )
        assert digest == PROBE_BATCH_PIN
