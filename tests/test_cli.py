"""CLI exit codes, JSON schema validity, and byte stability."""

import json
from pathlib import Path

import jsonschema
import pytest

from heartlab import cli

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

    def test_missing_subcommand_exit_one(self, capsys):
        assert run_cli(capsys, )[0] == 1


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
