"""CLI exit codes, JSON schema validity, and byte stability."""

import hashlib
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


def payload_digest(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)["payload"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestPayloadPins:
    @pytest.mark.parametrize("group,seed", list(MEATAXE_PINS))
    def test_meataxe_payload(self, capsys, group, seed):
        digest = payload_digest(capsys, "heart", group, "--meataxe", "--seed", str(seed))
        assert digest == MEATAXE_PINS[group, seed]

    @pytest.mark.parametrize("group", list(INDECOMPOSABLE_PINS))
    def test_indecomposable_payload(self, capsys, group):
        digest = payload_digest(capsys, "heart", group, "--endo", "--indecomposable")
        assert digest == INDECOMPOSABLE_PINS[group]
