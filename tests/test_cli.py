"""Command-line interface: flags, exit codes, JSON determinism."""

import json

import pytest

from thetaq import cli
from thetaq.cli import main
from thetaq.series import CoefficientOverflowError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def json_records(stdout: str):
    return [json.loads(line) for line in stdout.strip().splitlines()]


class TestExpand:
    def test_named_special(self, capsys):
        code, out, _ = run(capsys, "expand", "--name", "psi", "--scale", "1",
                           "--order", "10")
        assert code == 0
        assert '["0", 1]' in out and '["10", 1]' in out

    def test_zero_series(self, capsys):
        code, out, _ = run(capsys, "expand", "--theta", "-1,0,3", "--order", "10")
        assert code == 0
        assert '"coefficients": []' in out

    def test_signed_pentagonal_name(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "expand", "--name", "f",
                           "--order", "15")
        rec = json_records(out)[0]
        assert rec["payload"]["coefficients"][:4] == [
            ["0", 1], ["1", -1], ["2", -1], ["5", 1],
        ]

    def test_pentagonal_exponents(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "expand",
                           "--theta", "1,1,2", "--order", "12")
        rec = json_records(out)[0]
        assert [c[0] for c in rec["payload"]["coefficients"]] == [
            "0", "1", "2", "5", "7", "12",
        ]

    def test_divergent_is_usage_error(self, capsys):
        code, _, err = run(capsys, "expand", "--theta", "1,-2,1", "--order", "10")
        assert code == 2
        assert "error" in err


class TestCount:
    def test_single_value(self, capsys):
        code, out, _ = run(capsys, "count", "--form", "rT(1,1,1)", "--n", "5")
        assert code == 0 and '"value": 8' in out

    def test_both_methods_agree(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "count", "--form",
                           "T(2,4,4)", "--n", "4", "--method", "both")
        rec = json_records(out)[0]
        assert rec["status"] == "pass"
        assert rec["payload"]["values"][0] == {
            "enumerate": 2, "n": 4, "series": 2, "value": 2,
        }

    def test_range(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "count", "--form",
                           "r(1,1,1)", "--range", "6..8", "--method", "both")
        rec = json_records(out)[0]
        values = {row["n"]: row["value"] for row in rec["payload"]["values"]}
        assert values == {6: 24, 7: 0, 8: 12}

    def test_malformed_form(self, capsys):
        code, _, err = run(capsys, "count", "--form", "zz(1,2)", "--n", "3")
        assert code == 2


class TestScan:
    def test_confirmed(self, capsys):
        code, out, _ = run(capsys, "scan", "--form", "rpg(3,4,1)", "--modulus",
                           "4", "--residue", "2", "--nmax", "2000")
        assert code == 0 and '"represented": []' in out

    def test_all_odd_represented(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "scan", "--form",
                           "r(1,1,2)", "--modulus", "2", "--residue", "1",
                           "--nmax", "50")
        rec = json_records(out)[0]
        assert rec["status"] == "fail"
        assert rec["payload"]["represented"] == list(range(1, 51, 2))
        assert code == 1

    def test_residue_out_of_range(self, capsys):
        code, _, err = run(capsys, "scan", "--form", "r(1,1,2)", "--modulus",
                           "2", "--residue", "2", "--nmax", "10")
        assert code == 2


class TestVerify:
    def test_triple_product(self, capsys):
        code, out, _ = run(capsys, "verify", "thm1", "--k", "2", "--r", "1",
                           "--g", "1", "--h", "0", "--u", "1", "--v", "0",
                           "--i", "1", "--j", "1", "--eps", "1,1,1",
                           "--order", "100")
        assert code == 0 and "[pass]" in out

    def test_constraint_violation_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "thm1", "--k", "3", "--r", "1",
                           "--g", "1", "--h", "0", "--u", "1", "--v", "0",
                           "--i", "1", "--j", "1", "--order", "50")
        assert code == 2
        assert "gcd(2k, k-r) = 1" in err

    def test_pair_product(self, capsys):
        code, out, _ = run(capsys, "verify", "thm2", "--k", "2", "--r", "1",
                           "--s", "1", "--t", "1", "--i", "2", "--j", "0",
                           "--eps", "-1", "--order", "100")
        assert code == 0

    def test_corollary(self, capsys):
        code, out, _ = run(capsys, "verify", "corollary", "--id", "cor1",
                           "--k", "2", "--r", "1", "--order", "100")
        assert code == 0

    def test_signed_pair_corollary(self, capsys):
        code, out, _ = run(capsys, "verify", "corollary", "--id", "clp2.2",
                           "--m", "2", "--order", "100")
        assert code == 0

    def test_relation_group(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "relation",
                           "--id", "Athm1", "--nmax", "400")
        records = json_records(out)
        assert {r["params"]["id"] for r in records} == {"Athm1.1", "Athm1.2"}
        assert all(r["status"] == "pass" for r in records)
        assert code == 0

    def test_empirical_relation_is_informational(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "relation",
                           "--id", "Athm11.3", "--nmax", "200")
        rec = json_records(out)[0]
        assert rec["status"] == "info"
        assert rec["payload"]["outcome"] == "fail"
        assert rec["payload"]["counterexample"]["n"] == 1
        assert code == 0  # empirical rows never fail the run

    def test_unknown_relation(self, capsys):
        code, _, err = run(capsys, "verify", "relation", "--id", "nope",
                           "--nmax", "10")
        assert code == 2

    def test_classical(self, capsys):
        code, out, _ = run(capsys, "verify", "classical", "--id", "gauss3tri",
                           "--nmax", "500")
        assert code == 0


class TestOverflow:
    def test_overflow_is_reported_not_raised(self, capsys, monkeypatch):
        def overflow(args, reporter):
            raise CoefficientOverflowError("coefficient 2**64 exceeds 64-bit width")

        monkeypatch.setitem(cli._DISPATCH, "expand", overflow)
        code, _, err = run(capsys, "expand", "--name", "phi", "--order", "10")
        assert code == 2
        assert err.startswith("error: coefficient 2**64")


class TestJsonDeterminism:
    CASES = [
        ("--format", "json", "expand", "--name", "X", "--scale", "2",
         "--order", "20"),
        ("--format", "json", "count", "--form", "pG(4,1,1)", "--range",
         "0..12", "--method", "both"),
        ("--format", "json", "verify", "thm1", "--k", "2", "--r", "1",
         "--g", "3", "--h", "1", "--u", "3", "--v", "1", "--i", "6",
         "--j", "2", "--eps", "1,1,1", "--order", "60"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=["expand", "count", "verify"])
    def test_payload_round_trips(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        p1 = [r["payload"] for r in json_records(out1)]
        p2 = [r["payload"] for r in json_records(out2)]
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)

    @pytest.mark.parametrize("argv", CASES, ids=["expand", "count", "verify"])
    def test_echoed_command_reproduces_payload(self, capsys, argv):
        # a record's cmd and params fields are enough to re-run it
        _, out, _ = run(capsys, *argv)
        rec = json_records(out)[0]
        rebuilt = ["--format", "json"] + rec["cmd"].split()
        for key, value in rec["params"].items():
            rebuilt += [f"--{key}", str(value)]
        _, out2, _ = run(capsys, *rebuilt)
        rec2 = json_records(out2)[0]
        assert json.dumps(rec["payload"], sort_keys=True) == \
            json.dumps(rec2["payload"], sort_keys=True)

    def test_record_shape(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "count", "--form",
                        "G(1,1,2)", "--n", "1")
        rec = json_records(out)[0]
        assert set(rec) == {"cmd", "params", "status", "payload", "elapsed_ms"}
