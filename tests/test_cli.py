"""Command-line interface: flags, exit codes, JSON determinism."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thetaq import cli, repcount
from thetaq import theta as theta_module
from thetaq.cli import main
from thetaq.identity import load_identity_catalog
from thetaq.relations import CLASSICAL_IDS, load_relation_catalog, load_scan_catalog
from thetaq.repcount import REGISTRY, count_enumerate
from thetaq.series import COEFF_LIMIT, CoefficientOverflowError


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
        # a -q^0 argument with a + b <= 0 diverges; it is not the zero function
        for theta in ("1,-2,1", "-1,0,0", "-1,0,-1", "-1,-3,0"):
            code, out, err = run(capsys, "expand", "--theta", theta, "--order", "10")
            assert code == 2, theta
            assert "divergent specialization" in err and "[pass]" not in out

    def test_parameter_near_2_to_the_61_expands(self, capsys):
        # f(-q^(2^61), -q^(-1)) = 1 - q^(-1/2): its exponent bound fits in int64
        code, out, _ = run(capsys, "--format", "json", "expand",
                           "--theta", "-1,2305843009213693952,-1", "--order", "100")
        assert code == 0
        assert json_records(out)[0]["payload"] == {"coefficients": [["-1", -1], ["0", 1]]}


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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("thm1", "--k", "2", "--r", "1", "--g", "1", "--h", "0", "--u", "1",
         "--v", "0", "--i", "1", "--j", "1", "--eps", "-1,-1,1"),
        ("thm2", "--k", "2", "--r", "1", "--s", "1", "--t", "1", "--i", "2",
         "--j", "0", "--eps", "-1"),
    ], ids=["thm1", "thm2"])
    def test_negative_eps_as_its_own_argument(self, capsys, fmt, argv):
        # `--eps -1,-1,1` exited 2 with argparse's "expected one argument"
        code, out, err = run(capsys, "--format", fmt, "verify", *argv, "--order", "60")
        assert code == 0 and err == ""
        if fmt == "json":
            rec = json_records(out)[0]
            assert rec["status"] == "pass" and rec["params"]["eps"] == argv[-1]
        else:
            assert out.startswith(f"[pass] verify {argv[0]} ")

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


# a well-formed row of an extra catalog: T(1,1,1;N) = T(1,1,1;N)
_USER_ROW = {"id": "user.bad", "lhs": {"form": "T", "coeffs": [1, 1, 1]},
             "rhs": [{"form": "T", "coeffs": [1, 1, 1]}]}


class TestDomainErrors:
    def test_missing_catalog_is_usage_error(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, "verify", "relation", "--id", "Athm1",
                             "--catalog", missing)
        assert code == 2
        assert err.startswith("error: cannot read catalog") and "Traceback" not in err

    def test_missing_catalog_stops_verify_all_before_any_record(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "all", "--catalog",
                             str(tmp_path / "missing.json"))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read catalog")

    @pytest.mark.parametrize("residue", [[3, 5], [0, 0], [2, -1], [4, 1, 0], 5],
                             ids=["r>=m", "m=0", "r<0", "triple", "not-a-list"])
    def test_malformed_residue_class_is_usage_error(self, capsys, tmp_path, residue):
        # [3, 5] used to check no N and pass; [0, 0] divided by zero
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps({"relations": [{
            "id": "user.bad", "residue": residue,
            "lhs": {"form": "T", "coeffs": [1, 1, 1]},
            "rhs": [{"form": "T", "coeffs": [1, 1, 1]}],
        }]}))
        for argv in (("verify", "relation", "--id", "user.bad"), ("verify", "all")):
            code, out, err = run(capsys, *argv, "--catalog", str(extra))
            assert code == 2 and out == ""
            assert err.startswith("error: relation 'user.bad': residue class")

    @pytest.mark.parametrize("field", [
        {"coeffs": 7}, {"coeffs": [1.5, 1, 1]}, {"alpha": 0}, {"alpha": "2"},
        {"scalar": 1.5}, {"status": "bogus"},
    ], ids=["coeffs-int", "coeffs-float", "alpha-0", "alpha-str", "scalar-float",
            "status"])
    def test_malformed_catalog_row_is_usage_error(self, capsys, tmp_path, field):
        # "coeffs": 7 used to escape as a TypeError traceback with exit 1
        row = {"id": "user.bad", "lhs": {"form": "T", "coeffs": [1, 1, 1]},
               "rhs": [{"form": "T", "coeffs": [1, 1, 1]}]}
        if "status" in field:
            row.update(field)
        else:
            row["lhs"].update(field)
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps({"relations": [row]}))
        for argv in (("verify", "relation", "--id", "user.bad"), ("verify", "all")):
            code, out, err = run(capsys, *argv, "--catalog", str(extra))
            assert code == 2 and out == ""
            assert err.startswith("error: relation 'user.bad': ")

    @pytest.mark.parametrize("lhs_scalar,rhs_scalars", [
        (2**62, []), (10**20, []), (1, [2**59, 2**59]),
    ], ids=["2^62", "10^20", "rhs-sum-2^63"])
    def test_relation_arithmetic_overflow_is_usage_error(self, capsys, tmp_path,
                                                         lhs_scalar, rhs_scalars):
        # r(1,1,1;3) = 8: 2^62 used to wrap int64 to 0 and pass, 10^20
        # escaped as an OverflowError traceback with exit 1
        row = {"id": "user.big", "residue": [1000, 3], "status": "pinned",
               "lhs": {"form": "r", "coeffs": [1, 1, 1], "scalar": lhs_scalar},
               "rhs": [{"form": "r", "coeffs": [1, 1, 1], "scalar": c} for c in rhs_scalars]}
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps({"relations": [row]}))
        for argv in (("verify", "relation", "--id", "user.big"),
                     ("verify", "all", "--order", "0", "--scan-nmax", "3")):
            code, out, err = run(capsys, *argv, "--nmax", "50", "--catalog", str(extra))
            assert code == 2 and "user.big" not in out
            assert err.startswith("error: relation 'user.big': scaled counts")

    @pytest.mark.parametrize("field,nmax", [
        ({"alpha": 2**63}, "50"),
        ({"beta": -(10**20)}, "50"),
        # 2^62 * N fits at N <= 1, but the table's bound 2^63 - 1, the end
        # of N = 1's block, plus one does not
        ({"alpha": 2**62}, "1"),
    ], ids=["alpha-2^63", "beta--10^20", "block-end-2^63"])
    def test_argument_beyond_64_bits_is_usage_error(self, capsys, tmp_path, field, nmax):
        # alpha*N + beta used to escape as an OverflowError traceback
        row = {"id": "user.big", "lhs": {"form": "r", "coeffs": [1, 1, 1], **field}}
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps({"relations": [row]}))
        code, out, err = run(capsys, "verify", "relation", "--id", "user.big",
                             "--nmax", nmax, "--catalog", str(extra))
        assert code == 2 and out == ""
        assert err.startswith("error: relation 'user.big': the argument of")

    def test_table_past_the_term_bound_is_usage_error(self, capsys):
        # the product of r(1,1,1)'s term counts passes 2^63 - 1 at this
        # bound; the class used to be sliced off an exact product that
        # asked for 8 TiB and reported memory
        code, out, err = run(capsys, "scan", "--form", "r(1,1,1)", "--modulus",
                             "100000000000", "--residue", "7", "--nmax", "1100000000000")
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: counts through N = 1100000000000 are not proven "
                              "to fit in 64 bits")
        assert err.rstrip().endswith(f"past the bound {COEFF_LIMIT}")

    @pytest.mark.parametrize("catalog,prefix", [
        ({"relations": [{"id": "user.bad", "lhs": 5}]}, "relation 'user.bad': "),
        ({"relations": [{"id": "user.bad", "lhs": {"form": "T", "coeffs": [1, 1, 1]},
                         "rhs": 5}]}, "relation 'user.bad': "),
        ([1], "catalog "),
        ({"relations": [1]}, "catalog row "),
        ({"relations": [{"lhs": {"form": "T", "coeffs": [1, 1, 1]}}]}, "catalog row "),
        ({"rows": []}, "catalog "),
        ({"relations": [{"id": "user.bad", "residue": 0,
                         "lhs": {"form": "T", "coeffs": [1, 1, 1]}}]},
         "relation 'user.bad': residue class"),
        ({"relations": [{"id": "user.bad", "residue": [],
                         "lhs": {"form": "T", "coeffs": [1, 1, 1]}}]},
         "relation 'user.bad': residue class"),
        ({"relations": [{**_USER_ROW, "stauts": "pinned"}]},
         "relation 'user.bad': row has unknown key 'stauts'"),
        ({"relations": [{**_USER_ROW, "rhs": [{"form": "T", "coeffs": [1, 1, 1],
                                               "scaler": 2}]}]},
         "relation 'user.bad': count 'T' has unknown key 'scaler'"),
        ({"relations": [_USER_ROW, _USER_ROW]},
         "relation 'user.bad' appears twice in the catalog"),
        ({"relations": [{**_USER_ROW, "id": "Athm1.1"}]},
         "relation 'Athm1.1' appears twice in the catalog"),
    ], ids=["lhs-int", "rhs-int", "top-list", "row-int", "no-id", "no-relations",
            "residue-0", "residue-empty", "row-key", "count-key", "id-twice-in-file",
            "id-in-both"])
    def test_malformed_catalog_shape_is_usage_error(self, capsys, tmp_path, catalog,
                                                    prefix):
        # the first three used to escape as TypeError tracebacks with exit 1,
        # a residue of 0 or [] was read as no residue class at all, "stauts"
        # loaded as an empirical row and "scaler" as scalar 1
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps(catalog))
        for argv in (("verify", "relation", "--id", "user.bad"), ("verify", "all")):
            code, out, err = run(capsys, *argv, "--catalog", str(extra))
            assert code == 2 and out == ""
            assert err.startswith("error: " + prefix), err
        if prefix == "catalog ":
            assert repr(str(extra)) in err

    def test_note_and_citation_are_free_text(self, capsys, tmp_path):
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps({"relations": [{**_USER_ROW, "note": "a remark",
                                                    "citation": "T = T"}]}))
        code, out, _ = run(capsys, "verify", "relation", "--id", "user.bad",
                           "--nmax", "20", "--catalog", str(extra))
        assert code == 0 and out.startswith("[info] verify relation id=user.bad")

    THM1 =("verify", "thm1", "--k", "2", "--r", "1", "--g", "1", "--h", "0",
            "--u", "1", "--v", "0", "--i", "1", "--j", "1")

    @pytest.mark.parametrize("argv", [
        ("verify", "classical", "--id", "gauss3tri", "--nmax", "-5"),
        THM1 + ("--order", "-1"),
        ("verify", "all", "--scan-nmax", "-1"),
        ("verify", "relation", "--id", "Athm1", "--nmax", "-1"),
        ("scan", "--form", "r(1,1,2)", "--modulus", "2", "--residue", "1",
         "--nmax", "-1"),
        ("expand", "--name", "phi", "--order", "-1"),
        ("verify", "classical", "--id", "gauss3tri", "--nmax", "ten"),
    ], ids=["classical", "thm1", "all", "relation", "scan", "expand", "not-a-number"])
    def test_negative_bound_is_usage_error(self, capsys, argv):
        # a negative bound checks nothing, so it must not print a vacuous [pass]
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert out.out == "" and "expected a nonnegative integer" in out.err

    @pytest.mark.parametrize("argv,message", [
        (("expand", "--theta", "1,2", "--order", "3"),
         "expected --theta EPS,G,H (integers), got '1,2'"),
        (THM1 + ("--eps", "1,1"), "expected --eps E1,E2,E3 (integers), got '1,1'"),
        (THM1 + ("--eps", "-1,1"), "expected --eps E1,E2,E3 (integers), got '-1,1'"),
        (("verify", "thm2", "--k", "2", "--r", "1", "--s", "1", "--t", "1", "--i", "2",
          "--j", "0", "--eps", "x"), "expected --eps E (integers), got 'x'"),
    ], ids=["theta", "thm1-eps", "thm1-negative-eps", "thm2-eps"])
    def test_malformed_integer_list_names_its_flag(self, capsys, argv, message):
        # these printed "not enough values to unpack (expected 3, got 2)" and
        # "invalid literal for int() with base 10: 'x'"
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("modulus,residue", [("4", "5"), ("0", "0"), ("4", "-1")],
                             ids=["r>=m", "m=0", "r<0"])
    def test_invalid_scan_class_is_usage_error(self, capsys, modulus, residue):
        # 5 mod 4 used to read as an empty class at --nmax 2 and as an
        # unnamed "need 0 <= residue < modulus" at --nmax 100
        errs = set()
        for nmax in ("2", "100"):
            code, out, err = run(capsys, "scan", "--form", "Rt(1,1,4)", "--modulus",
                                 modulus, f"--residue={residue}", "--nmax", nmax)
            assert code == 2 and out == ""
            errs.add(err)
        assert len(errs) == 1
        assert errs.pop().startswith(f"error: scan Rt(1,1,4): {residue} mod {modulus} "
                                     "is not a residue class")

    def test_scale_with_theta_is_usage_error(self, capsys):
        # --scale used to be ignored with --theta: [pass] for f(q^2, q^3)
        for fmt in ((), ("--format", "json")):
            code, out, err = run(capsys, *fmt, "expand", "--theta", "1,2,3",
                                 "--scale", "5", "--order", "3")
            assert code == 2 and out == ""
            assert err == "error: --scale applies to --name, not to --theta\n"
        code, out, _ = run(capsys, "--format", "json", "expand", "--name", "phi",
                           "--order", "3")
        assert code == 0 and json_records(out)[0]["params"]["scale"] == 1
        code, out, err = run(capsys, "expand", "--name", "phi", "--scale", "0",
                             "--order", "3")
        assert code == 2 and out == "" and err.startswith("error: scale must be")

    @pytest.mark.parametrize("argv,unused", [
        (("--id", "clp2.4", "--m", "2", "--k", "7"), "clp2.4 takes no k"),
        (("--id", "cor1", "--k", "2", "--r", "1", "--m", "9"), "cor1 takes no m"),
    ], ids=["clp2-k", "cor1-m"])
    def test_unused_corollary_argument_is_usage_error(self, capsys, argv, unused):
        # both used to print [pass] with the ignored flag among the params
        for fmt in ((), ("--format", "json")):
            code, out, err = run(capsys, *fmt, "verify", "corollary", *argv,
                                 "--order", "20")
            assert code == 2 and out == ""
            assert err == f"error: {unused}\n"


class TestEmptyClass:
    """A residue class with no N up to the bound would print a vacuous [pass]."""

    def test_scan(self, capsys):
        code, out, err = run(capsys, "scan", "--form", "Rt(1,1,4)", "--modulus", "4",
                             "--residue", "3", "--nmax", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: scan Rt(1,1,4): residue class N == 3 mod 4")
        code, out, _ = run(capsys, "scan", "--form", "Rt(1,1,4)", "--modulus", "4",
                           "--residue", "3", "--nmax", "3")
        assert code == 0 and "[pass]" in out

    def test_relation(self, capsys, tmp_path):
        # r(1,1,1; N) = 0 is false, but N == 999 mod 1000 holds no N <= 50
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps({"relations": [{
            "id": "x", "lhs": {"form": "r", "coeffs": [1, 1, 1]},
            "residue": [1000, 999], "status": "pinned",
        }]}))
        for argv in (("verify", "relation", "--id", "x"), ("verify", "all")):
            code, out, err = run(capsys, *argv, "--nmax", "50", "--catalog", str(extra))
            assert code == 2 and out == ""
            assert err.startswith("error: relation 'x': residue class N == 999 mod 1000")

    def test_verify_all_scans(self, capsys):
        # the catalog's scan classes start at N = 1, 2 and 3
        code, out, err = run(capsys, "verify", "all", "--scan-nmax", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: scan 'scan.")


class TestVerifyAll:
    @pytest.mark.parametrize("order", ["0", "5", "20"])
    def test_low_order_runs_the_whole_catalog(self, capsys, order):
        code, out, _ = run(capsys, "--format", "json", "verify", "all", "--order", order,
                           "--nmax", "10", "--scan-nmax", "10")
        assert code == 0
        records = json_records(out)
        assert len(records) == (len(load_identity_catalog()) + len(load_relation_catalog())
                                + len(load_scan_catalog()) + len(CLASSICAL_IDS))
        assert all(r["status"] in ("pass", "info") for r in records)


class TestOverflow:
    def test_overflow_is_reported_not_raised(self, capsys, monkeypatch):
        def overflow(args):
            raise CoefficientOverflowError("coefficient 2**64 exceeds 64-bit width")

        monkeypatch.setattr(cli, "_cmd_expand", overflow)
        code, _, err = run(capsys, "expand", "--name", "phi", "--order", "10")
        assert code == 2
        assert err.startswith("error: coefficient 2**64")

    def test_memory_error_is_reported_not_raised(self, capsys, monkeypatch):
        def too_large(args):
            raise MemoryError("Unable to allocate 186. GiB")

        monkeypatch.setattr(cli, "_cmd_scan", too_large)
        code, out, err = run(capsys, "scan", "--form", "Rt(1,1,4)", "--modulus", "4",
                             "--residue", "3", "--nmax", "100000000000")
        assert code == 2 and out == ""
        assert err.startswith("error: not enough memory: Unable to allocate")

    def test_identity_past_memory_is_usage_error(self, capsys):
        # through 2 * 10^11 half-units the one pair scatter of both sides
        # (all but the left side's outer factor, which theta_expand forms
        # after it) asks for a 7.28 TiB buffer; it must ask before it
        # forms a pair
        code, out, err = run(capsys, "verify", "thm1", "--k", "2", "--r", "1", "--g", "1",
                             "--h", "0", "--u", "1", "--v", "0", "--i", "1", "--j", "1",
                             "--order", "100000000000")
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: not enough memory: Unable to allocate 7.28 TiB")

    def test_identity_past_memory_forms_no_exponent(self, capsys, monkeypatch):
        # the scatter sizes its buffer from the rows' widths, so the request
        # fails before one term exponent is formed (the 13 requests would
        # form about 7.3 M)
        formed = []

        def refuse(requests):
            formed.append(requests)
            raise CoefficientOverflowError("term exponents were formed")

        monkeypatch.setattr(theta_module, "term_exponents", refuse)
        code, out, err = run(capsys, "verify", "thm1", "--k", "2", "--r", "1", "--g", "1",
                             "--h", "0", "--u", "1", "--v", "0", "--i", "1", "--j", "1",
                             "--order", "100000000000")
        assert code == 2 and out == "" and formed == []
        assert err.startswith("error: not enough memory:")

    def test_expand_past_memory_forms_no_exponent(self, capsys, monkeypatch):
        # theta_expand is one pair-scatter row: its 1.46 TiB buffer is asked
        # for before any term exponent is formed
        formed = []

        def refuse(requests):
            formed.append(requests)
            raise CoefficientOverflowError("term exponents were formed")

        monkeypatch.setattr(theta_module, "term_exponents", refuse)
        code, out, err = run(capsys, "expand", "--name", "phi", "--order", "100000000000")
        assert code == 2 and out == "" and formed == []
        assert err.startswith("error: not enough memory:")

    def test_records_stream_and_an_error_stops_the_stream(self, capsys, monkeypatch):
        # Athm1 has two relations: the first record prints before the second
        # one's check raises, so a buffered loop would print none
        calls = []
        verify_relation = cli.verify_relation

        def second_overflows(stmt, nmax):
            calls.append(stmt.id)
            if len(calls) == 2:
                raise CoefficientOverflowError("coefficient 2**64 exceeds 64-bit width")
            return verify_relation(stmt, nmax)

        monkeypatch.setattr(cli, "verify_relation", second_overflows)
        code, out, err = run(capsys, "--format", "json", "verify", "relation",
                             "--id", "Athm1", "--nmax", "50")
        assert code == 2 and err.startswith("error: coefficient 2**64")
        assert [r["params"]["id"] for r in json_records(out)] == ["Athm1.1"]


class TestExponentWidth:
    """A term exponent bound past 64 bits exits 2 on every stack.  The
    exponents were once Python ints there, which crashed the count tables
    with a TypeError and exit 1."""

    ARGV = [
        ("count", "--form", "r(4611686018427387904,1,1)", "--n", "3", "--method", "series"),
        ("count", "--form", "r(4611686018427387904,1,1)", "--n", "3", "--method", "both"),
        ("scan", "--form", "r(10000000000000000000,1,1)", "--modulus", "4",
         "--residue", "3", "--nmax", "50"),
        ("verify", "relation", "--id", "user.wide", "--nmax", "50", "--catalog", "CATALOG"),
        ("expand", "--name", "phi", "--scale", "5000000000000000000", "--order", "10"),
    ]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", ARGV, ids=["series", "both", "scan", "relation", "expand"])
    def test_is_usage_error(self, capsys, tmp_path, fmt, argv):
        catalog = tmp_path / "extra.json"
        catalog.write_text(json.dumps({"relations": [{
            "id": "user.wide", "lhs": {"form": "r", "coeffs": [2**62, 1, 1]}}]}))
        argv = [str(catalog) if a == "CATALOG" else a for a in argv]
        code, out, err = run(capsys, "--format", fmt, *argv)
        assert code == 2 and "Traceback" not in err
        assert err.startswith("error: term exponents of ThetaArg(")
        assert err.rstrip().endswith("past the 64-bit width")


class TestJsonDeterminism:
    CASES = [
        ("--format", "json", "expand", "--name", "X", "--scale", "2",
         "--order", "20"),
        ("--format", "json", "count", "--form", "pG(4,1,1)", "--range",
         "0..12", "--method", "both"),
        ("--format", "json", "verify", "thm1", "--k", "2", "--r", "1",
         "--g", "3", "--h", "1", "--u", "3", "--v", "1", "--i", "6",
         "--j", "2", "--eps", "1,1,1", "--order", "60"),
        ("--format", "json", "scan", "--form", "rpg(3,4,1)", "--modulus", "4",
         "--residue", "2", "--nmax", "500"),
        ("--format", "json", "verify", "thm2", "--k", "2", "--r", "1", "--s", "1",
         "--t", "1", "--i", "2", "--j", "0", "--eps", "-1", "--order", "60"),
        ("--format", "json", "verify", "corollary", "--id", "cor1", "--k", "2",
         "--r", "1", "--order", "60"),
        ("--format", "json", "verify", "corollary", "--id", "clp2.2", "--m", "2",
         "--order", "60"),
        ("--format", "json", "verify", "relation", "--id", "Athm11.3", "--nmax", "200"),
        ("--format", "json", "verify", "classical", "--id", "liouville", "--nmax", "300"),
    ]
    IDS = ["expand", "count", "verify", "scan", "thm2", "corollary", "signed-pair",
           "relation", "classical"]

    @pytest.mark.parametrize("argv", CASES, ids=IDS)
    def test_payload_round_trips(self, capsys, argv):
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        p1 = [r["payload"] for r in json_records(out1)]
        p2 = [r["payload"] for r in json_records(out2)]
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)

    @pytest.mark.parametrize("argv", CASES, ids=IDS)
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

    def test_elapsed_ms_keeps_sub_millisecond_time(self, capsys, monkeypatch):
        # a clock that moves 0.4 ms per reading: a record that takes less
        # than a millisecond reads 0.4, not 0
        ticks = iter(range(1000))
        monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks) * 4e-4)
        _, out, _ = run(capsys, "--format", "json", "count", "--form",
                        "G(1,1,2)", "--n", "1")
        monkeypatch.undo()
        assert json_records(out)[0]["elapsed_ms"] == 0.4


class TestCountRange:
    @pytest.mark.parametrize("method", ["enumerate", "series", "both"])
    @pytest.mark.parametrize("text", ["5..3", "7", "a..b", "1..2..3"])
    def test_empty_or_malformed_range_is_usage_error(self, capsys, method, text):
        # an empty range checks nothing, so it must not print a vacuous [pass]
        code, out, err = run(capsys, "count", "--form", "r(1,1,1)", "--range", text,
                             "--method", method)
        assert code == 2 and out == ""
        assert err.startswith("error: bad range")

    @pytest.mark.parametrize("text,values", [("-3..-1", [0, 0, 0]), ("-1..1", [0, 1, 6])])
    def test_negative_arguments_count_zero(self, capsys, text, values):
        code, out, _ = run(capsys, "--format", "json", "count", "--form", "r(1,1,1)",
                           f"--range={text}", "--method", "both")
        rec = json_records(out)[0]
        assert code == 0 and rec["status"] == "pass"
        assert [row["value"] for row in rec["payload"]["values"]] == values

    def test_negative_range_as_its_own_argument(self, capsys):
        # argparse used to refuse `--range -3..-1`: the value starts with '-'
        code, out, _ = run(capsys, "--format", "json", "count", "--form", "r(1,1,1)",
                           "--range", "-3..-1", "--method", "both")
        rec = json_records(out)[0]
        assert code == 0 and rec["params"]["range"] == "-3..-1"
        assert [row["value"] for row in rec["payload"]["values"]] == [0, 0, 0]

    def test_series_method_reads_the_count_table(self, capsys, monkeypatch):
        # the series column is the count-table builder's column, read at N;
        # no count path builds the half-grid generating series
        def refuse(*args):
            raise AssertionError("count_series called")

        monkeypatch.setattr(repcount, "count_series", refuse)
        monkeypatch.setattr(cli, "count_series", refuse, raising=False)
        code, out, _ = run(capsys, "--format", "json", "count", "--form", "rpg(3,4,1)",
                           "--range", "-3..40", "--method", "both")
        rec = json_records(out)[0]
        assert code == 0 and rec["status"] == "pass"
        spec = cli._parse_form("rpg(3,4,1)")
        assert [(row["n"], row["series"]) for row in rec["payload"]["values"]] == [
            (n, count_enumerate(spec, n)) for n in range(-3, 41)]


def _bound(top=10**4):
    return st.integers(-2, top).map(str)


def _small():
    return st.integers(-2, 7).map(str)


def _form():
    names = st.sampled_from(sorted(REGISTRY) + ["zz"])
    coeff = st.integers(0, 6)
    return st.builds(lambda n, a, b, c: f"{n}({a},{b},{c})", names, coeff, coeff, coeff)


def _flags(optional=(), **pairs):
    """argv pieces ``--flag value``; the flags named in ``optional`` may be left out."""
    return st.fixed_dictionaries({
        k: st.one_of(st.none(), v) if k in optional else v for k, v in pairs.items()
    }).map(lambda d: [x for k, v in d.items() if v is not None
                      for x in (f"--{k.replace('_', '-')}", v)])


_EPS = st.sampled_from(["1", "-1", "0", "2", "1,1,1", "-1,1,-1", "1,-1", "x"])
_THETA = st.tuples(*[st.integers(-3, 3)] * 3).map(lambda t: ",".join(map(str, t)))

# argv drawn from each subcommand's grammar: values may lie outside their
# domain and bounds reach 10^4 (2000 for the identity checks, and verify
# all, which runs the whole catalog, stays small)
_ARGV = st.one_of(
    st.tuples(st.just(["expand"]), st.one_of(
        st.builds(lambda n: ["--name", n], st.sampled_from(["phi", "psi", "f", "X", "Y"])),
        st.builds(lambda t: ["--theta", t], _THETA),
    ), _flags(("scale",), scale=_small(), order=_bound())),
    st.tuples(st.just(["verify", "thm1"]),
              _flags(("eps", "order"), **{f: _small() for f in "krghuvij"}, eps=_EPS,
                     order=_bound(2000))),
    st.tuples(st.just(["verify", "thm2"]),
              _flags(("eps", "order"), **{f: _small() for f in "krstij"}, eps=_EPS,
                     order=_bound(2000))),
    st.tuples(st.just(["verify", "corollary"]),
              _flags(("k", "r", "m", "order"),
                     id=st.sampled_from(["cor1", "cor2", "cor3", "cor4", "clp2.1",
                                         "clp2.5", "clp2.8", "nope"]),
                     k=_small(), r=_small(), m=_small(), order=_bound(2000))),
    st.tuples(st.just(["verify", "relation"]),
              _flags(("nmax",), id=st.sampled_from(["Athm1", "Athm11.3", "AAthm3", "nope"]),
                     nmax=_bound())),
    st.tuples(st.just(["verify", "classical"]),
              _flags(id=st.sampled_from(list(CLASSICAL_IDS) + ["nope"]), nmax=_bound())),
    st.tuples(st.just(["verify", "all"]),
              _flags(("order", "nmax", "scan_nmax"), order=_bound(20), nmax=_bound(50),
                     scan_nmax=_bound(100))),
    st.tuples(st.just(["count"]), _flags(form=_form()), st.one_of(
        st.builds(lambda n: ["--n", n], _bound()),
        st.builds(lambda a, d: [f"--range={a}..{a + d}"],
                  st.integers(-2, 10**4), st.integers(-3, 5)),
    ), _flags(("method",), method=st.sampled_from(["enumerate", "series", "both", "all"]))),
    st.tuples(st.just(["scan"]),
              _flags(form=_form(), modulus=_small(), residue=_small(), nmax=_bound())),
).map(lambda parts: [x for part in parts for x in part])


class TestRobustness:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fmt=st.sampled_from([[], ["--format", "json"]]), argv=_ARGV)
    def test_no_argv_raises(self, fmt, argv):
        # exit 0, 1 or 2 and never a traceback; argparse reports a usage
        # error by raising SystemExit(2)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main(fmt + argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)


# values of the wrong JSON type for any catalog field
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(-3, 3),
                  st.text(max_size=3), st.just([]), st.just({}), st.just([1, 1, 1]))
_FORMS = ["r", "T", "Rt", "rT", "tpg"]


def _or_junk(valid):
    return st.one_of(valid, valid, valid, _JUNK)  # mostly well typed


# a well-formed count: its scalar times a count may pass 64 bits
_COUNT = st.fixed_dictionaries({
    "form": st.sampled_from(_FORMS),
    "coeffs": st.lists(st.integers(1, 5), min_size=3, max_size=3),
}, optional={
    "alpha": st.integers(1, 4),
    "beta": st.integers(-20, 20),
    "scalar": st.sampled_from([-3, -2, -1, 1, 2, 3]) | st.sampled_from([2**59, -(2**62)]),
})

# any count: every field may be missing, ill-typed or out of its domain,
# and alpha, beta and scalar reach past 64 bits
_ANY_COUNT = st.fixed_dictionaries({
    "form": _or_junk(st.sampled_from(_FORMS + ["zz"])),
    "coeffs": _or_junk(st.lists(st.integers(-1, 5), min_size=2, max_size=4)),
}, optional={
    "alpha": _or_junk(st.integers(-1, 4) | st.just(2**63)),
    "beta": _or_junk(st.integers(-20, 20) | st.sampled_from([-(10**20), 2**63])),
    "scalar": _or_junk(st.integers(-3, 3) | st.sampled_from([2**62, 10**20, -(2**63)])),
})

_ROW = st.fixed_dictionaries({
    "id": st.just("user.x"),
    "lhs": _COUNT,
    "rhs": st.lists(_COUNT, max_size=3),
}, optional={
    "residue": st.integers(1, 6).flatmap(
        lambda m: st.builds(lambda r: [m, r], st.integers(0, m - 1))),
    "status": st.sampled_from(["pinned", "empirical"]),
})

# the two sides are one count, so the relation holds
_TAUTOLOGY = st.builds(lambda row: {**row, "rhs": [row["lhs"]]}, _ROW)

_ANY_ROW = st.fixed_dictionaries({
    "id": _or_junk(st.sampled_from(["user.x", "user.x.1", "other"])),
}, optional={
    "lhs": _or_junk(_ANY_COUNT),
    "rhs": _or_junk(st.lists(_ANY_COUNT, max_size=3)),
    "residue": _or_junk(st.lists(st.integers(-1, 6), max_size=3) | st.just([10**20, 3])),
    "status": _or_junk(st.sampled_from(["pinned", "empirical", "bogus"])),
})

_CATALOG = st.one_of(
    st.one_of(_ROW, _TAUTOLOGY, _ANY_ROW).map(lambda row: {"relations": [row]}),
    _ANY_ROW.map(list), _JUNK,
)


def _enumerated_sides(rel, nmax: int) -> dict:
    """N -> the scaled count of every reference, by enumeration in Python ints."""
    m, r = rel.residue_class or (1, 0)
    return {n: [ref.scalar * count_enumerate(ref.spec, ref.alpha * n + ref.beta)
                for ref in (rel.lhs, *rel.rhs)] for n in range(r, nmax + 1, m)}


class TestCatalogRows:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(catalog=_CATALOG, nmax=st.integers(0, 50))
    def test_outcome_is_confirmed_by_enumeration(self, catalog, nmax):
        # exit 0, 1 or 2 and never a traceback; a relation is checked only
        # when both sides are proven to fit in 64 bits, and a reported fail
        # is the smallest N where enumeration finds the two sides differ
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "extra.json"
            path.write_text(json.dumps(catalog))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["--format", "json", "verify", "relation", "--id", "user.x",
                             "--nmax", str(nmax), "--catalog", str(path)])
            if code == 2:
                assert out.getvalue() == "" and err.getvalue().startswith("error: ")
                return
            rels = [r for r in load_relation_catalog(path) if r.id.startswith("user.x")]
        assert code in (0, 1), code
        records = json_records(out.getvalue())
        assert len(records) == len(rels) == 1
        rel, record = rels[0], records[0]
        sides = _enumerated_sides(rel, nmax)
        if sides:
            widest = [max(abs(v[i]) for v in sides.values()) for i in range(1 + len(rel.rhs))]
            assert widest[0] <= COEFF_LIMIT and sum(widest[1:]) <= COEFF_LIMIT
        first = next(((n, v[0], sum(v[1:])) for n, v in sides.items()
                      if v[0] != sum(v[1:])), None)
        outcome = record["payload"].get("outcome", record["status"])
        assert outcome == ("pass" if first is None else "fail")
        if first is not None:
            assert tuple(record["payload"]["counterexample"][k]
                         for k in ("n", "lhs", "rhs")) == first
        assert code == (1 if first is not None and rel.status == "pinned" else 0)
