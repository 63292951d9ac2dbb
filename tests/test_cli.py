"""Command-line interface: flags, exit codes, JSON determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thetaq import cli
from thetaq.cli import main
from thetaq.identity import load_identity_catalog
from thetaq.relations import CLASSICAL_IDS, load_relation_catalog, load_scan_catalog
from thetaq.repcount import REGISTRY
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

    THM1 = ("verify", "thm1", "--k", "2", "--r", "1", "--g", "1", "--h", "0",
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
