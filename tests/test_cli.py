import json
import math
import re
import shlex
from importlib import resources
from pathlib import Path

import pytest

from l2tor.anomaly import anomaly_coefficients
from l2tor.cli import build_parser, main
from l2tor.heattrace import TorsionResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_command_prints_usage(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_sdf_check_json_and_exit_code(capsys):
    code, out, _ = run_cli(capsys, "sdf-check", "--suite", "basic",
                           "--seed", "3", "--instances", "4", "--max-dim", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "basic"
    assert payload["seed"] == 3
    assert payload["violations"] == []
    assert payload["probes"] > 0


def test_sdf_check_deterministic_bytes(capsys):
    _, a, _ = run_cli(capsys, "sdf-check", "--suite", "block",
                      "--seed", "9", "--instances", "3")
    _, b, _ = run_cli(capsys, "sdf-check", "--suite", "block",
                      "--seed", "9", "--instances", "3")
    assert a == b


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("L2TOR_SEED", "4242")
    code, out, _ = run_cli(capsys, "sdf-check", "--suite", "basic",
                           "--instances", "2")
    assert json.loads(out)["seed"] == 4242


def test_bad_seed_env_stops_only_the_seeded_commands(capsys, monkeypatch):
    monkeypatch.setenv("L2TOR_SEED", "abc")
    code, out, err = run_cli(capsys, "hyperbolic", "--op", "constant")
    assert code == 0 and err == ""
    for argv in (["sdf-check", "--suite", "basic", "--instances", "1"], ["selftest", "--quick"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: L2TOR_SEED must be an integer, got 'abc'\n"


_BASIC = ["sdf-check", "--suite", "basic"]


@pytest.mark.parametrize("argv, message", [
    ([*_BASIC, "--instances", "-3"], "instances must be an integer in [1, inf), got -3"),
    ([*_BASIC, "--instances", "0"], "instances must be an integer in [1, inf), got 0"),
    ([*_BASIC, "--max-dim", "0"], "max_dim must be an integer in [1, inf), got 0"),
    ([*_BASIC, "--seed", "-1"], "seed must be an integer in [0, inf), got -1"),
    (["selftest", "--quick", "--seed", "-1"], "seed must be an integer in [0, inf), got -1"),
], ids=["negative-instances", "zero-instances", "zero-max-dim", "negative-seed",
        "selftest-negative-seed"])
def test_counts_that_check_nothing_are_refused(capsys, argv, message):
    # the selftest refuses before its environment line and its first criterion
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_zeta_det_trace_dsmall(capsys, tmp_path):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps([[1.0, 1.0], [4.0, 2.0]]))
    code, out, _ = run_cli(capsys, "zeta", "--spectrum", str(spec), "--op", "det")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(16.0, rel=1e-9)
    code, out, _ = run_cli(capsys, "zeta", "--spectrum", str(spec),
                           "--op", "trace", "--t", "1.0")
    assert json.loads(out)["value"] == pytest.approx(
        math.exp(-1) + 2 * math.exp(-4), rel=1e-12)
    code, out, _ = run_cli(capsys, "zeta", "--spectrum", str(spec), "--op", "dsmall")
    assert code == 0
    assert "value" in json.loads(out)


def test_zeta_error_estimates_are_computed(capsys, tmp_path):
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps([[1.0, 1.0]]))
    code, out, _ = run_cli(capsys, "zeta", "--spectrum", str(spec), "--op", "det")
    det = json.loads(out)
    assert code == 0 and det["value"] == pytest.approx(1.0, rel=1e-15)
    assert det["errorEstimate"] != 1e-10
    assert 0.0 < det["errorEstimate"] < 1e-14
    code, out, _ = run_cli(capsys, "zeta", "--spectrum", str(spec), "--op", "trace")
    trace = json.loads(out)
    assert trace["errorEstimate"] != 0.0
    assert trace["errorEstimate"] <= 1e-15 * trace["value"]


def test_zeta_det_matches_product_of_eigenvalues(capsys, tmp_path):
    pairs = [[0.0, 1.0], [1e-3, 2.0], [0.37, 0.5], [2.5, 1.0 / 3.0], [40.0, 1.0]]
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps(pairs))
    code, out, _ = run_cli(capsys, "zeta", "--spectrum", str(spec), "--op", "det")
    expected = math.exp(sum(w * math.log(lam) for lam, w in pairs if lam > 0))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-12)


def test_zeta_torsion_multi_degree(capsys, tmp_path):
    spec = tmp_path / "d.json"
    spec.write_text(json.dumps({"degrees": [
        {"p": 1, "spectrum": [[1.0, 1.0]]},
        {"p": 2, "spectrum": [[2.0, 1.0]]},
    ]}))
    code, out, _ = run_cli(capsys, "zeta", "--spectrum", str(spec), "--op", "torsion")
    assert code == 0
    payload = json.loads(out)
    assert {d["p"] for d in payload["perDegree"]} == {1, 2}


# stdout of `zeta` on fixed files, pinned byte for byte: a flat spectrum
# with a zero mode and eigenvalues on both sides of 1, four degrees, one with
# a zero mode, and for each branch of Ein a spectrum that takes only it: all
# eigenvalues below 1 (the series), and all at or above 1 (E1 + log + gamma)
_GOLDEN_FLAT = [[0.0, 2.0], [0.25, 1.0], [0.5, 0.5], [0.999, 1.0], [1.0, 2.0],
                [3.5, 1.0 / 3.0], [17.0, 1.0]]
_GOLDEN_DEGREES = {"degrees": [
    {"p": 0, "spectrum": [[0.3, 1.0], [2.0, 2.0]]},
    {"p": 1, "spectrum": [[0.0, 1.0], [0.05, 0.5], [0.7, 1.0], [4.0, 3.0], [12.0, 1.0]]},
    {"p": 2, "spectrum": [[1.5, 1.0], [0.9, 2.0], [6.0, 0.5]]},
    {"p": 3, "spectrum": [[0.01, 1.0]]}]}
_GOLDEN_BELOW_ONE = [[0.02, 1.0], [0.3, 2.0], [0.5, 0.5], [0.999, 1.0]]
_GOLDEN_FROM_ONE = [[0.0, 1.0], [1.0, 1.0], [2.5, 2.0], [40.0, 0.5]]


@pytest.mark.parametrize("spectrum, op, stdout", [
    (_GOLDEN_FLAT, "det", """\
{
  "errorEstimate": 1.2546010588018184e-13,
  "op": "det",
  "value": 4.558221604701244
}
"""),
    (_GOLDEN_FLAT, "dsmall", """\
{
  "errorEstimate": 2.135325584968514e-14,
  "op": "dsmall",
  "value": -3.501945413392645
}
"""),
    (_GOLDEN_FLAT, "torsion", """\
{
  "errorEstimate": 2.7523915412709465e-14,
  "op": "torsion",
  "perDegree": [
    {
      "large": 1.9850128649047523,
      "p": 1,
      "small": -3.501945413392645
    }
  ],
  "value": 1.5169325484878928
}
"""),
    (_GOLDEN_DEGREES, "torsion", """\
{
  "errorEstimate": 7.537577269037237e-14,
  "op": "torsion",
  "perDegree": [
    {
      "large": 1.003477673091969,
      "p": 0,
      "small": -1.1857992298859235
    },
    {
      "large": 1.6190566198262255,
      "p": 1,
      "small": -6.408305272258169
    },
    {
      "large": 0.6205675022847132,
      "p": 2,
      "small": -1.7111913136912524
    },
    {
      "large": 4.037929576538113,
      "p": 3,
      "small": 0.5672406094499776
    }
  ],
  "value": -11.207509528345408
}
"""),
    (_GOLDEN_BELOW_ONE, "det", """\
{
  "errorEstimate": 2.4601439340525532e-17,
  "op": "det",
  "value": 0.0012715194139296514
}
"""),
    (_GOLDEN_FROM_ONE, "det", """\
{
  "errorEstimate": 6.020442106900765e-13,
  "op": "det",
  "value": 39.52847075210475
}
"""),
], ids=["flat-det", "flat-dsmall", "flat-torsion", "degrees-torsion", "below-one-det",
        "from-one-det"])
def test_zeta_stdout_is_pinned(capsys, tmp_path, spectrum, op, stdout):
    spec = tmp_path / "spectrum.json"
    spec.write_text(json.dumps(spectrum))
    code, out, _ = run_cli(capsys, "zeta", "--spectrum", str(spec), "--op", op)
    assert code == 0
    assert out == stdout


def test_hyperbolic_constant(capsys):
    code, out, _ = run_cli(capsys, "hyperbolic", "--m", "3", "--op", "constant")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(-1.0 / (3.0 * math.pi),
                                                     abs=1e-6)


def test_hyperbolic_constant_stdout_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "hyperbolic", "--m", "3", "--op", "constant")
    assert code == 0
    assert out == """\
{
  "errorEstimate": 4.790573857642657e-15,
  "m": 3,
  "op": "constant",
  "perDegree": [
    {
      "large": 0.002839447938079977,
      "p": 0,
      "small": 0.05021219975921848
    },
    {
      "large": 0.21235775708410762,
      "p": 1,
      "small": -0.15930610938680917
    },
    {
      "large": 0.21235775708410762,
      "p": 2,
      "small": -0.15930610938680917
    },
    {
      "large": 0.002839447938079977,
      "p": 3,
      "small": 0.05021219975921848
    }
  ],
  "value": -0.10610329539459692
}
"""


def test_hyperbolic_even_dimension(capsys):
    code, out, _ = run_cli(capsys, "hyperbolic", "--m", "4", "--op", "constant")
    payload = json.loads(out)
    assert payload["value"] == 0.0
    assert payload["perDegree"] == [] and payload["errorEstimate"] == 0.0


def test_hyperbolic_constant_per_degree(capsys):
    # the per-degree parts, shaped as in zeta --op torsion, sum to the constant
    code, out, _ = run_cli(capsys, "hyperbolic", "--m", "3", "--op", "constant")
    assert code == 0
    payload = json.loads(out)
    assert [d["p"] for d in payload["perDegree"]] == [0, 1, 2, 3]
    total = 0.0
    for d in payload["perDegree"]:
        total += (-1) ** d["p"] * d["p"] * (d["small"] + d["large"])
    assert total == payload["value"]
    assert payload["value"] == pytest.approx(-1.0 / (3.0 * math.pi), abs=1e-9)
    assert 0.0 < payload["errorEstimate"] < 1e-6


def test_hyperbolic_density_and_cusp(capsys):
    code, out, _ = run_cli(capsys, "hyperbolic", "--m", "3", "--op", "density",
                           "--p", "0", "--t", "0.5")
    expected = math.exp(-0.5) / (4 * math.pi * 0.5) ** 1.5
    assert json.loads(out)["value"] == pytest.approx(expected, rel=1e-9)
    code, out, _ = run_cli(capsys, "hyperbolic", "--m", "3", "--op", "cusp",
                           "--cross-section", "1.0", "--height", "0.0")
    assert json.loads(out)["value"] == pytest.approx(0.5)


def test_heatcmp_csv_and_verdict(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "heatcmp", "--pair", "halfline-line",
                           "--K", "1.0", "--csv", str(csv_path))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["ok"] is True
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,x,diff,bound"


@pytest.mark.parametrize("pair, stdout", [
    ("halfline-line", """\
{
  "best": [
    0.27502480534494167,
    4.0
  ],
  "closed_form_violations": [],
  "fitted_c1": {
    "1.0": {
      "0.5": 3.1071971630479682,
      "1.0": 2.2206448077549723,
      "2.0": 1.3431427944413332
    },
    "2.0": {
      "0.5": 0.33655834060406065,
      "1.0": 0.16791378333100335,
      "2.0": 0.08367019259502265
    },
    "4.0": {
      "0.5": 0.27502480534494167,
      "1.0": 0.13736936852450704,
      "2.0": 0.06852373928724337
    }
  },
  "monotone_in_cutoff": true,
  "ok": true,
  "pair": [
    "halfLineNeumann",
    "line"
  ],
  "probes": 2112,
  "sup_bound": {
    "argmax": [
      1.0,
      0.0,
      0.0
    ],
    "attained_on_initial_diagonal": true,
    "diagonal_max_at_t0": 0.5641895835477563,
    "sup": 0.5641895835477563
  }
}
"""),
    ("interval-halfline", """\
{
  "best": [
    0.2665498696211344,
    4.0
  ],
  "closed_form_violations": [],
  "fitted_c1": {
    "1.0": {
      "0.5": 3.4493198875166655,
      "1.0": 2.1668224429596994,
      "2.0": 2.1668224429596994
    },
    "2.0": {
      "0.5": 0.32664350237629536,
      "1.0": 0.24298243146326276,
      "2.0": 0.24298243146326276
    },
    "4.0": {
      "0.5": 0.2665498696211344,
      "1.0": 0.19402541239700408,
      "2.0": 0.19402541239700408
    }
  },
  "monotone_in_cutoff": true,
  "ok": true,
  "pair": [
    "intervalNeumann",
    "halfLineNeumann"
  ],
  "probes": 2112,
  "sup_bound": {
    "argmax": [
      1.0,
      0.0,
      0.0
    ],
    "attained_on_initial_diagonal": true,
    "diagonal_max_at_t0": 0.5643288365997033,
    "sup": 0.5643288365997033
  }
}
"""),
])
def test_heatcmp_stdout_is_pinned(capsys, pair, stdout):
    code, out, _ = run_cli(capsys, "heatcmp", "--pair", pair)
    assert code == 0
    assert out == stdout


def test_anomaly_json(capsys):
    code, out, _ = run_cli(capsys, "anomaly", "--dim", "3", "--u", "0.5")
    payload = json.loads(out)
    assert payload["sum"] == pytest.approx(-1.5 / (4 * math.pi), abs=1e-12)
    assert payload["psiTables"]["psi_N"] == [1, 2, 1, 0]


def test_anomaly_custom_expression(capsys):
    code, out, _ = run_cli(capsys, "anomaly", "--dim", "2",
                           "--f", "1 + u*x*(2 + x)", "--u", "0.0")
    assert code == 0
    payload = json.loads(out)
    # normal derivative of the variation multiple is 2 at u = 0
    assert payload["sum"] == pytest.approx(-2.0 / (4 * math.pi), abs=1e-12)


def test_anomaly_expression_matches_the_python_expression(capsys):
    # the parsed factor gives the same report as the expression evaluated by
    # Python on jets, with exp, log and sqrt acting on jets
    from l2tor.anomaly import ConformalFamily, Jet
    text = "(1 + u*x*(2 + x))**2 - exp(x)/3 + sqrt(4 + x)*log(2 + x*x) + pi*u*x**3/(1 + x)**-2"

    def python_factor(x, u):
        exp, log, sqrt = (lambda v: Jet.lift(v).exp()), (lambda v: Jet.lift(v).log()), \
            (lambda v: Jet.lift(v).sqrt())
        return ((1 + u*x*(2 + x))**2 - exp(x)/3 + sqrt(4 + x)*log(2 + x*x)
                + math.pi*u*x**3/(1 + x)**-2)

    code, out, _ = run_cli(capsys, "anomaly", "--dim", "2", "--f", text, "--u", "0.25")
    assert code == 0
    family = ConformalFamily(2, python_factor, name=f"expr:{text}")
    ref = anomaly_coefficients(family, 0.25)
    expected = {"dim": 2, "family": family.name, "u": 0.25, "d": ref.d_per_degree,
                "sum": ref.alternating_sum, "psiTables": ref.psi_tables,
                "diagnostics": ref.diagnostics}
    assert json.loads(out) == json.loads(json.dumps(expected, default=float))


@pytest.mark.parametrize("expr", [
    "y", "1 +", "x.real", "().__class__", "().__class__.__base__.__subclasses__()",
    "x[0]", "lambda: 1", "abs(x)", "__import__('os')", "exp(x, x)", "exp(x=1)",
    "x ** 0.5", "x ** u", "2 ** 100", "x if u else 1", "+x", "x // 2", "x % 2",
    "'a'", "True", "1j", "[x]", "x < u", "(lambda z: z)(x)",
], ids=lambda e: e)
def test_anomaly_expression_rejects_constructs(capsys, expr):
    code, out, err = run_cli(capsys, "anomaly", "--dim", "2", "--f", expr)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --f")
    assert len(err.splitlines()) == 1


def test_anomaly_expression_arithmetic_error_is_input_error(capsys):
    code, out, err = run_cli(capsys, "anomaly", "--dim", "2", "--f", "1/(x - x)")
    assert code == 2
    assert err.startswith("error: --f")


def test_anomaly_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "anomaly", "--dim", "2", "--sweep", "0:1:3")
    lines = out.strip().splitlines()
    assert lines[0].startswith("u,sum")
    assert len(lines) == 4


def test_anomaly_sweep_of_one_point(capsys):
    code, out, _ = run_cli(capsys, "anomaly", "--dim", "2", "--sweep", "0.5:1:1")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()] == ["u", "0.5"]


@pytest.mark.parametrize("placement", ["subcommand", "top-level"])
def test_anomaly_sweep_writes_its_csv_to_output(capsys, tmp_path, placement):
    sweep = ["anomaly", "--dim", "3", "--sweep", "0:1:4"]
    _, stdout, _ = run_cli(capsys, *sweep)
    path = tmp_path / "sweep.csv"
    argv = ([*sweep, "--output", str(path)] if placement == "subcommand"
            else ["--output", str(path), *sweep])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == ""
    assert path.read_bytes() == stdout.encode()


def test_jsj_json_and_text(capsys, tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "name": "unit", "boundaryTori": 1,
        "pieces": [{"kind": "hyperbolic", "volume": 3.0 * math.pi,
                    "label": "u"}]}))
    code, out, _ = run_cli(capsys, "jsj", "--input", str(manifest))
    assert code == 0
    assert json.loads(out)["torsion"] == pytest.approx(-1.0)
    code, out, _ = run_cli(capsys, "jsj", "--input", str(manifest),
                           "--report", "text")
    assert "torsion: -1" in out


def test_jsj_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "jsj", "--input", "/no/such/file.json")
    assert code == 2
    assert err == "error: [Errno 2] No such file or directory: '/no/such/file.json'\n"


@pytest.mark.parametrize("argv, option, name", [
    (["zeta", "--op", "det"], "--spectrum", "spectrum.json"),
    (["hyperbolic", "--op", "constant"], "--table", "table.json"),
    (["jsj"], "--input", "manifest.json"),
    (["jsj"], "--input", "manifest.csv"),
], ids=["spectrum", "table", "json-manifest", "csv-manifest"])
def test_missing_input_file_gives_one_message(capsys, tmp_path, argv, option, name):
    path = tmp_path / name
    code, out, err = run_cli(capsys, *argv, option, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_jsj_schema_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "pieces": [{"kind": "sol"}]}))
    code, _, err = run_cli(capsys, "jsj", "--input", str(bad))
    assert code == 2
    assert "allowed kinds" in err


def test_output_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "--output", str(out_path),
                           "hyperbolic", "--m", "3", "--op", "constant")
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["value"] == pytest.approx(
        -1.0 / (3.0 * math.pi), abs=1e-6)


def test_output_flag_after_subcommand(capsys, tmp_path):
    out_path = tmp_path / "after.json"
    code, out, _ = run_cli(capsys, "hyperbolic", "--m", "3", "--op", "constant",
                           "--output", str(out_path))
    assert code == 0
    assert out == ""
    assert "value" in json.loads(out_path.read_text())


def test_config_option_is_usage_error(capsys):
    # there is no config file: --output, --seed and L2TOR_SEED set a run
    with pytest.raises(SystemExit) as exc:
        main(["--config", "x.json", "hyperbolic", "--m", "4", "--op", "constant"])
    assert exc.value.code == 2


def test_anomaly_family_option_is_gone():
    # every accepted preset name selected the family of --dim; --f overrides it
    with pytest.raises(SystemExit) as exc:
        main(["anomaly", "--dim", "3", "--family", "paper"])
    assert exc.value.code == 2


def test_zeta_m_option_is_gone():
    # a finite spectrum's expansion is its constant term at every m
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--spectrum", "s.json", "--m", "0"])
    assert exc.value.code == 2


def _table_component(shift, poly) -> dict:
    """A density table whose one component has the given shift and poly."""
    return {"m": 3, "rows": [{"p": 0, "components": [{"shift": shift, "poly": poly}]}]}


def _packaged_table_with_scalar_poly(coefficient: float) -> dict:
    """The packaged table with the r^2 coefficient of degree 0 replaced."""
    table = json.loads(resources.files("l2tor.data").joinpath("plancherel_h3.json").read_text())
    (row,) = [row for row in table["rows"] if row["p"] == 0]
    row["components"][0]["poly"][2] = coefficient
    return table


@pytest.mark.parametrize("argv, infile, message", [
    (["zeta", "--op", "det"], None, None),
    (["hyperbolic", "--op", "density", "--m", "5"], None, None),
    (["hyperbolic", "--op", "constant", "--m", "5"], None, None),
    (["anomaly", "--dim", "3", "--sweep", "a:b"], None, None),
    (["anomaly", "--dim", "3", "--sweep", "nan:1:3"], None,
     "error: --sweep expects u0:u1:n with finite bounds u0, u1\n"),
    (["anomaly", "--dim", "3", "--sweep=-inf:0:3"], None,
     "error: --sweep expects u0:u1:n with finite bounds u0, u1\n"),
    (["anomaly", "--dim", "3", "--sweep", "0:1:1.5"], None,
     "error: --sweep expects u0:u1:n with finite bounds u0, u1\n"),
    # the point count is checked before linspace builds an array of n points
    *((["anomaly", "--dim", "3", "--sweep", f"0:1:{n}"], None,
       f"error: the point count n of --sweep must be an integer in [1, 100000], got {n}\n")
      for n in ("0", "-1", "100001", "1000000000000")),
    # every distance to the boundary is >= 0: a cutoff <= 0 would compare
    # nothing, and K/2 or 2K may round to 0 or overflow
    (["heatcmp", "--pair", "halfline-line", "--K", "-1"], None,
     "error: the cutoff K/2, K or 2K of --K must be in (0, inf), got -2.0\n"),
    (["heatcmp", "--pair", "interval-halfline", "--K", "0"], None,
     "error: the cutoff K/2, K or 2K of --K must be in (0, inf), got 0.0\n"),
    (["heatcmp", "--pair", "halfline-line", "--K", "5e-324"], None,
     "error: the cutoff K/2, K or 2K of --K must be in (0, inf), got 0.0\n"),
    (["heatcmp", "--pair", "halfline-line", "--K", "1e308"], None,
     "error: the cutoff K/2, K or 2K of --K must be in (0, inf), got inf\n"),
    # det = 1000^200 overflows a double, 0.001^200 underflows to 0
    (["zeta", "--op", "det"], ("--spectrum", [[1000.0, 200.0]]), None),
    (["zeta", "--op", "det"], ("--spectrum", [[0.001, 200.0]]), None),
    (["hyperbolic", "--op", "density", "--t", "1e-300"], None,
     "error: heat density of degree 0 overflows a double at t = 1e-300\n"),
    (["hyperbolic", "--op", "cusp", "--height", "-1000"], None,
     "error: cusp volume overflows a double at height -1000\n"),
    # malformed input files name the file and the field
    (["hyperbolic", "--op", "density"], ("--table", {}),
     "error: {path}: missing field 'm'\n"),
    (["hyperbolic", "--op", "density"], ("--table", {"m": 3, "rows": [{"p": 0}]}),
     "error: {path}.rows[0]: missing field 'components'\n"),
    (["hyperbolic", "--op", "density"], ("--table", [{"m": 3}]),
     "error: {path}: expected an object\n"),
    (["hyperbolic", "--op", "density"],
     ("--table", {"m": 3, "rows": [{"p": 7, "components": []}]}),
     "error: {path}.rows[0].p: p must be in [0, 3], got 7\n"),
    (["zeta", "--op", "torsion"], ("--spectrum", {"degrees": [{"p": 1}]}),
     "error: {path}.degrees[0]: missing field 'spectrum'\n"),
    (["zeta", "--op", "det"], ("--spectrum", [[1.0]]),
     "error: {path}[0]: expected [eigenvalue, weight]\n"),
    # degrees are integers, each given once
    (["zeta", "--op", "torsion"],
     ("--spectrum", {"degrees": [{"p": 1.5, "spectrum": [[2.0, 1.0]]}]}),
     "error: {path}.degrees[0].p: expected an integer, got 1.5\n"),
    (["zeta", "--op", "torsion"],
     ("--spectrum", {"degrees": [{"p": True, "spectrum": [[2.0, 1.0]]}]}),
     "error: {path}.degrees[0].p: expected an integer, got True\n"),
    (["zeta", "--op", "torsion"],
     ("--spectrum", {"degrees": [{"p": 1, "spectrum": [[2.0, 1.0]]},
                                 {"p": 1.0, "spectrum": [[3.0, 1.0]]}]}),
     "error: {path}.degrees[1].p: degree 1 appears twice\n"),
    (["zeta", "--op", "torsion"],
     ("--spectrum", {"degrees": [{"p": 1, "spectrum": [[2.0, 1.0]]},
                                 {"p": -1, "spectrum": [[3.0, 1.0]]}]}),
     "error: {path}.degrees[1].p: degree -1 is negative\n"),
    (["hyperbolic", "--op", "constant", "--m", "3"], ("--table", {"m": 3.9, "rows": []}),
     "error: {path}.m: expected an integer, got 3.9\n"),
    (["hyperbolic", "--op", "density"],
     ("--table", {"m": 3, "rows": [{"p": 0, "components": []},
                                   {"p": 0, "components": []}]}),
     "error: {path}.rows[1].p: degree 0 appears twice\n"),
    # numbers are finite JSON numbers: no booleans, strings, NaN or Infinity
    (["hyperbolic", "--op", "density"], ("--table", _table_component(math.nan, [1.0])),
     "error: {path}.rows[0].components[0].shift: expected a finite number, got nan\n"),
    (["hyperbolic", "--op", "density"], ("--table", _table_component("nan", [1.0])),
     "error: {path}.rows[0].components[0].shift: expected a finite number, got 'nan'\n"),
    (["hyperbolic", "--op", "density"], ("--table", _table_component(True, [1.0])),
     "error: {path}.rows[0].components[0].shift: expected a finite number, got True\n"),
    (["hyperbolic", "--op", "density"], ("--table", _table_component(-1.0, [1.0])),
     "error: {path}.rows[0].components[0]: shift must be in [0, inf), got -1.0\n"),
    (["hyperbolic", "--op", "density"], ("--table", _table_component(0.0, [1.0, "2"])),
     "error: {path}.rows[0].components[0].poly[1]: expected a finite number, got '2'\n"),
    (["hyperbolic", "--op", "density"], ("--table", _table_component(0.0, [math.inf])),
     "error: {path}.rows[0].components[0].poly[0]: expected a finite number, got inf\n"),
    # a density term r^k with k >= m is more singular than the expansion holds
    (["hyperbolic", "--op", "constant"],
     ("--table", _table_component(1.0, [0.0, 0.0, 0.0, 0.0, 1e-3])),
     "error: {path}.rows[0].components[0].poly: the r^4 term gives t^(-5/2), more "
     "singular than the expansion's t^(-3/2); need degree below 3\n"),
    (["zeta", "--op", "det"], ("--spectrum", [["1", 1.0]]),
     "error: {path}[0][0]: expected a finite number, got '1'\n"),
    (["zeta", "--op", "det"], ("--spectrum", [[True, 1.0]]),
     "error: {path}[0][0]: expected a finite number, got True\n"),
    (["zeta", "--op", "det"], ("--spectrum", [[1.0, 1.0], [2.0, math.nan]]),
     "error: {path}[1][1]: expected a finite number, got nan\n"),
    (["zeta", "--op", "torsion"],
     ("--spectrum", {"degrees": [{"p": 1, "spectrum": [[2.0, None]]}]}),
     "error: {path}.degrees[0].spectrum[0][1]: expected a finite number, got None\n"),
    # every input file follows the same rules: a number beyond a double,
    (["jsj"], ("--input", {"name": "x", "pieces": [{"kind": "hyperbolic", "volume": 10**400}]}),
     "error: {path}.pieces[0].volume: expected a finite number, got %d\n" % 10**400),
    # text that is no JSON, located at the file and line, or at the file,
    (["zeta", "--op", "det"], ("--spectrum", "[[1.0, 1.0],\n"),
     "error: {path}:2: malformed JSON: Expecting value\n"),
    (["hyperbolic", "--op", "density"], ("--table", '{"m": 3,\n "rows": [}'),
     "error: {path}:2: malformed JSON: Expecting value\n"),
    (["zeta", "--op", "det"], ("--spectrum", "[" * 100000 + "]" * 100000),
     "error: {path}: malformed JSON: maximum recursion depth exceeded while decoding a "
     "JSON array from a unicode string\n"),
    (["zeta", "--op", "det"], ("--spectrum", "[[1" + "0" * 5000 + ", 1]]"),
     "error: {path}: malformed JSON: Exceeds the limit (4300 digits) for integer string "
     "conversion: value has 5001 digits; use sys.set_int_max_str_digits() to increase "
     "the limit\n"),
    # a list field that is no list,
    (["hyperbolic", "--op", "density"], ("--table", {"m": 3, "rows": "xyz"}),
     "error: {path}.rows: expected a list\n"),
    (["zeta", "--op", "torsion"],
     ("--spectrum", {"degrees": {"p": 1, "spectrum": [[2.0, 1.0]]}}),
     "error: {path}.degrees: expected a list\n"),
    (["hyperbolic", "--op", "density"], ("--table", _table_component(0.0, 5)),
     "error: {path}.rows[0].components[0].poly: expected a list\n"),
    (["jsj"], ("--input", {"name": "x", "pieces": "xyz"}),
     "error: {path}.pieces: expected a list\n"),
    # an integer field that is no integer or out of range, a string field
    # that is no string
    (["jsj"], ("--input", {"name": "x", "boundaryTori": 2.5}),
     "error: {path}.boundaryTori: expected an integer, got 2.5\n"),
    (["jsj"], ("--input", {"name": "x", "boundaryTori": -1}),
     "error: {path}.boundaryTori: boundaryTori must be in [0, inf), got -1\n"),
    (["jsj"], ("--input", {"name": 5}),
     "error: {path}.name: expected a string, got 5\n"),
    (["jsj"], ("--input", {"name": "x", "pieces": [{"kind": 5}]}),
     "error: {path}.pieces[0].kind: expected a string, got 5\n"),
    (["jsj"], ("--input", {"name": "x", "pieces": [{"kind": "seifert", "label": {"x": 1}}]}),
     "error: {path}.pieces[0].label: expected a string, got {{'x': 1}}\n"),
    # a table's dimension and rows are checked before anything is built
    (["hyperbolic", "--op", "density"], ("--table", {"m": 10**400, "rows": []}),
     "error: {path}.m: expected an odd positive dimension, got %d\n" % 10**400),
    (["hyperbolic", "--op", "density"], ("--table", {"m": 2, "rows": []}),
     "error: {path}.m: expected an odd positive dimension, got 2\n"),
    (["hyperbolic", "--op", "density"], ("--table", {"m": 3, "rows": []}),
     "error: {path}.rows: expected a row for each degree 0..3, got 0\n"),
    # a CSV manifest row has two or three fields, and a volume is a number
    (["jsj"], ("--input", "hyperbolic,2,h,extra\n", "input.csv"),
     "error: {path}:1: expected kind,volume[,label]\n"),
    (["jsj"], ("--input", "# kind,volume\nhyperbolic,abc\n", "input.csv"),
     "error: {path}:2: could not convert string to float: 'abc'\n"),
    # a CSV manifest is UTF-8 text, and the CSV reader's refusals are located
    (["jsj"], ("--input", "seifert,0\nhyperbolic,1.5,café\n".encode("latin-1"), "input.csv"),
     "error: {path}:2: not UTF-8: byte 0xe9 (invalid continuation byte)\n"),
    (["jsj"], ("--input", "hyperbolic,1.5," + "a" * 200000 + "\n", "input.csv"),
     "error: {path}:1: field larger than field limit (131072)\n"),
    # a table that breaks an invariant is refused at the file: each
    # invariant ties rows together
    (["hyperbolic", "--op", "constant"], ("--table", _packaged_table_with_scalar_poly(0.06)),
     "error: {path}: duality defect 130.7374491820566\n"),
], ids=["zeta-no-spectrum", "density-wrong-dim", "constant-wrong-dim",
        "anomaly-bad-sweep", "anomaly-nan-sweep",
        "anomaly-infinite-sweep", "anomaly-fractional-sweep-count", "anomaly-no-sweep-points",
        "anomaly-negative-sweep-count", "anomaly-sweep-count-over-bound",
        "anomaly-huge-sweep-count", "heatcmp-negative-cutoff", "heatcmp-zero-cutoff",
        "heatcmp-half-cutoff-underflows", "heatcmp-double-cutoff-overflows", "det-overflow",
        "det-underflow", "density-overflow", "cusp-overflow", "table-no-m",
        "table-row-no-components", "table-list", "table-degree-out-of-range",
        "degrees-no-spectrum", "spectrum-short-pair", "degrees-fractional-p",
        "degrees-boolean-p", "degrees-duplicate-p", "degrees-negative-p",
        "table-fractional-m",
        "table-duplicate-row", "table-nan-shift", "table-string-shift",
        "table-boolean-shift", "table-negative-shift", "table-string-poly",
        "table-infinite-poly", "table-over-singular-poly", "spectrum-string-eigenvalue",
        "spectrum-boolean-eigenvalue", "spectrum-nan-weight", "degrees-null-weight",
        "manifest-huge-volume", "spectrum-malformed-json", "table-malformed-json",
        "spectrum-deep-nesting", "spectrum-long-integer", "table-string-rows",
        "degrees-object", "table-number-poly", "manifest-string-pieces",
        "manifest-fractional-tori", "manifest-negative-tori", "manifest-number-name",
        "manifest-number-kind", "manifest-object-label", "table-huge-m", "table-even-m",
        "table-no-rows", "csv-four-fields", "csv-text-volume", "csv-latin-1",
        "csv-huge-field", "table-duality-defect"])
def test_usage_errors_exit_2(capsys, tmp_path, argv, infile, message):
    path = tmp_path / "input.json"
    if infile is not None:
        # a text or bytes payload is the file as it is, named by an optional
        # third item; any other payload is written as JSON
        option, payload, *name = infile
        path = tmp_path.joinpath(*name) if name else path
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = [*argv, option, str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert message is None or err == message.format(path=path)


@pytest.mark.parametrize("argv", [
    ["zeta", "--op", "trace", "--t"],
    ["hyperbolic", "--op", "density", "--t"],
    ["hyperbolic", "--op", "cusp", "--height"],
    ["hyperbolic", "--op", "cusp", "--cross-section"],
    ["heatcmp", "--pair", "halfline-line", "--K"],
    ["anomaly", "--dim", "2", "--u"],
], ids=lambda argv: argv[-1])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_float_options_refuse_nonfinite_values(capsys, argv, value):
    option = argv[-1]
    with pytest.raises(SystemExit) as exc:
        main([*argv[:-1], f"{option}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: expected a finite number, got {value!r}" in err


def test_selftest_quick(capsys, tmp_path):
    # each criterion's line carries its wall time and stderr the environment;
    # the report carries neither, so two runs give the same bytes
    reports = [tmp_path / "first.json", tmp_path / "second.json"]
    for report in reports:
        code, out, err = run_cli(capsys, "selftest", "--quick", "--output", str(report))
        assert code == 0
        assert re.fullmatch(r"python \S+, numpy \S+, scipy \S+, seed \d+, \d+ CPUs\n", err)
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        names = {l.split()[1] for l in lines}
        assert {"C3", "anomaly-dim2", "short-exact"} <= names
        assert all(l.startswith("PASS") for l in lines)
        assert all(re.fullmatch(r"PASS  \S+ *  \d+\.\d\d s", l) for l in lines)
    assert reports[0].read_bytes() == reports[1].read_bytes()
    assert "seconds" not in reports[0].read_text()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_reports_are_standard_json(capsys, tmp_path):
    # every report parses under a parser that refuses NaN and Infinity
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps([[1.0, 1.0], [4.0, 2.0]]))
    degrees = tmp_path / "d.json"
    degrees.write_text(json.dumps({"degrees": [
        {"p": 0, "spectrum": [[1.0, 1.0]]}, {"p": 1, "spectrum": [[2.0, 1.0]]}]}))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "name": "unit", "boundaryTori": 1,
        "pieces": [{"kind": "hyperbolic", "volume": 3.0, "label": "u"}]}))
    commands = [
        ["sdf-check", "--suite", "gromov-shubin", "--instances", "3"],
        ["zeta", "--spectrum", str(spec), "--op", "det"],
        ["zeta", "--spectrum", str(spec), "--op", "trace"],
        ["zeta", "--spectrum", str(spec), "--op", "dsmall"],
        ["zeta", "--spectrum", str(degrees), "--op", "torsion"],
        ["hyperbolic", "--m", "3", "--op", "constant"],
        ["hyperbolic", "--m", "3", "--op", "density", "--p", "1", "--t", "0.5"],
        ["hyperbolic", "--m", "3", "--op", "cusp", "--cross-section", "1.0"],
        ["heatcmp", "--pair", "interval-halfline"],
        ["anomaly", "--dim", "3", "--u", "0.5"],
        ["jsj", "--input", str(manifest)],
    ]
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
        json.loads(out, parse_constant=_reject_constant)
    report = tmp_path / "selftest.json"
    code, _, _ = run_cli(capsys, "selftest", "--quick", "--output", str(report))
    assert code == 0
    assert json.loads(report.read_text(), parse_constant=_reject_constant)["ok"] is True


def test_nonfinite_report_value_is_an_error(capsys, monkeypatch):
    # a NaN that reaches the report is refused, not printed as NaN
    import l2tor.cli as cli
    monkeypatch.setattr(cli, "torsion_constant_result",
                        lambda table, m: TorsionResult([], math.nan, {"error": 0.0}))
    code, out, err = run_cli(capsys, "hyperbolic", "--m", "3", "--op", "constant")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_readme_commands_parse_and_scripts_exist():
    # every l2tor line of the README's code blocks parses, and every script
    # it names is in the repository
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", (root / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    lines = [line.split("#", 1)[0].strip() for block in blocks
             for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("l2tor ")]
    scripts = re.findall(r"^python (scripts/\S+)", "\n".join(lines), re.MULTILINE)
    assert len(commands) >= 10 and scripts
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).handler, argv
    for script in scripts:
        assert (root / script).is_file(), script
