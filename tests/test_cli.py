import contextlib
import gc
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cranbounds import cli, schemes
from cranbounds.gaussian import CranNetwork
from fme_oracle import key

GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    return cli.main(list(args))


def test_fme_roundtrip_identity(tmp_path, capsys):
    src = tmp_path / "sys.txt"
    src.write_text("1*x + 1*y <= 1*a\n-1*x <= 0\n")
    out = tmp_path / "out.txt"
    assert run_cli(["fme", "-i", str(src), "-o", str(out)]) == 0
    from cranbounds.polytope import parse_system
    a = parse_system(src.read_text())
    b = parse_system(out.read_text())
    assert [key(c) for c in a.constraints] == [key(c) for c in b.constraints]


def test_fme_matches_golden_projection(tmp_path):
    out = tmp_path / "proj.txt"
    rc = run_cli(["fme", "-i", str(GOLDEN / "cor4_input.txt"),
                  "-e", "Ru1,Rv1", "-o", str(out)])
    assert rc == 0
    got = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    want = [l for l in (GOLDEN / "cor4_projection.txt").read_text().splitlines()
            if not l.startswith("#")]
    assert got == want


def test_fme_parse_error_reports_location(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("1*x <= 1*a\n2*y <= 3* \n")
    rc = run_cli(["fme", "-i", str(src)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "line 2" in captured.err


def test_fme_unknown_variable(tmp_path, capsys):
    src = tmp_path / "sys.txt"
    src.write_text("1*x <= 1*a\n")
    assert run_cli(["fme", "-i", str(src), "-e", "zz"]) == 2


def test_fme_blowup_is_a_one_line_usage_error(tmp_path, capsys):
    rc = run_cli(["fme", "-i", str(GOLDEN / "cor4_input.txt"), "-e", "Ru1,Rv1",
                  "--max-constraints", "3", "-o", str(tmp_path / "out.txt")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip().splitlines() == [
        "error: eliminating 'Ru1' produced more than 3 distinct constraints"]


def test_fme_cor4_output_is_byte_identical(tmp_path):
    # the full output, header included, as first recorded (and its sha256)
    out = tmp_path / "proj.txt"
    assert run_cli(["fme", "-i", str(GOLDEN / "cor4_input.txt"),
                    "-e", "Ru1,Rv1", "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "fme_cor4_ru1_rv1.txt").read_bytes()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "b431feb580e3a613b011ae1221a6f8e0e46754a285af9156906680d818906857")


def test_fme_of_its_own_output_is_a_fixed_point(tmp_path):
    """With nothing to eliminate, `fme` reproduces its input byte for byte,
    `# variables:` line included; it used to reorder the variables by first
    appearance, printing R2 R1 here."""
    out = tmp_path / "again.txt"
    assert run_cli(["fme", "-i", str(GOLDEN / "fme_cor4_ru1_rv1.txt"), "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "fme_cor4_ru1_rv1.txt").read_bytes()


def test_fme_undeclared_variable_is_a_usage_error_at_its_column(tmp_path, capsys):
    src = tmp_path / "sys.txt"
    src.write_text("# variables: x\n1*x <= 1*a\n1*y <= 1*b\n")
    assert run_cli(["fme", "-i", str(src)]) == 2
    assert "undeclared variable 'y' (line 3, column 3)" in capsys.readouterr().err


@pytest.mark.parametrize("line,reading", [
    # numbers with an exponent; each was read as an atom (1e, 2.5E) plus a
    # separate term, e.g. "1*R1 <= 1*1e - 6*C1", with exit 0
    ("1*R1 <= 1e-6*C1", "1*R1 <= 1/1000000*C1"),
    ("1*R1 <= 2.5E+3*a", "1*R1 <= 2500*a"),
    ("1*R1 <= 1e+3", "1*R1 <= 1000"),
    # unreadable at the column given; each was read with exit 0
    ("1*R1 <= 2x", "column 10"),             # as the atom 2x
    ("1*R1 <= 1*f(g(a))", "column 12"),      # as the atom f(g(a))
    ("x <= 1e-6/2*a", "column 10"),          # as 1*1e - 3*a
    ("1*x 2*y <= 1", "column 5"),            # as the variable 'x 2*y'
    ("1*x <= 1*I (U;Y1)", "column 12"),      # as the atom 'I (U;Y1)'
    ("1*x.y <= 1", "column 4"),              # as the variable x.y
])
def test_fme_reads_numbers_and_names_by_their_rules(tmp_path, capsys, line, reading):
    src, out = tmp_path / "sys.txt", tmp_path / "out.txt"
    src.write_text(line + "\n")
    rc = run_cli(["fme", "-i", str(src), "-o", str(out)])
    err = capsys.readouterr().err
    if reading.startswith("column"):
        assert rc == 2 and not out.exists()
        assert err.count("\n") == 1 and f"(line 1, {reading})" in err
    else:
        assert rc == 0, err
        assert out.read_text().splitlines()[1:] == [reading]


def test_fme_repeated_variable_is_a_usage_error(tmp_path, capsys):
    rc = run_cli(["fme", "-i", str(GOLDEN / "cor4_input.txt"), "-e", "Ru1,Ru1",
                  "-o", str(tmp_path / "out.txt")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip().splitlines() == [
        "error: variable 'Ru1' is listed twice for elimination"]
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("header,drop", [("# variables: x x y", "x"),
                                         ("# variables: x, y", "y")])
def test_fme_malformed_variables_line_is_a_usage_error(tmp_path, capsys, header, drop):
    """Each exited 0: the first ignored the repeat, the second printed
    `# variables: x,`."""
    src, out = tmp_path / "sys.txt", tmp_path / "out.txt"
    src.write_text(header + "\n1*y <= 1\n")
    assert run_cli(["fme", "-i", str(src), "-e", drop, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: --input {src}: ") and "(line 1, column" in err
    assert not out.exists()


def test_fme_cap_counts_rows_carried_over(tmp_path, capsys):
    """Three rows free of x exceed a cap of 2 though no pairing runs; the
    cap used to be checked only after a pairing, so this exited 0."""
    src = tmp_path / "sys.txt"
    src.write_text("1*y <= 1\n-1*y <= 0\n1*y <= 1*a\n1*x + 1*y <= 2\n1*x <= 1\n")
    assert run_cli(["fme", "-i", str(src), "-e", "x", "--max-constraints", "2"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: eliminating 'x' produced more than 2 distinct constraints"]


@pytest.mark.parametrize("cap", ["0", "-5", "x"])
def test_fme_cap_below_one_is_a_usage_error(tmp_path, capsys, cap):
    rc = run_cli(["fme", "-i", str(GOLDEN / "cor4_input.txt"), "-e", "Ru1",
                  "--max-constraints", cap, "-o", str(tmp_path / "out.txt")])
    assert rc == 2
    assert "--max-constraints: want an integer of at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def sweep_config(tmp_path, **overrides):
    config = {"P": 4.0, "G": [[1.0, 0.5], [0.5, 1.0]], "C_grid": [0.5, 1.0],
              "T": 0.0, "schemes": ["GDS-I"], "seed": 5,
              "budget": {"restarts": 2, "iters": 400}}
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_sweep_csv_deterministic(tmp_path):
    cfg = sweep_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["sumrate-sweep", str(cfg), "-o", str(out1)]) == 0
    assert run_cli(["sumrate-sweep", str(cfg), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "C,T,scheme,sum_rate,cutset,rsum_star"
    assert len(lines) == 1 + 2
    first = lines[1].split(",")
    assert len(first) == 6
    float(first[3])  # parsable sum rate


def test_sweep_rejects_empty_schemes(tmp_path, capsys):
    cfg = sweep_config(tmp_path, schemes=[])
    assert run_cli(["sumrate-sweep", str(cfg)]) == 2


def test_sweep_requires_seed(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    config = json.loads(cfg.read_text())
    del config["seed"]
    cfg.write_text(json.dumps(config))
    assert run_cli(["sumrate-sweep", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: sweep config is missing required field 'seed'\n"


def test_sweep_rejects_nan_power(tmp_path, capsys):
    """json reads NaN; it used to reach the sweep and print cutset 0.000000."""
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"P": NaN, "G": [[1.0, 0.5], [0.5, 1.0]], "C_grid": [1.0], '
                   '"schemes": ["GDS-I"], "seed": 0, "budget": {"restarts": 1, "iters": 5}}')
    out = tmp_path / "out.csv"
    assert run_cli(["sumrate-sweep", str(cfg), "-o", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()

@pytest.mark.parametrize("budget", [{"restarts": 0, "iters": 5}, {"restarts": -2, "iters": 5},
                                    {"restarts": 1, "iters": 0}])
def test_sweep_budget_below_one_is_a_usage_error(tmp_path, capsys, budget):
    """restarts 0 used to print 0.000000 for every scheme and exit 0, and
    restarts -2 to exit 1 with an OverflowError traceback."""
    cfg, out = sweep_config(tmp_path, budget=budget), tmp_path / "out.csv"
    assert run_cli(["sumrate-sweep", str(cfg), "-o", str(out)]) == 2
    key = "restarts" if budget["restarts"] < 1 else "iters"
    assert f"budget {key} must be an integer of at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_matches_golden_output(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sumrate-sweep", str(GOLDEN / "sweep_fig4_config.json"),
                    "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_fig4_seed0.csv").read_bytes()


def test_sweep_fig6_matches_golden_output(tmp_path):
    """fig6 (P = 100, cooperation links T = 2), as written by the per-block
    log-determinant kernel with no objective memo: the grouped kernel and
    the memo must leave every digit in place."""
    out = tmp_path / "sweep.csv"
    assert run_cli(["sumrate-sweep", str(GOLDEN / "sweep_fig6_config.json"),
                    "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_fig6_seed0.csv").read_bytes()


@pytest.mark.parametrize("key,value", [
    ("T", []),                         # printed only the CSV header
    ("schemes", ["GDS-TS", "GDS-TS"]),  # printed every row twice
    ("schemes", "GDS-I"),              # iterated as characters
    ("schemes", ["GDS-I", "GDS-IV"]),
    ("C_grid", [1.0, 1.0]),
    ("C_grid", "12"),
    ("C_grid", [0.5, -1.0]),
    ("C_grid", [float("nan")]),
    ("T", float("inf")),
    ("T", [0.0, -0.5]),
])
def test_sweep_config_list_is_a_usage_error_naming_the_field(tmp_path, capsys, key, value):
    cfg, out = sweep_config(tmp_path, **{key: value}), tmp_path / "out.csv"
    assert run_cli(["sumrate-sweep", str(cfg), "-o", str(out)]) == 2
    assert f"sweep config {key} must be a nonempty list of distinct" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides,field", [
    ({"budget": [1]}, "sweep config budget"),      # AttributeError traceback, exit 1
    ({"budget": "fast"}, "sweep config budget"),   # the same
    ({"budget": {"restarts": 1, "iter": 5}}, "sweep config budget"),  # ran 4000 iterations
    ({"budjet": {"restarts": 1, "iters": 5}}, "unknown fields ['budjet']"),  # ran 8 x 4000
    ({"seed": 1.7}, "sweep config seed"),          # ran as seed 1
    ({"seed": True}, "sweep config seed"),         # ran as seed 1
    ({"seed": -1}, "sweep config seed"),           # named no field
    ({"G": [[1, 0.5]]}, "sweep config G"),         # "rsum_star is defined for the 2-BS ..."
    ({"G": [[1, 0.5, 0], [0.5, 1, 0]]}, "sweep config G"),  # "cannot reshape array ..."
    ({"G": [[1.0, "x"], [0.5, 1.0]]}, "sweep config G"),    # "could not convert string ..."
    ({"G": [[1.0, float("nan")], [0.5, 1.0]]}, "sweep config G"),  # named no field
    ({"out": "x.csv"}, "unknown fields ['out']"),   # -o won; without it, wrote x.csv
    ({"out": ["x.csv"]}, "unknown fields ['out']"),  # without -o, TypeError traceback
    ({"out": True}, "unknown fields ['out']"),      # without -o, wrote to and closed fd 1
    ({"out": 3}, "unknown fields ['out']"),         # without -o, bad file descriptor
])
def test_sweep_config_type_hole_is_a_usage_error_naming_the_field(tmp_path, capsys,
                                                                  overrides, field):
    cfg, out = sweep_config(tmp_path, **overrides), tmp_path / "out.csv"
    assert run_cli(["sumrate-sweep", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err
    assert not out.exists()


def test_sweep_merges_reference_csv(tmp_path):
    """Reference rows sit at the config's first T with the sweep's own
    certified bounds: they printed nan in cutset and rsum_star."""
    cfg = sweep_config(tmp_path, T=[0.5, 0.0])
    ref = tmp_path / "ref.csv"
    ref.write_text("C,scheme,sum_rate\n0.5,RCF,0.40\n1.0,RCF,0.80\n3.0,RCF,1.20\n")
    out = tmp_path / "merged.csv"
    assert run_cli(["sumrate-sweep", str(cfg), "--rcf-csv", str(ref),
                    "-o", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    star = schemes.rsum_star(CranNetwork.make([[1.0, 0.5], [0.5, 1.0]], 4.0, [0.0, 0.0]))
    assert {r[5] for r in rows} == {f"{star:.6f}"}
    reference = [r for r in rows if r[2] == "RCF"]
    assert [r[:4] for r in reference] == [["0.500000", "0.500000", "RCF", "0.400000"],
                                          ["1.000000", "0.500000", "RCF", "0.800000"],
                                          ["3.000000", "0.500000", "RCF", "1.200000"]]
    assert [r[4] for r in reference] == [f"{min(2 * c, star):.6f}" for c in (0.5, 1.0, 3.0)]


def test_malformed_reference_csv_is_rejected_before_the_sweep(tmp_path, capsys, monkeypatch):
    """A bad --rcf-csv was rejected only after every scheme was optimized."""
    def no_search(*args):
        raise AssertionError("optimize_scheme ran before the reference CSV was checked")

    monkeypatch.setattr(schemes, "optimize_scheme", no_search)
    ref = tmp_path / "ref.csv"
    ref.write_text("C,scheme,sum_rate\n1.0,RCF,nan\n")
    out = tmp_path / "out.csv"
    assert run_cli(["sumrate-sweep", str(sweep_config(tmp_path)), "--rcf-csv", str(ref),
                    "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --rcf-csv "), err
    assert not out.exists()


@pytest.mark.parametrize("config,text,line", [
    # a scheme the sweep prints: GDS-I at C = 1 came out twice, as 1.000000 and 0.500000
    ("sweep_fig4_config.json", "C,scheme,sum_rate\n0.5,RCF,0.4\n1.0,GDS-I,0.5\n", 3),
    # a config without `schemes` prints the default list, GDS-TS included
    (None, "C,scheme,sum_rate\n2.0,GDS-TS,0.5\n", 2),
    # the same (C, scheme) pair twice
    ("sweep_fig4_config.json", "C,scheme,sum_rate\n1.0,RCF,0.8\n0.5,RCF,0.4\n1,RCF,0.9\n", 4),
], ids=["printed scheme", "default scheme", "repeated pair"])
def test_reference_row_that_would_print_twice_is_rejected_before_the_sweep(
        tmp_path, capsys, monkeypatch, config, text, line):
    """Such a row printed a second CSV row with the same (C, T, scheme), and
    the run exited 0."""
    def no_search(*args):
        raise AssertionError("optimize_scheme ran before the reference CSV was checked")

    monkeypatch.setattr(schemes, "optimize_scheme", no_search)
    if config is None:
        cfg = json.loads((GOLDEN / "sweep_fig4_config.json").read_text())
        del cfg["schemes"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
    ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
    ref.write_text(text)
    assert run_cli(["sumrate-sweep", str(GOLDEN / config), "--rcf-csv", str(ref),
                    "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --rcf-csv "), err
    assert f"line {line}:" in err, err
    assert not out.exists()


def test_sweep_with_reference_csv_matches_golden_output(tmp_path):
    """The fig4 sweep merged with a reference curve: the sweep rows are the
    fig4 golden's, and the reference rows carry min(2C, rsum_star)."""
    out = tmp_path / "sweep.csv"
    assert run_cli(["sumrate-sweep", str(GOLDEN / "sweep_fig4_config.json"),
                    "--rcf-csv", str(GOLDEN / "rcf_fig4.csv"), "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_fig4_rcf_seed0.csv").read_bytes()


def test_region_with_valuation(tmp_path, capsys):
    val = {"I(U;Y1)": 1.0, "I(V;Y2)": 0.5, "I(U;V)": 0.25, "C1": 2.0}
    vpath = tmp_path / "val.json"
    vpath.write_text(json.dumps(val))
    out = tmp_path / "region.json"
    rc = run_cli(["region", "--scheme", "COR4", "--valuation", str(vpath),
                  "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["variables"] == ["R1", "R2"]
    assert all("rhs_value" in c for c in payload["constraints"])


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "true", '"0.5"'])
def test_region_rejects_a_nonfinite_valuation(tmp_path, capsys, token):
    """A value must be a finite JSON number: `true` and `"0.5"` read as 1.0
    and 0.5 and exited 0."""
    vpath = tmp_path / "val.json"
    vpath.write_text('{"I(U0;Y1)": %s, "I(V0;Y2)": 2.0, "I(U0;V0)": 0.0, "C1": 1.0, '
                     '"C2": 1.0, "C12": 0.0, "C21": 0.0}' % token)
    out = tmp_path / "region.json"
    rc = run_cli(["region", "--scheme", "GDS-I", "--valuation", str(vpath),
                  "-o", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "I(U0;Y1)" in err


def cor4_pmf_args(tmp_path):
    """`--pmf` and `--channel` arguments of a COR4 law over (U, V, X1, Y1, Y2),
    from the committed fixtures."""
    return ["--pmf", str(GOLDEN / "pmf_uvx1.json"),
            "--channel", str(GOLDEN / "channel_x1_y1y2.json")]


def test_region_from_pmf_and_channel(tmp_path):
    out = tmp_path / "region.json"
    rc = run_cli(["region", "--scheme", "COR4", *cor4_pmf_args(tmp_path),
                  "--caps", "C1=1.5", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    values = {round(c["rhs_value"], 6) for c in payload["constraints"]}
    assert 1.5 in values  # the fronthaul constraint resolved


def test_region_cutset(tmp_path):
    npath = tmp_path / "net.json"
    npath.write_text('{"G": [[1.0, 0.5], [0.5, 1.0]], "P": 2.0, "C": [1.0, 1.0]}')
    out = tmp_path / "cut.json"
    assert run_cli(["region", "--scheme", "CUTSET", "--network", str(npath),
                    "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["constraints"]) == 12


@pytest.mark.parametrize("N,L", [(12, 1), (1, 12)])
def test_region_cutset_network_above_the_node_limit_is_a_usage_error(tmp_path, capsys, N, L):
    """`--network` had no size bound: 12 BSs took 1.4 s for 4,096 rows, and
    the work doubles with every BS."""
    npath, out = tmp_path / "net.json", tmp_path / "cut.json"
    npath.write_text(json.dumps({"G": np.ones((L, N)).tolist(), "P": 1.0, "C": [0.0] * N}))
    rc = run_cli(["region", "--scheme", "CUTSET", "--network", str(npath), "-o", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == (
        f"error: a cut grid supports at most 9 BSs and 9 users, got N = {N}, L = {L}\n")


def test_region_cutset_checks_the_node_bound_before_reading_cov(tmp_path, capsys):
    """A 1,500-BS network spent 0.24 s, mostly eigendecomposing K = P I, before
    the node bound refused it; now the bound comes right after --network."""
    npath, out = tmp_path / "net.json", tmp_path / "cut.json"
    npath.write_text(json.dumps({"G": np.ones((1, 12)).tolist(), "P": 1.0, "C": [0.0] * 12}))
    rc = run_cli(["region", "--scheme", "CUTSET", "--network", str(npath),
                  "--cov", str(tmp_path / "missing.json"), "-o", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == (
        "error: a cut grid supports at most 9 BSs and 9 users, got N = 12, L = 1\n")


def test_region_ddf_shape(tmp_path):
    out = tmp_path / "ddf.json"
    assert run_cli(["region", "--scheme", "DDF-P1", "--n", "3", "--l", "1",
                    "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["variables"] == ["R1"]
    assert len(payload["constraints"]) == 8


@pytest.mark.parametrize("with_pmf,message", [
    (False, "--caps needs --pmf"),                               # parsed, then ignored
    (True, "--caps names ['C2'], which COR4 does not use"),      # exited 0
])
def test_region_caps_that_nothing_uses_are_a_usage_error(tmp_path, capsys, with_pmf, message):
    args = cor4_pmf_args(tmp_path) if with_pmf else []
    out = tmp_path / "region.json"
    rc = run_cli(["region", "--scheme", "COR4", *args, "--caps", "C1=1,C2=1", "-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and not out.exists()
    assert err.count("\n") == 1 and message in err


def test_region_channel_without_pmf_is_a_usage_error(tmp_path, capsys):
    """The channel used to be parsed, then ignored, with exit 0."""
    vpath, out = tmp_path / "val.json", tmp_path / "region.json"
    vpath.write_text('{"I(U;Y1)": 1.0, "I(V;Y2)": 0.5, "I(U;V)": 0.25, "C1": 2.0}')
    channel = cor4_pmf_args(tmp_path)[2:]
    rc = run_cli(["region", "--scheme", "COR4", "--valuation", str(vpath), *channel,
                  "-o", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == (
        "error: --channel needs --pmf: it is composed onto the pmf\n")


_NET3, _PMF = str(GOLDEN / "net3.json"), str(GOLDEN / "pmf_uvx1.json")


@pytest.mark.parametrize("args,message", [
    (["--scheme", "CUTSET", "--network", _NET3, "--n", "2", "--l", "5"],
     "error: --n does not apply to CUTSET, which reads only --network, --cov"),
    (["--scheme", "GDS-I", "--network", _NET3], "error: --network does not apply to GDS-I"),
    (["--scheme", "GDS-I", "--cov", "k.json"], "error: --cov does not apply to GDS-I"),
    (["--scheme", "CUTSET", "--network", _NET3, "--pmf", _PMF], "error: --pmf does not apply"),
    (["--scheme", "CUTSET", "--network", _NET3, "--valuation", "v.json"],
     "error: --valuation does not apply"),
    (["--scheme", "COR4", "--valuation", "v.json", "--pmf", _PMF],
     "argument --pmf: not allowed with argument --valuation"),
])
def test_region_flag_that_the_scheme_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                                    monkeypatch, args, message):
    """Each of these exited 0 and ignored the flag; the refusal comes before
    any file is read (k.json does not exist)."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "v.json").write_text('{"I(U;Y1)": 1.0, "I(V;Y2)": 0.5, "I(U;V)": 0.25, "C1": 2.0}')
    out = tmp_path / "region.json"
    assert run_cli(["region", *args, "-o", str(out)]) == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err


@pytest.mark.parametrize("flag,fixture,key", [
    ("--network", "net3.json", "Ccop"),
    ("--pmf", "pmf_uvx1.json", "note"),
    ("--channel", "channel_x1_y1y2.json", "note"),
])
def test_input_file_with_an_unknown_key_is_a_usage_error_naming_it(tmp_path, capsys,
                                                                   flag, fixture, key):
    """A network file with `Ccoop` misspelt `Ccop` exited 0 with every
    cooperation capacity read as 0."""
    text = (GOLDEN / fixture).read_text()
    path = tmp_path / fixture
    path.write_text(text.replace('"Ccoop"', '"Ccop"') if key == "Ccop"
                    else text.replace("{", '{"note": 1, ', 1))
    argv = {"--network": ["--scheme", "CUTSET", "--network", str(path)],
            "--pmf": ["--scheme", "COR4", "--pmf", str(path)],
            "--channel": ["--scheme", "COR4", "--pmf", _PMF, "--channel", str(path)]}[flag]
    out = tmp_path / "region.json"
    assert run_cli(["region", *argv, "-o", str(out)]) == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} "), err
    assert f"unknown keys ['{key}']" in err, err


@pytest.mark.parametrize("flag,fixture,entries", [
    ("--pmf", "pmf_uvx1.json", "variables"),
    ("--channel", "channel_x1_y1y2.json", "given"),
    ("--channel", "channel_x1_y1y2.json", "variables"),
])
def test_variable_entry_with_an_unknown_key_is_a_usage_error_naming_it(tmp_path, capsys,
                                                                       flag, fixture, entries):
    """A pmf whose first variable entry carried `"label": "x"` exited 0."""
    d = json.loads((GOLDEN / fixture).read_text())
    d[entries][0]["label"] = "x"
    path = tmp_path / fixture
    path.write_text(json.dumps(d))
    inputs = {"--pmf": ["--pmf", str(path)], "--channel": ["--pmf", _PMF, "--channel", str(path)]}
    out = tmp_path / "region.json"
    assert run_cli(["region", "--scheme", "COR4", *inputs[flag], "--caps", "C1=0.5",
                    "-o", str(out)]) == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} "), err
    assert f"unknown keys ['label'] in a '{entries}' entry" in err, err


def test_region_repeated_caps_name_is_a_usage_error(tmp_path, capsys):
    """`--caps C1=0.5,C1=3` exited 0 and used the last value."""
    out = tmp_path / "region.json"
    assert run_cli(["region", "--scheme", "COR4", *cor4_pmf_args(tmp_path),
                    "--caps", "C1=0.5,C1=3", "-o", str(out)]) == 2 and not out.exists()
    assert capsys.readouterr().err == "error: --caps names 'C1' twice\n"


@pytest.mark.parametrize("args,golden", [
    (["--scheme", "DDF-P1", "--n", "3", "--l", "2"], "region_ddf_p1_n3_l2.json"),
    (["--scheme", "CUTSET", "--network", str(GOLDEN / "net3.json")], "region_cutset_net3.json"),
    (["--scheme", "CUTSET", "--network", str(GOLDEN / "net3.json"), "--cov",
      str(GOLDEN / "cov_net3.json")], "region_cutset_net3.json"),
    (["--scheme", "COR4", "--pmf", str(GOLDEN / "pmf_uvx1.json"), "--channel",
      str(GOLDEN / "channel_x1_y1y2.json"), "--caps", "C1=0.5"], "region_cor4_pmf.json"),
    (["--scheme", "GDS-T1"], "region_gds_t1.json"),
])
def test_region_matches_golden_output(tmp_path, args, golden):
    out = tmp_path / "region.json"
    assert run_cli(["region", *args, "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_verify_examples_exit_code(tmp_path):
    out = tmp_path / "report.json"
    rc = run_cli(["verify-examples", "--example", "1", "--samples", "300",
                  "--seed", "0", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert {r["example"] for r in payload} == {"one-bs-one-user"}
    assert all(r["verdict"] in ("confirmed", "sampled-consistent") for r in payload)


@pytest.mark.parametrize("example", ["1", "2"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_examples_samples_below_one_is_a_usage_error(tmp_path, capsys, example, samples):
    """Both used to print sampled-consistent after 0 laws and exit 0."""
    out = tmp_path / "report.json"
    rc = run_cli(["verify-examples", "--example", example, "--samples", samples,
                  "-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and not out.exists()
    assert "argument --samples" in err and repr(samples) in err


def test_verify_example1_matches_golden_output(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["verify-examples", "--example", "1", "--samples", "1000",
                    "--seed", "0", "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "verify_example1_seed0.json").read_bytes()


def test_verify_example2_matches_golden_output(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["verify-examples", "--example", "2", "--samples", "300",
                    "--seed", "0", "-o", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "verify_example2_seed0.json").read_bytes()


def test_gap_audit_cli(tmp_path):
    out = tmp_path / "audit.json"
    rc = run_cli(["gap-audit", "--instances", "15", "--seed", "2", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["all_pass"] and payload["instances"] == 15


@pytest.mark.parametrize("flag", ["--instances", "--nmax", "--lmax"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_gap_audit_rejects_sizes_below_one(flag, value, tmp_path, capsys):
    out = tmp_path / "audit.json"
    rc = run_cli(["gap-audit", "--instances", "3", flag, value, "-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and not out.exists()
    assert f"argument {flag}" in err and repr(value) in err


@pytest.mark.parametrize("argv,flag", [
    (["gap-audit", "--instances", "1", "--nmax", "10"], "--nmax"),
    (["gap-audit", "--instances", "1", "--lmax", "10"], "--lmax"),
    (["region", "--scheme", "DDF-P1", "--n", "10"], "--n"),
    (["region", "--scheme", "DDF-P1", "--l", "10"], "--l"),
])
def test_node_counts_above_the_capacity_naming_limit_are_usage_errors(tmp_path, capsys,
                                                                      argv, flag):
    """gap-audit took any --nmax and --lmax: it enumerates 2**N BS subsets,
    so a large one ran out of memory instead of exiting 2."""
    out = tmp_path / "out.json"
    assert run_cli([*argv, "-o", str(out)]) == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"argument {flag}: want an integer from 1 to 9" in err, err


def test_gap_audit_matches_golden_output(tmp_path):
    out = tmp_path / "audit.json"
    rc = run_cli(["gap-audit", "--instances", "200", "--seed", "0", "--nmax", "4",
                  "--lmax", "4", "-o", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "gap_audit_seed0.json").read_bytes()


def test_usage_errors(capsys):
    assert run_cli(["region"]) == 2          # missing --scheme
    assert capsys.readouterr().err == (
        "error: cranbounds region: the following arguments are required: --scheme\n")
    assert run_cli(["no-such-command"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "invalid choice: 'no-such-command'" in err
    for argv in (["--help"], ["fme", "--help"]):
        assert run_cli(argv) == 0
        assert capsys.readouterr().out.startswith("usage: cranbounds")


def test_module_entrypoint_subprocess(tmp_path):
    out = tmp_path / "audit.json"
    proc = subprocess.run(
        [sys.executable, "-m", "cranbounds.cli", "gap-audit", "--instances",
         "5", "--seed", "1", "-o", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["all_pass"]


def test_example2_without_scipy_matches_golden_output(tmp_path):
    """The data-sharing check needs only the declared dependencies: with any
    scipy import raising ImportError it exits 0 with the golden output."""
    out = tmp_path / "example2.json"
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from cranbounds.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify-examples", "--example", "2", "--samples", "300",
         "--seed", "0", "-o", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / "verify_example2_seed0.json").read_bytes()


def _flag(*argv):
    """A CLI input given as the flag that ends `argv`."""
    return lambda tmp_path, value: [*argv, value], f"argument {argv[-1]}"


def _sweep_field(named, field, wrap=lambda v: v):
    """A CLI input given as a field of the sweep config (a budget count if
    `field` is restarts or iters)."""
    def argv(tmp_path, value):
        v = {"0": 0, "-1": -1, "nan": math.nan, "inf": math.inf}.get(value, value)
        budget = {"restarts": 1, "iters": 5}
        overrides = {"budget": budget | {field: v}} if field in budget else {field: wrap(v)}
        return ["sumrate-sweep", str(sweep_config(tmp_path, **{"budget": budget, **overrides}))]
    return argv, named


# every numeric input of every subcommand, and whether README makes 0 valid
NUMERIC_INPUTS = {
    "region --n": (_flag("region", "--scheme", "CUTSET", "--network", str(GOLDEN / "net3.json"),
                         "--n"), False),
    "region --l": (_flag("region", "--scheme", "DDF-P1", "--l"), False),
    "region --caps": ((lambda tmp_path, value: ["region", "--scheme", "COR4",
                                                *cor4_pmf_args(tmp_path), "--caps", f"C1={value}"],
                       "--caps"), True),
    "sumrate-sweep P": (_sweep_field("sweep config P", "P"), True),
    "sumrate-sweep C_grid": (_sweep_field("sweep config C_grid", "C_grid", lambda v: [v]), True),
    "sumrate-sweep T": (_sweep_field("sweep config T", "T"), True),
    "sumrate-sweep seed": (_sweep_field("sweep config seed", "seed"), True),
    "sumrate-sweep budget restarts": (_sweep_field("budget restarts", "restarts"), False),
    "sumrate-sweep budget iters": (_sweep_field("budget iters", "iters"), False),
    "gap-audit --instances": (_flag("gap-audit", "--instances"), False),
    "gap-audit --seed": (_flag("gap-audit", "--instances", "1", "--seed"), True),
    "gap-audit --nmax": (_flag("gap-audit", "--instances", "1", "--nmax"), False),
    "gap-audit --lmax": (_flag("gap-audit", "--instances", "1", "--lmax"), False),
    "fme --max-constraints": (_flag("fme", "-i", str(GOLDEN / "cor4_input.txt"), "-e", "Ru1",
                                    "--max-constraints"), False),
    "verify-examples --example": (_flag("verify-examples", "--samples", "10", "--example"),
                                  False),
    "verify-examples --samples": (_flag("verify-examples", "--example", "1", "--samples"),
                                  False),
    "verify-examples --seed": (_flag("verify-examples", "--example", "1", "--samples", "10",
                                     "--seed"), True),
}


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "x"])
@pytest.mark.parametrize("name", NUMERIC_INPUTS)
def test_numeric_input_outside_its_range_is_a_usage_error_naming_it(tmp_path, capsys,
                                                                    name, value):
    (argv, named), zero_ok = NUMERIC_INPUTS[name]
    out = tmp_path / "out"
    rc = run_cli([*argv(tmp_path, value), "-o", str(out)])
    err = capsys.readouterr().err
    if value == "0" and zero_ok:
        assert rc == 0 and out.exists(), err
    else:
        assert rc == 2 and not out.exists()
        assert err.count("\n") == 1 and named in err, err


def _file_flag(*argv):
    """A CLI input read from the file given to the flag that ends `argv`."""
    def make(tmp_path, text):
        path = tmp_path / "input"
        path.write_text(text)
        return [*argv, str(path)]
    return make


_COR4 = ("region", "--scheme", "COR4")
_CUTSET = ("region", "--scheme", "CUTSET")


def _cov(tmp_path, text):
    return [*_CUTSET, "--network", str(GOLDEN / "net3.json"), *_file_flag("--cov")(tmp_path, text)]


def _rcf(tmp_path, text):
    return ["sumrate-sweep", str(sweep_config(tmp_path)), *_file_flag("--rcf-csv")(tmp_path, text)]


def _pmf(tmp_path, text):
    return [*_COR4, "--channel", str(GOLDEN / "channel_x1_y1y2.json"), "--caps", "C1=0.5",
            *_file_flag("--pmf")(tmp_path, text)]


def _channel(tmp_path, text):
    return [*_COR4, "--pmf", str(GOLDEN / "pmf_uvx1.json"), "--caps", "C1=0.5",
            *_file_flag("--channel")(tmp_path, text)]


def _golden(fixture):
    return json.loads((GOLDEN / fixture).read_text())


def _edited(doc, *edits):
    """A copy of the JSON value `doc` with each (key, ..., value) edit made."""
    doc = json.loads(json.dumps(doc))
    for *path, key, value in edits:
        node = doc
        for k in path:
            node = node[k]
        node[key] = value
    return doc


def _golden_with(fixture, *edits):
    """The JSON text of a golden file with each (key, ..., value) edit made."""
    return json.dumps(_edited(_golden(fixture), *edits))


# (argv builder, file text, flag named); each case exited 1 with a
# traceback, or 0 with a non-result, before every file went through one reader
MALFORMED_FILES = {
    "--valuation list": (_file_flag(*_COR4, "--valuation"), "[1, 2]", "--valuation"),
    "--valuation list value": (_file_flag(*_COR4, "--valuation"), '{"C1": [1]}', "--valuation"),
    "--valuation huge int": (_file_flag(*_COR4, "--valuation"), '{"C1": 1%s}' % ("0" * 400),
                             "--valuation"),
    "--pmf list": (_file_flag(*_COR4, "--pmf"), "[1]", "--pmf"),
    "--channel list": ((lambda tmp_path, text: [
        *_COR4, "--pmf", str(GOLDEN / "pmf_uvx1.json"), *_file_flag("--channel")(tmp_path, text)]),
        "[1]", "--channel"),
    "--network list": (_file_flag(*_CUTSET, "--network"), "[1]", "--network"),
    "--cov object": (_cov, '{"K": 1}', "--cov"),
    # exited 0: every cut through BS 1 lost its signal term
    "--cov nan": (_cov, "[[NaN, 0, 0], [0, 10, 0], [0, 0, 10]]", "--cov"),
    "--rcf-csv short row": (_rcf, "C,scheme,sum_rate\n1.0,RCF\n", "--rcf-csv"),
    "--rcf-csv nan": (_rcf, "C,scheme,sum_rate\n1.0,RCF,nan\n", "--rcf-csv"),
    "fme --input missing": ((lambda tmp_path, text: ["fme", "-i", str(tmp_path / "none.txt")]),
                            "", "--input"),
    "sweep config not JSON": ((lambda tmp_path, text: ["sumrate-sweep", *_file_flag()(tmp_path, text)]),
                              "{P: 1}", "config"),
    # exited 0: a number may not be a string or a bool, a size must be an
    # integer and a name a string; each was converted, 2.9 truncated to 2
    "--network string power": (_file_flag(*_CUTSET, "--network"),
                               '{"G": [[1.0]], "P": "10", "C": [1.0]}', "--network"),
    "--cov string and bool": (_cov, '[["10", 0, 0], [0, true, 0], [0, 0, 10]]', "--cov"),
    "--pmf fractional size, string probability": (
        _pmf, _golden_with("pmf_uvx1.json", ("variables", 0, "size", 2.9), ("probs", 0, "0.125")),
        "--pmf"),
    "--pmf string probability": (_pmf, _golden_with("pmf_uvx1.json", ("probs", 0, "0.125")),
                                 "--pmf"),
    "--pmf number name": (_pmf, _golden_with("pmf_uvx1.json", ("variables", 1, "name", 7)),
                          "--pmf"),
    "--channel fractional size": (
        _channel, _golden_with("channel_x1_y1y2.json", ("given", 0, "size", 2.0)), "--channel"),
    "--network bool capacity": (_file_flag(*_CUTSET, "--network"),
                                _golden_with("net3.json", ("C", 1, True)), "--network"),
    # each parsed, then failed unnamed: a KeyError, or a numpy warning and a
    # LinAlgError or the log-det error
    "--valuation missing atom": (_file_flag(*_COR4, "--valuation"), '{"C1": 1}', "--valuation"),
    "--pmf missing variable": (_file_flag(*_COR4, "--pmf"),
                               _golden_with("pmf_uvx1.json", ("variables", 0, "name", "Q")),
                               "--pmf"),
    "--network overflowing gain": (_file_flag(*_CUTSET, "--network"),
                                   _golden_with("net3.json", ("G", 0, 0, 1e200)), "--network"),
    "--network largest power": (_file_flag(*_CUTSET, "--network"),
                                _golden_with("net3.json", ("P", 1.7976931348623157e308)),
                                "--network"),
}


@pytest.mark.filterwarnings("error")  # a warning prints a second stderr line
@pytest.mark.parametrize("name", MALFORMED_FILES)
def test_malformed_input_file_is_a_usage_error_naming_its_flag(tmp_path, capsys, name):
    argv, text, flag = MALFORMED_FILES[name]
    out = tmp_path / "out"
    rc = run_cli([*argv(tmp_path, text), "-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and not out.exists(), err
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} "), err


# the flag of every JSON input file, and a command that reads the file given as its last
# argument; `--pmf` alone, so that its file is the last one read
JSON_INPUTS = {
    "--network": _file_flag(*_CUTSET, "--network"),
    "--cov": _cov,
    "--pmf": _file_flag(*_COR4, "--caps", "C1=0.5", "--pmf"),
    "--channel": _channel,
    "--valuation": _file_flag(*_COR4, "--valuation"),
    "config": lambda tmp_path, text: ["sumrate-sweep", *_file_flag()(tmp_path, text)],
}


@pytest.mark.parametrize("flag", JSON_INPUTS)
def test_deeply_nested_json_file_is_a_usage_error_naming_its_flag(tmp_path, capsys, flag):
    """A file of 100,000 '[' exited 1, the code of a verification failure,
    with a RecursionError traceback."""
    out = tmp_path / "out"
    rc = run_cli([*JSON_INPUTS[flag](tmp_path, "[" * 100_000 + "\n"), "-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and not out.exists(), err
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} "), err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10)


def _leaf_paths(node, path=()):
    """The key path of every leaf of a JSON value."""
    if not isinstance(node, (dict, list)):
        return [path]
    items = node.items() if isinstance(node, dict) else enumerate(node)
    return [p for k, v in items for p in _leaf_paths(v, path + (k,))]


# a valid file for each flag of JSON_INPUTS that names an input of `region`;
# the --pmf one is the golden pmf with the golden channel composed on
_VALID = {
    "--network": _golden("net3.json"),
    "--cov": _golden("cov_net3.json"),
    "--pmf": {"variables": [{"name": n, "size": 2} for n in ("U", "V", "X1", "Y1", "Y2")],
              "probs": (np.reshape(_golden("pmf_uvx1.json")["probs"], (4, 2, 1))
                        * np.reshape(_golden("channel_x1_y1y2.json")["probs"], (1, 2, 4))
                        ).ravel().tolist()},
    "--channel": _golden("channel_x1_y1y2.json"),
    "--valuation": {"I(U;Y1)": 1.0, "I(V;Y2)": 0.5, "I(U;V)": 0.25, "C1": 2.0},
}


@st.composite
def _region_input(draw):
    """A flag and a file for it: any JSON value, or a valid file with one
    leaf replaced by one."""
    flag = draw(st.sampled_from(sorted(_VALID)))
    value = draw(JSON_VALUES)
    if draw(st.booleans()):
        value = _edited(_VALID[flag], (*draw(st.sampled_from(_leaf_paths(_VALID[flag]))), value))
    return flag, json.dumps(value)


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_region_input())
def test_any_json_input_exits_0_or_is_a_usage_error_naming_its_flag(case):
    """Whatever JSON a `region` input file holds, the command succeeds or
    prints one line that names the file's flag and exits 2."""
    flag, text = case
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        rc = run_cli([*JSON_INPUTS[flag](Path(tmp), text), "-o", str(Path(tmp) / "out")])
    assert rc in (0, 2)
    if rc == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith(f"error: {flag} "), (
            err.getvalue())


def test_reading_input_files_leaves_none_open(tmp_path):
    """Each input file is closed once read: `python -X dev` printed a
    ResourceWarning for every file a command opened."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["region", "--scheme", "COR4", *cor4_pmf_args(tmp_path),
                        "--caps", "C1=0.5", "-o", str(tmp_path / "region.json")]) == 0
        assert run_cli(["fme", "-i", str(GOLDEN / "cor4_input.txt"), "-e", "Ru1",
                        "-o", str(tmp_path / "proj.txt")]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_cutset_region_with_a_subnormal_variance(tmp_path):
    """Exited 2 with an overflow in the pseudo-inverse of the 5e-324 block."""
    out = tmp_path / "out.json"
    rc = run_cli([*_cov(tmp_path, "[[5e-324, 0, 0], [0, 10, 0], [0, 0, 10]]"), "-o", str(out)])
    rows = json.loads(out.read_text())["constraints"]
    assert rc == 0 and len(rows) == 24
    assert all(math.isfinite(r["rhs_value"]) for r in rows)
