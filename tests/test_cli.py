"""End-to-end tests of the command-line front end."""
import json
import math

import pytest

from oscillib.cli import main, parse_modulus, parse_seeds
from oscillib.funcspace import StepFunction, distribution_measure


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def step_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({
        "domain": [0.0, 1.0],
        "breakpoints": [0.25, 0.5],
        "values": [1.0, -0.5, 2.0],
    }))
    return path


def test_parse_seeds_forms():
    assert parse_seeds("0..5") == [0, 1, 2, 3, 4]
    assert parse_seeds("3,7,9") == [3, 7, 9]
    assert parse_seeds("42") == [42]
    with pytest.raises(ValueError):
        parse_seeds("5..5")


def test_parse_modulus_forms(tmp_path):
    xi = parse_modulus("power:0.5")
    assert xi.kind == "power" and xi.alpha == 0.5 and xi.scale == 1.0
    xi = parse_modulus("power:0.25:2.0")
    assert xi.scale == 2.0
    xi = parse_modulus("linear:0.7")
    assert xi.kind == "linear" and xi.slope == 0.7
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"horizon": 2.0, "kind": "power", "alpha": 0.5, "scale": 1.0}))
    assert parse_modulus(str(path)).horizon == 2.0


def test_rearrange_monotone_is_normalized_input(tmp_path):
    src = tmp_path / "mono.json"
    src.write_text(json.dumps({
        "domain": [0.0, 1.0],
        "breakpoints": [0.5],
        "values": [2.0, 1.0],
    }))
    out = tmp_path / "out.json"
    assert run_cli("rearrange", "--input", src, "--output", out) == 0
    data = json.loads(out.read_text())
    assert data == {"domain": [0.0, 1.0], "breakpoints": [0.5], "values": [2.0, 1.0]}


def test_rearrange_piece_below_rounding(tmp_path):
    record = {"domain": [0, 1], "breakpoints": [1e-20, 0.5], "values": [0, 1, 2]}
    src = tmp_path / "tiny.json"
    src.write_text(json.dumps(record))
    out = tmp_path / "out.json"
    assert run_cli("rearrange", "--input", src, "--output", out) == 0
    sf = StepFunction.from_json_dict(record)
    result = StepFunction.from_json(out.read_text())
    for lam in (-1.0, 0.0, 1.0, 2.0):
        assert abs(distribution_measure(result, lam) - distribution_measure(sf, lam)) <= math.ulp(1.0)


def test_profile_csv_shape(step_file, tmp_path):
    out = tmp_path / "prof.csv"
    assert run_cli("profile", "--input", step_file, "--grid", 16, "--output", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "length,xi,witness_left,witness_right"
    assert len(lines) == 17
    xi_vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a <= b + 1e-15 for a, b in zip(xi_vals, xi_vals[1:]))


def test_geometry_final_row_tangency(tmp_path):
    out = tmp_path / "curve.csv"
    assert run_cli("geometry", "--modulus", "power:0.5", "--t", 1, "--output", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "tau,gamma1,gamma2"
    tau, g1, g2 = (float(x) for x in lines[-1].split(","))
    assert tau == 1.0
    assert abs((g2 - g1 * g1) - 1.0) < 1e-12  # xi(1)^2 = 1


def test_geometry_strip_output(tmp_path):
    out = tmp_path / "curve.csv"
    strip = tmp_path / "strip.csv"
    assert run_cli("geometry", "--modulus", "linear:1.0", "--t", 0.5,
                   "--output", out, "--strip-output", strip) == 0
    rows = strip.read_text().strip().splitlines()
    assert rows[0] == "x1,lower,upper"
    x1, lo, up = (float(x) for x in rows[1].split(","))
    assert lo == pytest.approx(x1 * x1, rel=1e-12)
    assert up == pytest.approx(x1 * x1 + 0.25, rel=1e-12)


def test_convexify_round_trip(tmp_path):
    src = tmp_path / "samples.json"
    src.write_text(json.dumps({
        "grid": [0.0, 0.5, 1.0],
        "values": [0.0, math.sqrt(0.4) / 0.5, math.sqrt(0.5)],
    }))
    out = tmp_path / "conv.csv"
    assert run_cli("convexify", "--input", src, "--output", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,f,conv"
    mid = [float(x) for x in lines[2].split(",")]
    assert mid[2] == pytest.approx(1.0, abs=1e-12)


def test_majorant_csv(tmp_path):
    out = tmp_path / "maj.csv"
    assert run_cli("majorant", "--modulus", "power:0.5", "--t0", 1.0,
                   "--delta", 0.1, "--grid", 257, "--output", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,xi,xi_tilde"
    for line in lines[1:]:
        t, xi, tilde = (float(x) for x in line.split(","))
        assert tilde >= xi - 1e-12


def test_verify_exit_codes(tmp_path):
    report = tmp_path / "rep.json"
    code = run_cli("verify", "dilation", "--seeds", "0..20", "--output", report)
    assert code == 0
    data = json.loads(report.read_text())
    assert data["failures"] == 0
    assert data["name"] == "dilation"


def test_verify_convexified_small():
    assert run_cli("verify", "convexified", "--seeds", "0..10", "--grid", 32) == 0


def test_exit_code_2_on_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"domain": [0, 1], "breakpoints": [2.0], "values": [1, 2]}))
    assert run_cli("rearrange", "--input", bad) == 2
    assert run_cli("rearrange", "--input", tmp_path / "missing.json") == 2
    assert run_cli("profile", "--input", bad, "--grid", 16) == 2


def test_exit_code_2_on_non_finite_input(tmp_path):
    nan_values = tmp_path / "nan.json"
    nan_values.write_text('{"domain": [0, 1], "breakpoints": [0.5], "values": [NaN, 1.0]}')
    huge_domain = tmp_path / "huge.json"
    huge_domain.write_text('{"domain": [0, 1e400], "breakpoints": [0.5], "values": [0.0, 1.0]}')
    assert run_cli("profile", "--input", nan_values) == 2
    assert run_cli("profile", "--input", huge_domain) == 2


def test_exit_code_3_on_internal_invariant_failure(capsys):
    code = run_cli("majorant", "--modulus", "power:0.5", "--t0", 0.01,
                   "--delta", 10, "--grid", 1025)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_code_2_on_small_grid(step_file):
    assert run_cli("profile", "--input", step_file, "--grid", 4) == 2


def test_outputs_byte_reproducible(step_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("profile", "--input", step_file, "--grid", 32, "--output", a)
    run_cli("profile", "--input", step_file, "--grid", 32, "--output", b)
    assert a.read_bytes() == b.read_bytes()
    ra = tmp_path / "ra.json"
    rb = tmp_path / "rb.json"
    run_cli("verify", "dilation", "--seeds", "0..10", "--output", ra)
    run_cli("verify", "dilation", "--seeds", "0..10", "--output", rb)
    assert ra.read_bytes() == rb.read_bytes()
