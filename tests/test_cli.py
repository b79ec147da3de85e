import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rlatt.cli import SETTINGS, RunConfig, build_parser, load_config, main
from rlatt.coeffs import ModelParams, weight_vector
from rlatt.operators import build_hop_operator
from rlatt.partitions import enumerate_lattice
from rlatt.report import REPORT_SCHEMA_VERSION, TOLERANCES
from scalar_reference import conjugate_by_weights


def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def test_enumerate_counts(tmp_path):
    code, payload = run_json(tmp_path, ["enumerate", "--n", "2", "--m", "1"])
    assert code == 0
    assert payload["size"] == 3
    assert [r["partition"] for r in payload["records"]] == [[], [1], [1, 1]]
    code, payload = run_json(tmp_path, ["enumerate", "--n", "2", "--m", "2"])
    assert code == 0
    assert payload["size"] == 6
    assert all(r["delta"] > 0 for r in payload["records"])


def test_enumerate_rejects_bad_rank(tmp_path):
    assert main(["enumerate", "--n", "0", "--m", "2"]) == 2


def test_missing_required_shape_is_usage_error():
    assert main(["enumerate", "--m", "2"]) == 2


def test_operator_matrix(tmp_path):
    code, payload = run_json(
        tmp_path, ["operator", "--n", "1", "--m", "1", "--g", "1", "--p", "0", "--r", "1"]
    )
    assert code == 0
    assert payload["size"] == 2
    assert payload["dtype"] == "real"
    mat = np.array(payload["entries"]).reshape(2, 2)
    assert mat == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]), abs=1e-14)


def test_operator_bad_order_is_usage_error(tmp_path):
    assert main(["operator", "--n", "1", "--m", "1", "--r", "0"]) == 2


def test_operator_json_roundtrip_is_bit_exact(tmp_path):
    args = ["operator", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.5", "--r", "2"]
    code, payload = run_json(tmp_path, args)
    assert code == 0
    direct = build_hop_operator(2, ModelParams(2, 2, 0.7, 0.5), enumerate_lattice(2, 2))
    reloaded = np.array(payload["entries"]).reshape(payload["size"], payload["size"])
    assert np.array_equal(reloaded, direct)


def test_complex_operator_export(tmp_path):
    code, payload = run_json(
        tmp_path,
        ["operator", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.3", "--r", "1", "--kind", "S"],
    )
    assert code == 0
    assert payload["dtype"] == "complex"
    entries = np.array([complex(re, im) for re, im in payload["entries"]])
    assert np.all(np.abs(entries.real) < 1e-15)


def operator_matrix(tmp_path, params, r, kind):
    """The matrix that `rlatt operator` writes for one kind, read back bit for bit."""
    args = [
        "operator", "--n", str(params.n), "--m", str(params.m), "--g", repr(params.g),
        "--p", repr(params.p), "--r", str(r), "--kind", kind,
    ]
    code, payload = run_json(tmp_path, args, f"{kind}{r}.json")
    assert code == 0
    assert payload["kind"] == kind
    entries = np.array(payload["entries"])
    if payload["dtype"] == "complex":
        entries = entries.view(complex)
    return entries.reshape(payload["size"], payload["size"])


# (n, m, g, p); the n = 1 point has unit weights
OPERATOR_POINTS = [(1, 1, 1.0, 0.0), (2, 2, 0.7, 0.3), (3, 3, 0.7, 0.5), (4, 2, 1.3, -0.4)]


@pytest.mark.parametrize("n,m,g,p", OPERATOR_POINTS)
def test_operator_kind_c_is_the_half_sum(tmp_path, n, m, g, p):
    # r = n + 1 - r included: C is then D_r itself, as (D_r + D_r) / 2
    params, basis = ModelParams(n, m, g, p), enumerate_lattice(n, m)
    for r in range(1, (n + 1) // 2 + 1):
        pair = build_hop_operator(r, params, basis) + build_hop_operator(n + 1 - r, params, basis)
        assert np.array_equal(operator_matrix(tmp_path, params, r, "C"), 0.5 * pair)
    if n % 2:
        middle = (n + 1) // 2
        assert np.array_equal(operator_matrix(tmp_path, params, middle, "C"), build_hop_operator(middle, params, basis))


@pytest.mark.parametrize("n,m,g,p", OPERATOR_POINTS)
def test_operator_kind_s_is_the_half_difference(tmp_path, n, m, g, p):
    params, basis = ModelParams(n, m, g, p), enumerate_lattice(n, m)
    for r in range(1, n // 2 + 1):
        pair = build_hop_operator(r, params, basis) - build_hop_operator(n + 1 - r, params, basis)
        assert np.array_equal(operator_matrix(tmp_path, params, r, "S"), pair / 2j)


@pytest.mark.parametrize("n,m,g,p", OPERATOR_POINTS)
def test_operator_kind_m_is_the_weight_conjugated_hop(tmp_path, n, m, g, p):
    # M is formed from the amplitudes of D_r and D_{n+1-r}, without the weights: equal to
    # the conjugation up to rounding
    params, basis = ModelParams(n, m, g, p), enumerate_lattice(n, m)
    w = weight_vector(basis, params)
    for r in range(1, n + 1):
        hop = build_hop_operator(r, params, basis)
        exported = operator_matrix(tmp_path, params, r, "M")
        reference = conjugate_by_weights(hop, w)
        assert np.max(np.abs(exported - reference)) <= 1e-15 * np.max(np.abs(reference))
        if n == 1:  # unit weights
            assert exported == pytest.approx(hop, abs=1e-14)


@pytest.mark.parametrize("n,m,g,p", OPERATOR_POINTS)
def test_weight_conjugated_combinations_are_self_adjoint(tmp_path, n, m, g, p):
    params = ModelParams(n, m, g, p)
    w = weight_vector(enumerate_lattice(n, m), params)
    for r in range(1, (n + 1) // 2 + 1):
        c = conjugate_by_weights(operator_matrix(tmp_path, params, r, "C"), w)
        assert np.max(np.abs(c - c.T)) < 1e-11
    for r in range(1, n // 2 + 1):
        s = conjugate_by_weights(operator_matrix(tmp_path, params, r, "S"), w)
        assert np.max(np.abs(s + s.T)) < 1e-11  # antisymmetric
        assert np.max(np.abs(s - s.conj().T)) < 1e-11  # and Hermitian


@pytest.mark.parametrize(
    "n,kind,r,message",
    [
        (2, "C", 0, "symmetric combination index 0 outside 1..1"),
        (2, "C", 2, "symmetric combination index 2 outside 1..1"),
        (3, "C", 3, "symmetric combination index 3 outside 1..2"),
        (2, "S", 0, "antisymmetric combination index 0 outside 1..1"),
        (2, "S", 2, "antisymmetric combination index 2 outside 1..1"),
        (1, "S", 1, "antisymmetric combination index 1 outside 1..0"),
        (3, "M", 4, "operator order 4 outside 1..3"),
    ],
)
def test_operator_kind_out_of_range_is_usage_error(capsys, n, kind, r, message):
    assert main(["operator", "--n", str(n), "--m", "2", "--r", str(r), "--kind", kind]) == 2
    assert message in capsys.readouterr().err


def test_spectrum_sweep_two_state(tmp_path):
    code, payload = run_json(
        tmp_path,
        [
            "spectrum", "--n", "1", "--m", "1", "--g", "1",
            "--p-start", "0", "--p-stop", "0.9", "--p-step", "0.1",
        ],
    )
    assert code == 0
    assert len(payload["points"]) == 10
    for point in payload["points"]:
        assert len(point["records"]) == 2
        values = sorted(e[0] for record in point["records"] for e in record["e"])
        assert values == pytest.approx([-1.0, 1.0], abs=1e-12)


@pytest.mark.parametrize("n,m,g,p", [("2", "4", "1.3", "0.99"), ("2", "4", "1.3", "-0.99"), ("3", "3", "0.45", "0.99")])
def test_spectrum_at_the_nome_cap(tmp_path, n, m, g, p):
    # at (2, 4, 1.3, 0.99) the lattice weights overflow, and every point needs the bracket's
    # 2063 factors; the solve reads no weight
    code, payload = run_json(tmp_path, ["spectrum", "--n", n, "--m", m, "--g", g, "--p", p])
    assert code == 0
    (point,) = payload["points"]
    assert len(point["records"]) == math.comb(int(n) + int(m), int(n))
    assert max(record["residual"] for record in point["records"]) < 1e-9


def test_spectrum_descending_sweep(tmp_path):
    code, payload = run_json(
        tmp_path,
        [
            "spectrum", "--n", "1", "--m", "1", "--g", "1",
            "--p-start", "0.2", "--p-stop", "0", "--p-step", "0.1",
        ],
    )
    assert code == 0
    assert [point["p"] for point in payload["points"]] == [0.2, 0.1, 0.0]


def test_spectrum_labels_match_trig_table(tmp_path):
    code, payload = run_json(
        tmp_path, ["spectrum", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0"]
    )
    assert code == 0
    assert sorted(payload) == ["g", "m", "n", "points", "schema"]
    from scalar_reference import trig_joint_eigenvalue

    params = ModelParams(2, 2, 0.7, 0.0)
    for record in payload["points"][0]["records"]:
        nu = tuple(record["nu"])
        for r, (re, im) in enumerate(record["e"], start=1):
            closed = trig_joint_eigenvalue(nu, r, params)
            assert complex(re, im) == pytest.approx(closed, abs=1e-8)


def test_verify_passes(tmp_path):
    code, payload = run_json(
        tmp_path, ["verify", "--n", "2", "--m", "2", "--g", "1", "--p", "0.3"]
    )
    assert code == 0
    assert sorted(payload) == ["checks", "params", "passed", "versions"]
    assert payload["passed"] is True
    assert payload["versions"] == {"schema": REPORT_SCHEMA_VERSION, "package": "0.1.0"}
    names = [c["name"] for c in payload["checks"]]
    assert names == [
        "commutators", "adjointness", "truncation-dichotomy", "weight-recurrence",
        "psi-consistency", "orthogonality", "pieri", "dual-orthogonality",
        "reconstruction", "trig-comparison", "appendix-crosscheck",
    ]
    for check in payload["checks"]:
        assert check["passed"] is True
        assert check["residual"] is not None and np.isfinite(check["residual"])
        assert check["residual"] < check["tolerance"]
        assert check["tolerance"] == TOLERANCES[check["name"]]
        assert check["seconds"] >= 0


def test_verify_with_broken_alpha_fails(tmp_path):
    code, payload = run_json(
        tmp_path,
        ["verify", "--n", "2", "--m", "2", "--g", "1", "--p", "0.3", "--alpha-scale", "0.93"],
    )
    assert code == 1
    assert payload["passed"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["truncation-dichotomy"]["passed"] is False


def test_verify_rejects_sweep():
    code = main(
        ["verify", "--n", "2", "--m", "2", "--p-start", "0", "--p-stop", "0.5", "--p-step", "0.1"]
    )
    assert code == 2


def test_tolerance_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "2", "--m", "2", "--tol-pieri", "1e-3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", [["enumerate"], ["operator", "--r", "1"], ["spectrum"], ["verify"], ["polys"]])
def test_alpha_scale_must_be_finite_and_positive(capsys, command, scale):
    argv = [*command, "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.3", f"--alpha-scale={scale}"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "scaling alpha must be finite and positive" in err


def test_polys_two_state_table(tmp_path):
    code, payload = run_json(
        tmp_path, ["polys", "--n", "1", "--m", "1", "--g", "1", "--p", "0.5"]
    )
    assert code == 0
    triples = {(tuple(t["mu"]), tuple(t["nu"])): t["u"] for t in payload["triples"]}
    assert triples == {((), ()): 1.0, ((1,), (1,)): 1.0}
    for t in payload["triples"]:
        assert isinstance(t["u"], float)


def test_polys_monic_rows_present(tmp_path):
    code, payload = run_json(
        tmp_path, ["polys", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.3"]
    )
    assert code == 0
    monic = {tuple(t["mu"]) for t in payload["triples"] if t["mu"] == t["nu"] and t["u"] == 1.0}
    assert len(monic) == 6


def test_byte_determinism(tmp_path):
    for args, name in [
        (["enumerate", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.5"], "basis"),
        (["operator", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.5", "--r", "1"], "op"),
        (["spectrum", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.5"], "spec"),
        (["polys", "--n", "2", "--m", "2", "--g", "0.7", "--p", "0.5"], "polys"),
    ]:
        first = tmp_path / f"{name}1.json"
        second = tmp_path / f"{name}2.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def test_report_determinism_modulo_timings(tmp_path):
    args = ["verify", "--n", "1", "--m", "1", "--g", "1", "--p", "0.3"]
    _, one = run_json(tmp_path, args, "r1.json")
    _, two = run_json(tmp_path, args, "r2.json")
    for payload in (one, two):
        for check in payload["checks"]:
            check["seconds"] = 0.0
    assert one == two


def test_csv_output(tmp_path):
    out = tmp_path / "basis.csv"
    assert main(["enumerate", "--n", "2", "--m", "2", "--format", "csv", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["index", "partition", "weight", "delta"]
    assert len(rows) == 7
    # full precision survives the csv round trip
    from scalar_reference import lattice_weight

    assert float(rows[2][3]) == lattice_weight((1,), ModelParams(2, 2, 1.0, 0.0))


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(
        ["spectrum", "--n", "1", "--m", "1", "--g", "1", "--p", "0.4", "--format", "csv",
         "--out", str(out)]
    ) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["p", "nu", "norm_hat", "residual", "e1_re", "e1_im"]
    assert len(rows) == 3


def test_config_file_and_overrides(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 2, "m": 1, "g": 1.0, "p": 0.0}))
    code, payload = run_json(tmp_path, ["enumerate", "--config", str(config)])
    assert code == 0
    assert payload["size"] == 3
    # flags override the file
    code, payload = run_json(tmp_path, ["enumerate", "--config", str(config), "--m", "2"])
    assert payload["size"] == 6


# per config key: a value for the file and a different one for the flag; an
# integer stands for a number in the file
KEY_VALUES = {
    "n": (3, 4),
    "m": (1, 2),
    "g": (0.7, 2),
    "p": (0.3, -1),
    "p_start": (0.1, 0.2),
    "p_stop": (0.4, 1),
    "p_step": (0.05, 0.25),
    "alpha_scale": (0.9, 3),
    "out": ("file.json", "flag.json"),
    "format": ("json", "csv"),
}


def key_flags(key, value):
    return ["--" + key.replace("_", "-"), str(value)]


def typed(config):
    return {name: (value, type(value)) for name, value in vars(config).items()}


@pytest.mark.parametrize("key", list(SETTINGS))
def test_config_key_and_flag_agree_and_the_flag_wins(tmp_path, key):
    file_value, flag_value = KEY_VALUES[key]
    path = tmp_path / "config.json"

    def config(file_values, flags):
        path.write_text(json.dumps({"n": 2, "m": 2, "p_start": 0, "p_stop": 0.5, "p_step": 0.1, **file_values}))
        return load_config(build_parser().parse_args(["verify", "--config", str(path), *flags]))

    from_file = config({key: flag_value}, [])
    from_flag = config({}, key_flags(key, flag_value))
    both = config({key: file_value}, key_flags(key, flag_value))
    # the types tell an integer from the float it equals
    assert typed(from_file) == typed(from_flag) == typed(both)
    assert config({key: file_value}, []) != from_flag


def test_seed_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "2", "--m", "2", "--seed", "3"])
    assert exc.value.code == 2


# the cap of ModelParams, and the float just above it
@pytest.mark.parametrize("p,code", [(0.99, 0), (-0.99, 0), (0.9900000000000001, 2), (-0.9900000000000001, 2)])
def test_single_nome_and_sweep_share_the_nome_cap(tmp_path, p, code):
    shape = ["spectrum", "--n", "1", "--m", "1", "--g", "1"]
    assert main(shape + ["--p", repr(p), "--out", str(tmp_path / "one.json")]) == code
    sweep = ["--p-start", "0", "--p-stop", repr(p), "--p-step", "0.33"]
    assert main(shape + sweep + ["--out", str(tmp_path / "sweep.json")]) == code
    if code == 0:
        points = json.loads((tmp_path / "sweep.json").read_text())["points"]
        assert [point["p"] for point in points] == [0.0, 0.33 * np.sign(p), 0.66 * np.sign(p), p]


@pytest.mark.parametrize("step", ["nan", "inf", "-inf", "0", "-0.1"])
def test_sweep_step_must_be_finite_and_positive(tmp_path, capsys, step):
    argv = ["spectrum", "--n", "1", "--m", "1", "--g", "1", "--p-start", "0", "--p-stop", "0.5", f"--p-step={step}"]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert "p-sweep step must be a finite positive number" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_sweep_step_below_the_nome_resolution_is_usage_error(tmp_path, capsys):
    # the nomes are rounded to 12 decimals: this step gave 0, 0, 1e-12, 1e-12, 2e-12, 2e-12, 2e-12, 3e-12
    argv = ["spectrum", "--n", "2", "--m", "2", "--g", "0.7", "--p-start", "0", "--p-stop", "2e-12",
            "--p-step", "4e-13"]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    assert "p-sweep step 4e-13 is below the resolution of the nomes" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_sweep_grid_above_the_bound_is_usage_error(capsys):
    # 1e-4 across [0, 0.99] is the finest step the bound of 10 000 nomes lets through
    assert len(RunConfig(1, 1, p_sweep=(0.0, 0.99, 1e-4)).sweep_values()) == 9901
    with pytest.raises(ValueError, match="p-sweep has 99001 nomes, more than the bound of 10000"):
        RunConfig(1, 1, p_sweep=(0.0, 0.99, 1e-5)).sweep_values()
    # this step is above the resolution of the nomes, and the grid was enumerated without end
    argv = ["spectrum", "--n", "1", "--m", "1", "--p-start", "0", "--p-stop", "0.99", "--p-step", "2e-12"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "rlatt: p-sweep has 495000000001 nomes, more than the bound of 10000\n"


# a nome rounded onto or past the stop is the stop, and the last
@pytest.mark.parametrize(
    "sweep,nomes",
    [
        ((0.0, 0.5 - 1e-13, 0.5), [0.0, 0.5 - 1e-13]),
        ((0.0, 1e-13 - 0.5, 0.5), [0.0, 1e-13 - 0.5]),
        ((0.0, 3e-12, 1e-12), [0.0, 1e-12, 2e-12, 3e-12]),
        ((0.0, 0.9, 0.1), [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
    ],
)
def test_sweep_is_monotone_and_never_passes_its_stop(sweep, nomes):
    assert RunConfig(1, 1, p_sweep=sweep).sweep_values() == nomes


def test_malformed_config_is_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    for command, contents, message in [
        (["verify"], {"n": 1, "m": 1, "tolerances": {"pieri": 1e-3}}, "unknown config key 'tolerances'"),
        (["verify", "--n", "1", "--m", "1"], [1, 2], "must hold a JSON object, not list"),
        (["enumerate"], {"n": 1, "m": 1, "format": "xml"}, "format must be json or csv, got 'xml'"),
        (["enumerate"], {"n": [1], "m": 1}, "config key 'n' must be an integer, got [1]"),
        (["enumerate"], {"n": 1, "m": 1, "g": None}, "config key 'g' must be a number, got None"),
        (["enumerate"], {"n": 1.5, "m": 1}, "config key 'n' must be an integer, got 1.5"),
        (["enumerate"], {"n": True, "m": 1}, "config key 'n' must be an integer, got True"),
        (["enumerate"], {"n": 1, "m": 1, "out": 5}, "config key 'out' must be a string, got 5"),
        (["enumerate"], {"n": 1, "m": 1, "p": False}, "config key 'p' must be a number, got False"),
        (["enumerate"], {"n": 1, "m": "x"}, "config key 'm' must be an integer, got 'x'"),
        (["verify"], {"n": 1, "m": 1, "tolerance": {"pieri": 1e-3}}, "unknown config key 'tolerance'"),
        (["spectrum"], {"n": 1, "m": 1, "seed": 0}, "unknown config key 'seed'"),
    ]:
        config.write_text(json.dumps(contents))
        assert main(command + ["--config", str(config)]) == 2
        assert message in capsys.readouterr().err


def test_readme_config_table_names_every_setting():
    # the first cell of each row of the README's config-key table; one row may name several keys
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | JSON type | default |\n| --- | --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    keys = [key for row in table.splitlines() for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(SETTINGS)
