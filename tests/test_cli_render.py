"""The array renderers of the CLI against the dict layouts they replace.

``rlatt spectrum`` renders its JSON from the ``Spectrum`` arrays with one
template per record.  The specification is the payload of per-label record
dicts passed through ``json.dumps(sort_keys=True, indent=2)``, kept here as
the reference, and the CSV rows built from those dicts; both must come out
byte for byte.  ``rlatt operator`` is held to its per-entry loops the same way.
"""

import csv
import io
import json

import numpy as np
import pytest

from rlatt import cli
from rlatt.cli import RunConfig, main
from rlatt.coeffs import ModelParams
from rlatt.partitions import enumerate_lattice
from rlatt.spectral import Spectrum, sweep_spectra


def reference_records(spectrum) -> list:
    return [
        {
            "nu": list(nu),
            "e": [[e.real, e.imag] for e in eigenvalues],
            "norm_hat": norm_hat,
            "residual": residual,
        }
        for nu, eigenvalues, norm_hat, residual in zip(
            spectrum.basis.order,
            spectrum.eigenvalues.tolist(),
            spectrum.norm_hat.tolist(),
            spectrum.residuals.tolist(),
        )
    ]


def reference_json(config: RunConfig, values, spectra) -> str:
    payload = {
        "schema": "rlatt/spectrum",
        "n": config.n,
        "m": config.m,
        "g": config.g,
        "points": [{"p": float(p), "records": reference_records(s)} for p, s in zip(values, spectra)],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reference_csv(config: RunConfig, values, spectra) -> str:
    header = ["p", "nu", "norm_hat", "residual"]
    for r in range(1, config.n + 1):
        header += [f"e{r}_re", f"e{r}_im"]
    rows = []
    for p, s in zip(values, spectra):
        for record in reference_records(s):
            row = [repr(float(p)), " ".join(map(str, record["nu"])), repr(record["norm_hat"]), repr(record["residual"])]
            for e_re, e_im in record["e"]:
                row += [repr(e_re), repr(e_im)]
            rows.append(row)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def assert_renders_as_reference(config: RunConfig, values, spectra):
    assert cli._render_spectrum(config, values, spectra) == reference_json(config, values, spectra)
    csv_config = RunConfig(config.n, config.m, config.g, format="csv")
    assert cli._render_spectrum(csv_config, values, spectra) == reference_csv(config, values, spectra)


BOXES = [(1, 3), (2, 2), (3, 2), (4, 2), (5, 2)]


@pytest.mark.parametrize("n,m", BOXES)
def test_single_point_spectrum_renders_as_reference(n, m):
    params = ModelParams(n, m, 0.7, 0.3)
    spectrum = sweep_spectra(params, [0.3])[0]
    assert spectrum.basis.order[0] == ()
    assert_renders_as_reference(RunConfig(n, m, 0.7, 0.3), [0.3], [spectrum])


@pytest.mark.parametrize("n,m", BOXES)
def test_sweep_renders_as_reference(n, m):
    values = [0.0, -0.05, -0.1]
    spectra = sweep_spectra(ModelParams(n, m, 1.3), values)
    assert_renders_as_reference(RunConfig(n, m, 1.3), values, spectra)


def test_cli_spectrum_writes_the_reference(tmp_path):
    config = RunConfig(3, 2, 0.7, p_sweep=(0.0, 0.1, 0.05))
    values = config.sweep_values()
    spectra = sweep_spectra(config.model_params(), values)
    args = ["spectrum", "--n", "3", "--m", "2", "--g", "0.7", "--p-start", "0", "--p-stop", "0.1",
            "--p-step", "0.05"]
    for fmt, reference in (("json", reference_json), ("csv", reference_csv)):
        out = tmp_path / f"spectrum.{fmt}"
        assert main(args + ["--format", fmt, "--out", str(out)]) == 0
        assert out.read_text() == reference(config, values, spectra)


NEG_NAN, MAX = np.copysign(np.nan, -1), 1.7976931348623157e308
# (eigenvalues, norm_hat, residuals) of the three labels of (2, 1); the second table holds the cases the
# rendering of each distinct magnitude once meets: +x beside -x, 0.0 beside -0.0, a NaN with its sign bit
# set, and the smallest subnormal and the largest float of either sign
EXTREME_TABLES = [
    (
        [
            [complex(np.nan, -0.0), complex(np.inf, 5e-324)],
            [complex(-np.inf, 1e300), complex(-0.0, np.nan)],
            [complex(1e300, -np.inf), complex(-5e-324, 0.1)],
        ],
        [np.nan, -0.0, 5e-324],
        [np.inf, 1e300, -np.inf],
    ),
    (
        [
            [complex(0.1, -0.1), complex(0.0, -0.0)],
            [complex(NEG_NAN, 5e-324), complex(-5e-324, MAX)],
            [complex(-MAX, -np.inf), complex(np.inf, NEG_NAN)],
        ],
        [-0.1, 0.0, -0.0],
        [0.1, NEG_NAN, -MAX],
    ),
]


def test_synthetic_spectrum_with_extreme_floats_renders_as_reference():
    params = ModelParams(2, 1, 0.7, 0.2)
    basis = enumerate_lattice(2, 1)
    for eigenvalues, norm_hat, residuals in EXTREME_TABLES:
        # each of the three sectors is one orbit, the whole box, so every block is 1 x 1
        spectrum = Spectrum(
            params,
            basis,
            np.array(eigenvalues),
            np.array(norm_hat),
            np.array(residuals),
            np.array([0, 1, 2]),
            (np.ones((1, 1), dtype=complex),) * 2,
            np.zeros(3, dtype=np.intp),
        )
        text = cli._render_spectrum(RunConfig(2, 1, 0.7, 0.2), [0.2], [spectrum])
        assert "NaN" in text and "-Infinity" in text and "nan" not in text and "-NaN" not in text
        assert_renders_as_reference(RunConfig(2, 1, 0.7, 0.2), [0.2], [spectrum])
        # each float as json writes it alone, its repr
        table = cli._spectrum_table(spectrum).ravel()
        texts = cli._json_floats(table)
        assert texts == tuple(map(json.dumps, table.tolist()))
    assert {"0.1", "-0.1", "0.0", "-0.0", "5e-324", "-5e-324", repr(MAX), repr(-MAX)} <= set(texts)


@pytest.mark.parametrize("kind", ["D", "C", "S", "M"])
def test_operator_output_matches_the_entry_loops(tmp_path, kind):
    args = ["operator", "--n", "3", "--m", "2", "--g", "0.7", "--p", "0.5", "--r", "1", "--kind", kind]
    mat = cli._operator_matrix(ModelParams(3, 2, 0.7, 0.5), 1, kind)
    is_complex = np.iscomplexobj(mat)
    json_out, csv_out = tmp_path / "op.json", tmp_path / "op.csv"
    assert main(args + ["--out", str(json_out)]) == 0
    assert main(args + ["--format", "csv", "--out", str(csv_out)]) == 0
    entries = [[float(v.real), float(v.imag)] if is_complex else float(v) for v in mat.flat]
    payload = json.loads(json_out.read_text())
    assert json_out.read_text() == cli._to_json({**payload, "entries": entries})
    rows = [
        [i, j, repr(complex(mat[i, j]).real), repr(complex(mat[i, j]).imag)]
        for i in range(mat.shape[0])
        for j in range(mat.shape[1])
    ]
    assert csv_out.read_text() == cli._csv_text(["i", "j", "re", "im"], rows)
