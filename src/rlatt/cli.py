"""Command-line interface: enumeration, operator export, spectra, verification.

JSON is the canonical output format (floats keep full precision through the
shortest round-trip representation); ``spectrum`` renders it from the
spectrum arrays with the same bytes as ``json.dumps(sort_keys=True,
indent=2)``.  CSV flattens complex numbers into re/im columns.  Exit codes:
0 success, 1 verification or continuation failure, 2 usage error.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .coeffs import ModelParams, weight_vector
from .eigenpoly import build_polynomials
from .elliptic import NOME_CAP
from .errors import RlattError
from .operators import build_hop_operator, symmetric_hop_operator
from .partitions import enumerate_lattice, weight
from .report import run_verification
from .spectral import sweep_spectra

__all__ = ["main", "entry", "RunConfig"]

USAGE_EXIT = 2
FAILURE_EXIT = 1
# a sweep solves all its nomes in one stacked pass
MAX_SWEEP_NOMES = 10_000


class Setting(NamedTuple):
    """The type a setting's flag parses to and its config-file value must hold, its default and its help."""

    type: type
    default: object = None
    help: str | None = None  # "{}" stands for the default
    choices: tuple | None = None


# every key a config file may hold (a number may be written as an integer; no
# key takes a boolean or null) and, spelled with "-" for "_", every flag common
# to all commands
SETTINGS = {
    "n": Setting(int, help="number of parts bound"),
    "m": Setting(int, help="part size bound"),
    "g": Setting(float, 1.0, "coupling (default {})"),
    "p": Setting(float, 0.0, "elliptic nome (default {})"),
    "p_start": Setting(float),
    "p_stop": Setting(float),
    "p_step": Setting(float),
    "alpha_scale": Setting(float, 1.0, "scale the locked alpha (diagnostic; default {})"),
    "out": Setting(str, help="output path (stdout when omitted)"),
    "format": Setting(str, "json", "output format (default {})", ("json", "csv")),
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


@dataclass
class RunConfig:
    n: int
    m: int
    g: float = SETTINGS["g"].default
    p: float = SETTINGS["p"].default
    p_sweep: tuple[float, float, float] | None = None  # (start, stop, step)
    alpha_scale: float = SETTINGS["alpha_scale"].default
    out: str | None = None
    format: str = SETTINGS["format"].default

    def model_params(self) -> ModelParams:
        locked = ModelParams(n=self.n, m=self.m, g=self.g, p=self.p)
        return replace(locked, alpha_override=self.alpha_scale * locked.alpha)

    def sweep_values(self) -> list[float]:
        if self.p_sweep is None:
            return [self.p]
        start, stop, step = self.p_sweep
        if not 0 < step < math.inf:
            raise ValueError(f"p-sweep step must be a finite positive number, got {step}")
        # the closed bound of ModelParams; a NaN endpoint fails it too
        if not (abs(start) <= NOME_CAP and abs(stop) <= NOME_CAP):
            raise ValueError(f"p-sweep endpoints must lie in [-{NOME_CAP}, {NOME_CAP}]")
        # the k = 0, 1, ... with start + k step at most 1e-12 past stop, the bound of the loop below
        count = (abs(stop - start) + 1e-12) // step + 1
        if count > MAX_SWEEP_NOMES:
            raise ValueError(f"p-sweep has {count:.0f} nomes, more than the bound of {MAX_SWEEP_NOMES}")
        values = []
        direction = 1.0 if stop >= start else -1.0
        p = start
        while direction * (p - stop) <= 1e-12:
            # 12 decimals take the float error off start + k step; one put on or past stop is stop, the last
            value = round(p, 12) if direction * (stop - round(p, 12)) > 0 else stop
            if values and direction * (value - values[-1]) <= 0:
                raise ValueError(f"p-sweep step {step} is below the resolution of the nomes, 12 decimals")
            values.append(value)
            if value == stop:
                break
            p = start + direction * len(values) * step
        return values


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for name, setting in SETTINGS.items():
        help_text = setting.help and setting.help.format(setting.default)
        common.add_argument("--" + name.replace("_", "-"), type=setting.type, choices=setting.choices,
                            help=help_text)
    common.add_argument("--config", type=str, help="JSON config file; flags override it")

    parser = argparse.ArgumentParser(prog="rlatt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rlatt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("enumerate", parents=[common], help="ordered lattice basis with weights")

    p_op = sub.add_parser("operator", parents=[common], help="export one operator matrix")
    p_op.add_argument("--r", type=int, required=True, help="operator order")
    p_op.add_argument("--kind", choices=("D", "C", "S", "M"), default="D",
                      help="hop / symmetric / antisymmetric / weight-conjugated")

    sub.add_parser("spectrum", parents=[common], help="labeled joint spectrum (single p or sweep)")

    sub.add_parser("verify", parents=[common], help="run all residual checks")

    sub.add_parser("polys", parents=[common], help="spectral polynomial coefficient table")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    """Merge the defaults, the config file and the flags into a RunConfig, each overriding the one before."""
    values = {name: setting.default for name, setting in SETTINGS.items()}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            file_values = json.load(handle)
        if not isinstance(file_values, dict):
            raise ValueError(f"config file must hold a JSON object, not {type(file_values).__name__}")
        for key, value in file_values.items():
            if key not in SETTINGS:
                raise ValueError(f"unknown config key {key!r}")
            kind = SETTINGS[key].type
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
                raise ValueError(f"config key {key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
            values[key] = kind(value)  # a float of an integer number
    # a flag not given is None
    values.update((name, value) for name, value in vars(args).items() if name in SETTINGS and value is not None)
    if values["n"] is None or values["m"] is None:
        raise ValueError("both --n and --m are required (flags or config file)")
    sweep = tuple(values.pop(name) for name in ("p_start", "p_stop", "p_step"))
    if None in sweep:
        if sweep != (None, None, None):
            raise ValueError("a p-sweep needs all of --p-start, --p-stop, --p-step")
        sweep = None
    for name, setting in SETTINGS.items():
        if setting.choices and values[name] not in setting.choices:
            raise ValueError(f"{name} must be {' or '.join(setting.choices)}, got {values[name]!r}")
    return RunConfig(p_sweep=sweep, **values)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _to_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(header: list, rows: list) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _header(schema: str, config: RunConfig) -> dict:
    """The schema and the parameter point that open the basis, operator and polys documents."""
    return {"schema": schema, "n": config.n, "m": config.m, "g": config.g, "p": config.p}


def cmd_enumerate(config: RunConfig, args: argparse.Namespace) -> int:
    params = config.model_params()
    basis = enumerate_lattice(config.n, config.m)
    records = [
        {
            "index": i,
            "partition": list(lam),
            "weight": weight(lam),
            "delta": delta,
        }
        for i, (lam, delta) in enumerate(zip(basis.order, weight_vector(basis, params).tolist()))
    ]
    if config.format == "json":
        payload = {**_header("rlatt/basis", config), "size": len(basis), "records": records}
        _emit(_to_json(payload), config.out)
    else:
        rows = [[r["index"], " ".join(map(str, r["partition"])), r["weight"], repr(r["delta"])] for r in records]
        _emit(_csv_text(["index", "partition", "weight", "delta"], rows), config.out)
    return 0


def _operator_matrix(params: ModelParams, r: int, kind: str) -> np.ndarray:
    """D_r, the self-adjoint combinations C_r and S_r, or the weight-conjugated M_r."""
    n = params.n
    if kind == "C" and not 1 <= r <= (n + 1) // 2:
        raise ValueError(f"symmetric combination index {r} outside 1..{(n + 1) // 2}")
    if kind == "S" and not 1 <= r <= n // 2:
        raise ValueError(f"antisymmetric combination index {r} outside 1..{n // 2}")
    basis = enumerate_lattice(n, params.m)
    if kind == "M":
        return symmetric_hop_operator(r, params, basis)
    hop = build_hop_operator(r, params, basis)
    if kind == "C":
        return 0.5 * (hop + build_hop_operator(n + 1 - r, params, basis))
    if kind == "S":
        return (hop - build_hop_operator(n + 1 - r, params, basis)) / 2j
    return hop


def cmd_operator(config: RunConfig, args: argparse.Namespace) -> int:
    mat = _operator_matrix(config.model_params(), args.r, args.kind)
    is_complex = np.iscomplexobj(mat)
    # (i, j, re/im); a real matrix has imaginary parts 0.0
    pairs = np.stack([mat.real, mat.imag], axis=-1)
    if config.format == "json":
        payload = {
            **_header("rlatt/operator", config),
            "kind": args.kind,
            "r": args.r,
            "size": int(mat.shape[0]),
            "dtype": "complex" if is_complex else "real",
            "entries": pairs.reshape(-1, 2).tolist() if is_complex else mat.ravel().tolist(),
        }
        _emit(_to_json(payload), config.out)
    else:
        rows = [
            [i, j, repr(re), repr(im)]
            for i, row in enumerate(pairs.tolist())
            for j, (re, im) in enumerate(row)
        ]
        _emit(_csv_text(["i", "j", "re", "im"], rows), config.out)
    return 0


# json's spellings of the floats that float.__repr__ writes as nan, inf and -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_array(items: list, depth: int) -> str:
    """Rendered items as a JSON array opened at nesting depth ``depth``, laid out as indent=2."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _json_object(fields: dict, depth: int) -> str:
    """Rendered values as a JSON object opened at nesting depth ``depth``, keys sorted, laid out as indent=2."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(f"{json.dumps(key)}: {value}" for key, value in sorted(fields.items()))
    return "{" + inner + body + "\n" + "  " * depth + "}"


def _spectrum_table(spectrum) -> np.ndarray:
    """Per label in basis order: e_1..e_n as re/im pairs, then norm_hat and residual."""
    e = spectrum.eigenvalues
    pairs = np.stack([e.real, e.imag], axis=-1).reshape(len(e), -1)
    return np.column_stack([pairs, spectrum.norm_hat, spectrum.residuals])


def _json_floats(table: np.ndarray) -> tuple:
    """json's text of every float of the table, row by row."""
    texts = list(map(float.__repr__, table.ravel().tolist()))
    if not np.isfinite(table).all():
        texts = [_JSON_NONFINITE.get(text, text) for text in texts]
    return tuple(texts)


def _render_spectrum(config: RunConfig, values: list, spectra: list) -> str:
    """The labeled spectra at the nomes ``values``, in the configured format.

    JSON is rendered from the arrays, byte for byte as ``_to_json`` renders
    {"schema", "n", "m", "g", "points": [{"p", "records": [{"nu",
    "e": [[re, im], ...], "norm_hat", "residual"}, ...]}, ...]}: the labels
    are filled into the record template once, and each point's floats into
    the result in one substitution.
    """
    if config.format == "csv":
        header = ["p", "nu", "norm_hat", "residual"]
        for r in range(1, config.n + 1):
            header += [f"e{r}_re", f"e{r}_im"]
        rows = [
            [repr(float(p)), " ".join(map(str, nu)), *map(repr, row[-2:] + row[:-2])]
            for p, s in zip(values, spectra)
            for nu, row in zip(s.basis.order, _spectrum_table(s).tolist())
        ]
        return _csv_text(header, rows)
    pair = _json_array(["%s", "%s"], 6)
    record = _json_object(
        {"e": _json_array([pair] * config.n, 5), "norm_hat": "%s", "nu": "%s", "residual": "%s"}, 4
    )
    # every point of one call has the same labels; the float slots stay "%s"
    slots = ("%s",) * (2 * config.n + 1)
    records = _json_array(
        [record % (*slots, _json_array(list(map(str, nu)), 5), "%s") for nu in spectra[0].basis.order], 3
    )
    points = [
        _json_object({"p": json.dumps(float(p)), "records": records % _json_floats(_spectrum_table(s))}, 2)
        for p, s in zip(values, spectra)
    ]
    envelope = {"schema": "rlatt/spectrum", "n": config.n, "m": config.m, "g": config.g}
    fields = {key: json.dumps(value) for key, value in envelope.items()}
    # one substitution makes the text the only string of its size
    document = _json_object({**fields, "points": _json_array(["%s"] * len(points), 1)}, 0) + "\n"
    return document % tuple(points)


def cmd_spectrum(config: RunConfig, args: argparse.Namespace) -> int:
    values = config.sweep_values()
    spectra = sweep_spectra(config.model_params(), values)
    _emit(_render_spectrum(config, values, spectra), config.out)
    return 0


def cmd_verify(config: RunConfig, args: argparse.Namespace) -> int:
    if config.p_sweep is not None:
        raise ValueError("verify runs at a single --p, not a sweep")
    report = run_verification(config.model_params())
    payload = report.as_dict()
    if config.format == "json":
        _emit(_to_json(payload), config.out)
    else:
        rows = [
            [c["name"], "" if c["residual"] is None else repr(c["residual"]),
             repr(c["tolerance"]), c["passed"], repr(c["seconds"]), c["error"] or ""]
            for c in payload["checks"]
        ]
        _emit(_csv_text(["name", "residual", "tolerance", "passed", "seconds", "error"], rows), config.out)
    return 0 if report.passed else FAILURE_EXIT


def cmd_polys(config: RunConfig, args: argparse.Namespace) -> int:
    params = config.model_params()
    basis = enumerate_lattice(config.n, config.m)
    coeffs = build_polynomials(params, basis)
    # nonzero entries row by row, each row in basis order
    triples = [
        {"mu": list(basis.order[row]), "nu": list(basis.order[col]), "u": float(coeffs[row, col])}
        for row, col in zip(*np.nonzero(coeffs))
    ]
    if config.format == "json":
        payload = {**_header("rlatt/polys", config), "triples": triples}
        _emit(_to_json(payload), config.out)
    else:
        rows = [
            [" ".join(map(str, t["mu"])), " ".join(map(str, t["nu"])), repr(t["u"])]
            for t in triples
        ]
        _emit(_csv_text(["mu", "nu", "u"], rows), config.out)
    return 0


COMMANDS = {"enumerate": cmd_enumerate, "operator": cmd_operator, "spectrum": cmd_spectrum, "verify": cmd_verify,
            "polys": cmd_polys}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"rlatt: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        return COMMANDS[args.command](config, args)
    except ValueError as exc:
        print(f"rlatt: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except RlattError as exc:
        print(f"rlatt: {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAILURE_EXIT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
