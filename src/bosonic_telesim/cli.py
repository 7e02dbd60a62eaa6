"""Command-line interface.

Commands: classify, apply, simulate, fidelity, convergence, peel, capacity.
Channel, state and scan-config arguments accept either inline JSON or a path
to a JSON file.  Output is JSON (CSV for convergence scans) with floats
printed as their shortest round-trip ``repr``, so that every emitted number
re-parses to the identical value; a non-finite result is an error, and so
is finite input whose arithmetic overflows float64.  Exit codes: 0 success,
2 input error, 3 request outside the supported domain.

Channel spec   {"t": [[...]], "n": [[...]], "d": [...]}  or
               {"class": "C_Att", "tau": 0.5, "nbar": 0.0} (see channels module)
State spec     {"mean": [...], "cm": [[...]]}
Scan config    {"channel": ..., "grid": {"param": "mu"|"mu_tilde", "start": ...,
               "stop": ..., "points": ..., "log": true},
               "witness": {"mu": ..., "a": ..., "c": ..., "r": ...},
               "output": {"format": "csv"|"json", "path": "..."}}
               with an integer number of grid points from 1 to 10**6

classify, convergence, peel and capacity take a --tol flag that overrides the
default tolerance bundle; the environment variable BOSONIC_TELESIM_TOL does
the same when --tol is absent.  apply, simulate and fidelity use none.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .capacity import corrected_key_bound
from .channels import (apply_channel, channel_from_dict, channel_to_dict,
                       classify)
from .convergence import convergence_scan, decide_uniform, diamond_upper_bound
from .errors import (BosonicTelesimError, DomainError, NoUniformBoundError,
                     UnsupportedFormError, ValidationError)
from .fidelity import fuchs_vdg, gaussian_fidelity
from .peeling import peel_bound
from .symplectic import GaussianState
from .teleportation import simulate_channel
from .tolerances import DEFAULT, Tolerances

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3


class _CliInputError(Exception):
    pass


def _emit_json(obj) -> str:
    """JSON text; floats print as their shortest round-trip ``repr``."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        raise DomainError("result is not finite") from None


def _csv_float(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError("result is not finite")
    return repr(float(x))


def _load_json_arg(arg: str):
    """Accept inline JSON, @path, or a plain path to a JSON file."""
    text = arg
    if arg.startswith("@"):
        path = arg[1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _CliInputError(f"cannot read {path}: {exc}") from exc
    else:
        stripped = arg.strip()
        if not stripped.startswith(("{", "[")):
            try:
                with open(arg, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise _CliInputError(f"cannot read {arg}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=_finite_float, parse_float=_finite_float,
                          parse_int=_float_range_int)
    except json.JSONDecodeError as exc:
        raise _CliInputError(f"malformed JSON: {exc}") from exc


def _finite_float(text: str) -> float:
    """JSON number hook: NaN, Infinity and literals beyond float range fail."""
    x = float(text)
    if not math.isfinite(x):
        raise _CliInputError(f"non-finite number {text} in JSON input")
    return x


def _float_range_int(text: str) -> int:
    """JSON integer hook: integers beyond float range fail."""
    try:
        x = int(text)
        float(x)
    except (OverflowError, ValueError):
        raise _CliInputError(f"integer of {len(text)} characters in JSON input "
                             "is beyond float range") from None
    return x


def _state_from_dict(spec) -> GaussianState:
    if not isinstance(spec, dict) or set(spec) != {"mean", "cm"}:
        raise _CliInputError('state spec must be {"mean": [...], "cm": [[...]]}')
    return GaussianState(np.asarray(spec["mean"], dtype=float),
                         np.asarray(spec["cm"], dtype=float))


def _state_to_dict(state: GaussianState) -> dict:
    return {"mean": state.mean.tolist(), "cm": state.cm.tolist()}


def _tolerances(args) -> Tolerances:
    tol = getattr(args, "tol", None)
    if tol is None:
        env = os.environ.get("BOSONIC_TELESIM_TOL")
        if env is not None:
            try:
                tol = float(env)
            except ValueError:
                raise _CliInputError(
                    f"BOSONIC_TELESIM_TOL is not a number: {env!r}") from None
    if tol is None:
        return DEFAULT
    if not 0.0 < tol < math.inf:
        raise _CliInputError(f"tolerance must be positive and finite, got {tol}")
    return Tolerances.uniform(tol)


def _cmd_classify(args) -> int:
    tol = _tolerances(args)
    ch = channel_from_dict(_load_json_arg(args.channel))
    form = classify(ch, tol)
    verdict = decide_uniform(ch, tol=tol)
    print(_emit_json({"class": form.tag.value, "tau": form.tau, "r": form.r,
                      "noise_param": form.noise_param,
                      "uniform_convergence": verdict.uniform}))
    return EXIT_OK


def _cmd_apply(args) -> int:
    ch = channel_from_dict(_load_json_arg(args.channel))
    state = _state_from_dict(_load_json_arg(args.state))
    out = apply_channel(ch, state, target_mode=args.mode)
    print(_emit_json(_state_to_dict(out)))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    ch = channel_from_dict(_load_json_arg(args.channel))
    sim = simulate_channel(ch, args.mu)
    print(_emit_json({"mu": sim.params.mu, "xi": sim.params.xi,
                      "base": channel_to_dict(sim.base),
                      "effective": channel_to_dict(sim.effective)}))
    return EXIT_OK


def _cmd_fidelity(args) -> int:
    s1 = _state_from_dict(_load_json_arg(args.state1))
    s2 = _state_from_dict(_load_json_arg(args.state2))
    f = gaussian_fidelity(s1, s2)
    sandwich = fuchs_vdg(f)
    print(_emit_json({"fidelity": f, "trace_lower": sandwich.lower,
                      "trace_upper": sandwich.upper}))
    return EXIT_OK


_GRID_KEYS = {"param", "start", "stop", "points", "log"}
_MAX_POINTS = 10 ** 6
_WITNESS_KEYS = {"mu", "a", "c", "r"}
_OUTPUT_KEYS = {"format", "path"}
_SCAN_COLUMNS = ("mu", "mu_tilde", "xi", "upper_bound", "witness_lower_bound")


def _parse_scan_config(spec: dict):
    if not isinstance(spec, dict):
        raise _CliInputError("scan config must be a JSON object")
    unknown = set(spec) - {"channel", "grid", "witness", "output"}
    if unknown:
        raise _CliInputError(f"unknown scan config keys: {sorted(unknown)}")
    if "channel" not in spec or "grid" not in spec:
        raise _CliInputError("scan config requires 'channel' and 'grid'")
    grid_spec = spec["grid"]
    if not isinstance(grid_spec, dict) or set(grid_spec) - _GRID_KEYS:
        raise _CliInputError(f"grid spec keys must be a subset of {sorted(_GRID_KEYS)}")
    for key in ("start", "stop", "points"):
        if key not in grid_spec:
            raise _CliInputError(f"grid spec is missing {key!r}")
    param = grid_spec.get("param", "mu")
    if param not in ("mu", "mu_tilde"):
        raise _CliInputError(f"grid param must be 'mu' or 'mu_tilde', got {param!r}")
    points = grid_spec["points"]
    if (isinstance(points, bool) or not isinstance(points, int)
            or not 1 <= points <= _MAX_POINTS):
        raise _CliInputError(f"grid points must be an integer from 1 to {_MAX_POINTS}, "
                             f"got {points!r}")
    witness = spec.get("witness", {})
    if not isinstance(witness, dict) or set(witness) - _WITNESS_KEYS:
        raise _CliInputError(f"witness keys must be a subset of {sorted(_WITNESS_KEYS)}")
    for key, x in [("start", grid_spec["start"]), ("stop", grid_spec["stop"]),
                   *witness.items()]:
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x):
            raise _CliInputError(f"{key!r} must be a finite number, got {x!r}")
    start, stop = float(grid_spec["start"]), float(grid_spec["stop"])
    if grid_spec.get("log", False):
        if start <= 0.0 or stop <= 0.0:
            raise _CliInputError("log-spaced grids require positive endpoints")
        grid = np.geomspace(start, stop, points)
    else:
        grid = np.linspace(start, stop, points)
    output = spec.get("output", {"format": "csv", "path": None})
    if not isinstance(output, dict) or set(output) - _OUTPUT_KEYS:
        raise _CliInputError(f"output keys must be a subset of {sorted(_OUTPUT_KEYS)}")
    fmt = output.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise _CliInputError(f"output format must be 'csv' or 'json', got {fmt!r}")
    return spec["channel"], param, grid, witness, fmt, output.get("path")


def _cmd_convergence(args) -> int:
    tol = _tolerances(args)
    channel_spec, param, grid, witness, fmt, path = _parse_scan_config(
        _load_json_arg(args.config))
    ch = channel_from_dict(channel_spec)
    uniform = decide_uniform(ch, tol=tol).uniform
    if uniform and param != "mu":
        raise _CliInputError(
            "full-rank-noise channels scan over 'mu' (upper-bound column)")
    if not uniform and param != "mu_tilde":
        raise _CliInputError(
            "rank-deficient channels scan over 'mu_tilde' (witness column)")
    rows = convergence_scan(ch, grid, witness, tol=tol)
    records = [{col: getattr(row, col) for col in _SCAN_COLUMNS} for row in rows]
    if fmt == "json":
        text = _emit_json(records) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_SCAN_COLUMNS)
        for rec in records:
            writer.writerow(["" if rec[col] is None else _csv_float(rec[col])
                             for col in _SCAN_COLUMNS])
        text = buf.getvalue()
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_peel(args) -> int:
    tol = _tolerances(args)
    if args.delta is None and args.channel is None:
        raise _CliInputError("peel requires either --delta or --channel with --mu")
    if args.delta is not None:
        delta = args.delta
    else:
        if args.mu is None:
            raise _CliInputError("--channel requires --mu")
        ch = channel_from_dict(_load_json_arg(args.channel))
        delta = diamond_upper_bound(ch, args.mu, tol=tol)
    bound = peel_bound(args.n, delta, args.topology)
    print(_emit_json({"topology": bound.topology, "n": args.n,
                      "per_use_delta": bound.per_use_delta, "total": bound.total,
                      "epsilon_tp": bound.total / 2.0}))
    return EXIT_OK


def _cmd_capacity(args) -> int:
    tol = _tolerances(args)
    ch = channel_from_dict(_load_json_arg(args.channel))
    report = corrected_key_bound(ch, args.n, args.eps, args.mu, args.V, tol=tol)
    print(_emit_json({"value": report.value, "formula": report.formula,
                      "threshold_active": report.threshold_active,
                      "unbounded": report.unbounded, "inputs": report.inputs}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonic-telesim",
        description="Gaussian-channel teleportation simulation: classification, "
                    "convergence diagnostics and key-capacity bounds.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="override the tolerance bundle (takes precedence "
                             "over BOSONIC_TELESIM_TOL)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="canonical class, invariants and convergence verdict")
    p.add_argument("--channel", required=True, help="channel JSON (inline or path)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("apply", help="apply a channel to a state")
    p.add_argument("--channel", required=True)
    p.add_argument("--state", required=True, help="state JSON (inline or path)")
    p.add_argument("--mode", type=int, default=0, help="target mode (default 0)")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("simulate",
                       help="teleportation simulation of a channel at resource mu")
    p.add_argument("--channel", required=True)
    p.add_argument("--mu", type=float, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fidelity",
                       help="fidelity and trace-distance sandwich of two states")
    p.add_argument("--state1", required=True)
    p.add_argument("--state2", required=True)
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser(
        "convergence", parents=[common],
        help="scan the convergence diagnostics over a mu or mu_tilde grid; "
             f"CSV columns: {', '.join(_SCAN_COLUMNS)}")
    p.add_argument("--config", required=True, help="scan config JSON (inline or path)")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("peel", parents=[common],
                       help="accumulated n-round simulation error")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="per-use error (otherwise computed from --channel/--mu)")
    p.add_argument("--channel", default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--topology", choices=["bounded_uniform", "uniform", "strong"],
                   default="uniform")
    p.set_defaults(func=_cmd_peel)

    p = sub.add_parser("capacity", parents=[common],
                       help="finite-size secret-key bound with simulation error")
    p.add_argument("--channel", required=True)
    p.add_argument("--n", type=int, required=True, help="channel uses")
    p.add_argument("--eps", type=float, required=True, help="security parameter")
    p.add_argument("--mu", type=float, required=True, help="simulation resource")
    p.add_argument("--V", type=float, default=0.0,
                   help="variance parameter of the finite-size expansion (default 0)")
    p.set_defaults(func=_cmd_capacity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (UnsupportedFormError, NoUniformBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except np.linalg.LinAlgError as exc:
        # a CM singular to float64 roundoff, e.g. a TMSV at mu >= 1e8
        print(f"error: not resolvable in float64: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (FloatingPointError, OverflowError) as exc:
        # finite input whose arithmetic leaves float64 range, e.g. T ~ 1e300
        # (numpy) or a frame squeezing r ~ 1e154 (a Python float power)
        print(f"error: input beyond float64 range: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (_CliInputError, BosonicTelesimError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
