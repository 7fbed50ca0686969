"""Command line front end.

One subcommand per laboratory operation.  Reports go to stdout as a
single JSON document (complex numbers as [re, im] pairs, non-finite
floats as null) or, with --format csv, as a flat table whose columns are
listed in the subcommand's --help.  A complex CSV value fills two columns
NAME_re and NAME_im, vector and matrix entries take 1-based index
suffixes (x1, jac12), integer tuples are ';'-joined, every float is
written as its Python float repr, and a missing value is a blank cell.  Output bytes
are a deterministic function of argv, including --seed and --jobs.

Exit codes: 0 success, 1 a certified value failed verification,
2 invalid input, 3 an iteration failed to converge.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .errors import ConvergenceError, InputError, VerificationError
from .jouanolou import (
    FoliationParams,
    counts,
    group_element,
    jouanolou_field,
    pushforward_factor,
    unit_root,
)
from .solver import RunConfig, _check_indices, track_singularities
from .spectral import min_separation, spectrum_reports
from .genericity import (
    DEFECT_NOISE_FLOOR,
    RANK_GAP,
    SampleStats,
    alignment_census,
    coeff_derivative_table,
    defect_experiment,
    genericity_sample,
    hyperplane_set,
    submersion_all,
    submersion_report,
)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected 're,im' with two comma-separated reals, got {text!r}"
        )
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# argparse reads a token that starts with '-' and is not a plain number, such
# as the value in "--alpha -0.03,0", as an option: such a value of a complex
# option is joined to it, as in "--alpha=-0.03,0"
_COMPLEX_OPTIONS = ("--alpha", "--nu")
_SIGNED_VALUE = re.compile(r"-[\d.]")


def _join_signed_values(argv) -> list[str]:
    out = []
    for token in argv:
        if out and out[-1] in _COMPLEX_OPTIONS and _SIGNED_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_mu_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_coord_pair(text: str) -> tuple[int, int]:
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'i,j' with two integers, got {text!r}") from None
    return i, j


def _parse_index(text: str) -> int | str:
    try:
        return text if text == "all" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'all', got {text!r}") from None


def _jsonable(obj):
    if isinstance(obj, (complex, np.complexfloating)):
        return [_jsonable(float(obj.real)), _jsonable(float(obj.imag))]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # strict JSON has no NaN or Infinity
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not f.name.startswith("_")
        }
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _cells(name: str, value) -> list[tuple[str, str]]:
    """The CSV (column, text) cells of one named value."""
    if isinstance(value, complex):
        return [(f"{name}_re", repr(float(value.real))), (f"{name}_im", repr(float(value.imag)))]
    if isinstance(value, (tuple, list, np.ndarray)):
        if all(isinstance(v, int) for v in value):
            return [(name, ";".join(map(str, value)))]
        return [cell for i, v in enumerate(value, 1) for cell in _cells(f"{name}{i}", v)]
    if value is None:
        return [(name, "")]
    if isinstance(value, bool):
        return [(name, "true" if value else "false")]
    if isinstance(value, float):
        return [(name, repr(float(value)))]
    return [(name, str(value))]


def _table(records, header=()) -> list[list[str]]:
    """CSV rows for records of (column, value) pairs; `header` heads an empty table."""
    rows = [[cell for name, value in rec for cell in _cells(name, value)] for rec in records]
    if rows:
        header = [column for column, _ in rows[0]]
    return [list(header)] + [[text for _, text in row] for row in rows]


def _make_cfg(args) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)})


def _params_from(args) -> FoliationParams:
    return FoliationParams(args.n, args.d, tuple(args.alpha or ()))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, rows, warnings, exit_code)
# where payload holds library objects and rows is the CSV table from _table


def _cmd_counts(args, cfg):
    c = counts(args.n, args.d)
    rows = _table([[("n", args.n), ("d", args.d), ("N", c.N), ("M", c.M), ("K", c.K)]])
    return c, rows, [], 0


def _cmd_sing(args, cfg):
    points = track_singularities(_params_from(args), cfg)
    rows = _table([("m", p.m), ("converged", p.converged), ("newton_iters", p.newton_iters),
                   ("residual", p.residual), ("x", p.coords)] for p in points)
    return points, rows, [], 0


def _cmd_spectrum(args, cfg):
    params = _params_from(args)
    if args.m != "all":
        _check_indices(args.n, args.d, [args.m])
    points = track_singularities(params, cfg)
    if args.m != "all":
        points = [points[args.m - 1]]
    # alpha is only a constant term, so every member's Jacobian is the base field's
    reports = spectrum_reports(jouanolou_field(args.n, args.d), points, cfg)
    warnings = []
    for rep in reports:
        sep = min_separation(rep.eigenvalues)
        if sep < 1e-6:
            warnings.append(
                f"m={rep.m}: eigenvalues nearly repeated (separation {sep:.3e}); "
                "root conditioning is poor near the discriminant"
            )
    rows = _table([("m", r.m), ("classification", r.classification),
                   ("resonant", r.divisor.resonant), ("c_min", r.divisor.c_min),
                   ("worst_j", r.divisor.worst_j), ("worst_m", r.divisor.worst_m),
                   ("sigma", r.sigma), ("lambda", r.eigenvalues)] for r in reports)
    return reports, rows, warnings, 0


def _cmd_submersion(args, cfg):
    reports = (submersion_all(args.n, args.d, cfg) if args.m == "all"
               else [submersion_report(args.n, args.d, args.m, cfg)])
    warnings = [f"m={rep.m}: rank certificate failed (singular value gap)"
                for rep in reports if rep.sv_min <= RANK_GAP * rep.sv_max]
    rows = _table([("m", r.m), ("abs_det", abs(r.det)), ("expected_modulus", r.expected_modulus),
                   ("rel_error", r.rel_error), ("sv_min", r.sv_min),
                   ("sv_max", r.sv_max), ("jac", r.jac)] for r in reports)
    return reports, rows, warnings, 1 if warnings else 0


def _cmd_derivs(args, cfg):
    entries = coeff_derivative_table(args.n, args.d, cfg)
    # an entry without a closed formula still fills both formula columns
    no_formula = [("formula_re", None), ("formula_im", None)]
    rows = _table([("i", e.i), ("j", e.j), ("explicit", e.formula is not None), ("value", e.value),
                   *([("formula", e.formula)] if e.formula is not None else no_formula),
                   ("rel_error", e.rel_error)] for e in entries)
    return entries, rows, [], 0


def _cmd_align(args, cfg):
    params = _params_from(args)
    records = alignment_census(track_singularities(params, cfg), params.d, cfg)
    rows = _table([[("record", idx), ("size", len(rec.indices)), ("indices", rec.indices),
                    ("residual", rec.residual)] for idx, rec in enumerate(records)],
                  header=("record", "size", "indices", "residual"))
    return {"count": len(records), "records": records}, rows, [], 0


def _cmd_hyperplanes(args, cfg):
    hs = hyperplane_set(args.n, args.d, cfg)
    rows = _table([("k", k), ("normal", normal)]
                  for k, normal in zip(hs.element_powers, hs.images))
    return hs, rows, [], 0


def _cmd_defect(args, cfg):
    result = defect_experiment(args.n, args.d, tuple(args.nu), args.mu_grid, cfg,
                               coord_pair=args.coord_pair)
    rows = _table([("mu", mu), ("defect", defect), ("slope", result.slope)]
                  for mu, defect in zip(result.mus, result.defects))
    warnings = []
    if min(result.defects) < DEFECT_NOISE_FLOOR:
        warnings.append(
            "some defects sit at rounding-noise level; the tracked pattern "
            "appears exactly aligned along this ray and the slope means nothing"
        )
    return result, rows, warnings, 0


def _cmd_pushforward(args, cfg):
    params = _params_from(args)
    g = group_element(args.n, args.d, args.k)
    c, alpha_t, residual = pushforward_factor(g, params)
    # closed diagonal guess xi^(-d) * (element scaling applied to alpha); the
    # factored values are authoritative whenever the two disagree
    big_n = g.order
    guess = tuple(
        unit_root(-args.d * g.k, big_n) * unit_root(w, big_n) * a
        for w, a in zip(g.weights, params.alpha)
    )
    matches = all(abs(x - y) <= 1e-9 for x, y in zip(alpha_t, guess))
    warnings = []
    if not matches:
        warnings.append(
            "factored parameter differs from the closed diagonal guess; "
            "coefficient matching is authoritative"
        )
    payload = {
        "k": g.k,
        "weights": g.weights,
        "c": c,
        "alpha_tilde": alpha_t,
        "residual": residual,
        "matches_diagonal_guess": matches,
    }
    rows = _table([[("k", g.k), ("c", c), ("residual", residual),
                    ("matches_diagonal_guess", matches), ("alpha_tilde", alpha_t)]])
    return payload, rows, warnings, 0


def _cmd_sample(args, cfg):
    if args.jobs < 1:
        raise InputError("jobs must be at least 1")
    stats = genericity_sample(args.n, args.d, cfg)
    rows = _table([[(f.name, getattr(stats, f.name))
                    for f in dataclasses.fields(SampleStats) if f.name != "note"]])
    return stats, rows, [], 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foliationlab",
        description="Numerical laboratory for a perturbed family of degree-d "
                    "foliations: zero tracking, spectra, and genericity experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True, help="ambient dimension (>= 2)")
    common.add_argument("--d", type=int, required=True, help="degree (>= 1)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    for f in dataclasses.fields(RunConfig):
        common.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                            default=f.default)

    alpha_parent = argparse.ArgumentParser(add_help=False)
    alpha_parent.add_argument(
        "--alpha", action="append", type=_parse_complex, metavar="RE,IM",
        help="one perturbation coordinate as 're,im'; repeat n times (default 0)",
    )
    index_parent = argparse.ArgumentParser(add_help=False)
    index_parent.add_argument("--m", type=_parse_index, default="all",
                              help="zero index, or 'all' (default)")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "counts", parents=[common],
        help="exact integer invariants N, M, K",
        description="Exact counts for (n, d). CSV columns: n,d,N,M,K.",
    ).set_defaults(handler=_cmd_counts)
    sub.add_parser(
        "sing", parents=[common, alpha_parent],
        help="track all zeros of the perturbed member",
        description="Tracked zeros. CSV columns: m,converged,newton_iters,"
                    "residual,x1_re,x1_im,...,xn_re,xn_im.",
    ).set_defaults(handler=_cmd_sing)
    sub.add_parser(
        "spectrum", parents=[common, alpha_parent, index_parent],
        help="spectral reports at tracked zeros",
        description="Spectral reports. CSV columns: m,classification,resonant,"
                    "c_min,worst_j,worst_m,sigma*_re/im,lambda*_re/im.",
    ).set_defaults(handler=_cmd_spectrum)
    sub.add_parser(
        "submersion", parents=[common, index_parent],
        help="parameter Jacobian of the coefficient map with certificates",
        description="Submersion reports. CSV columns: m,abs_det,expected_modulus,"
                    "rel_error,sv_min,sv_max,jacij_re/im.",
    ).set_defaults(handler=_cmd_submersion)
    sub.add_parser(
        "derivs", parents=[common],
        help="derivative table at the all-ones zero vs closed formulas",
        description="Derivative table. CSV columns: i,j,explicit,value_re,value_im,"
                    "formula_re,formula_im,rel_error.",
    ).set_defaults(handler=_cmd_derivs)
    sub.add_parser(
        "align", parents=[common, alpha_parent],
        help="census of aligned zero subsets",
        description="Alignment census. CSV columns: record,size,indices(';'-joined),residual.",
    ).set_defaults(handler=_cmd_align)
    sub.add_parser(
        "hyperplanes", parents=[common],
        help="base alignment hyperplane and its group images",
        description="Hyperplane normals. CSV columns: k,normal*_re,normal*_im.",
    ).set_defaults(handler=_cmd_hyperplanes)
    defect = sub.add_parser(
        "defect", parents=[common],
        help="log-log slope of the alignment defect along a ray",
        description="Defect growth. CSV columns: mu,defect,slope (slope repeated).",
    )
    defect.set_defaults(handler=_cmd_defect)
    defect.add_argument("--nu", action="append", type=_parse_complex, metavar="RE,IM",
                        required=True, help="ray direction coordinate as 're,im'; repeat n times")
    defect.add_argument("--mu-grid", type=_parse_mu_grid,
                        default=(1e-2, 3e-3, 1e-3, 3e-4),
                        help="comma-separated mu values (default 1e-2,3e-3,1e-3,3e-4)")
    defect.add_argument("--coord-pair", type=_parse_coord_pair, default=None, metavar="I,J",
                        help="1-based coordinate pair for the defect determinant "
                             "(default first,last)")
    pushforward = sub.add_parser(
        "pushforward", parents=[common, alpha_parent],
        help="factor the pushforward along a symmetry element",
        description="Pushforward factorization. CSV columns: k,c_re,c_im,residual,"
                    "matches_diagonal_guess,alpha_tilde*_re/im.",
    )
    pushforward.set_defaults(handler=_cmd_pushforward)
    pushforward.add_argument("--k", type=int, default=1,
                             help="generator power (default 1)")
    sample = sub.add_parser(
        "sample", parents=[common],
        help="Monte Carlo sweep of the perturbation polydisk",
        description="Sampling summary. CSV columns: n,d,samples,seed,radius,delta,"
                    "max_order,n_failed,n_all_hyperbolic,n_any_resonant,"
                    "frac_failures,frac_all_hyperbolic,frac_any_resonant.",
    )
    sample.set_defaults(handler=_cmd_sample)
    sample.add_argument("--jobs", type=int, default=1,
                        help="at least 1; has no effect (every draw runs in one process)")
    return parser


def _emit(args, cfg, payload, rows, warnings) -> None:
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(rows)
        return
    params = {"n": args.n, "d": args.d}
    alpha = getattr(args, "alpha", None)
    if alpha is not None:
        params["alpha"] = alpha
    report = {
        "tool_version": __version__,
        "command": args.command,
        "params": params,
        "cfg": cfg,
        "payload": payload,
        "warnings": warnings,
    }
    json.dump(_jsonable(report), sys.stdout, indent=2)
    sys.stdout.write("\n")


def run(argv) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(_join_signed_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _make_cfg(args)
        payload, rows, warnings, code = args.handler(args, cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit(args, cfg, exc.payload, _table([[("error", exc)]]), [str(exc)])
        return 1
    _emit(args, cfg, payload, rows, warnings)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
