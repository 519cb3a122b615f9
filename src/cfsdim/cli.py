"""Command-line front end: ``cfsdim`` with one subcommand per operation.

Exit codes: 0 ok, then the first row of ``EXIT_CODES`` that matches the
exception: 1 IO/config error, 2 validation error, 3 budget exceeded.
All randomness flows through --seed, so repeat runs are byte-identical.
Each command imports the modules it runs, so a run loads no other.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

from .ifs import (BudgetExceeded, ProbVector, Report, ValidationError,
                  check_shape, load_system)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


class ConfigError(Exception):
    """The descriptor file is not a well-formed descriptor."""


# Every library exception derives from ValidationError or BudgetExceeded.
EXIT_CODES = (
    ((OSError, ConfigError), EXIT_IO, "config/IO error"),
    ((ValidationError,), EXIT_VALIDATION, "validation error"),
    ((BudgetExceeded,), EXIT_BUDGET, "budget exceeded"),
)


def _emit(obj, args) -> None:
    """Write ``obj`` as JSON: a report, or a dict that may hold reports."""
    text = json.dumps(obj, indent=2, sort_keys=True,
                      default=Report.to_json_dict)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(args, kind: str = "cfs"):
    """The one descriptor loader: read ``args.system``, require descriptor
    type ``kind`` ("cfs" or "four_corner"), build it (the constructors refuse
    an invalid one) and resolve ``--probabilities``.  Returns (system,
    probabilities).

    The --probabilities rule: a JSON list gives that vector, "uniform" the
    uniform vector and "natural" the natural weights of a four_corner
    descriptor; without the flag a cfs descriptor's own "probabilities" are
    used, else the uniform vector.
    """
    four_corner = kind == "four_corner"
    if four_corner:
        from . import fourcorner
    try:
        with open(args.system) as fh:
            desc = json.load(fh)
        if not isinstance(desc, dict):
            raise ConfigError(f"{args.system}: not a JSON object")
        if four_corner:
            sys_obj, p = fourcorner.FourCornerSystem.from_json_dict(desc), None
        else:
            sys_obj, p = load_system(desc)
    except ValidationError:
        raise
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"{args.system}: {exc}") from exc

    spec = getattr(args, "probabilities", None)
    if spec == "natural":
        if not four_corner:
            raise ValidationError(
                "--probabilities natural needs a four_corner descriptor")
        p = fourcorner.natural_p(sys_obj)[0]
    elif spec == "uniform" or (spec is None and p is None):
        p = (fourcorner.FourCornerProb.uniform() if four_corner
             else ProbVector.uniform(sys_obj))
    elif spec is not None:
        try:
            weights = json.loads(spec)
            p = (fourcorner.FourCornerProb(weights) if four_corner
                 else ProbVector(weights, mode=sys_obj.mode))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"--probabilities {spec}: {exc}") from exc
    if not four_corner:
        check_shape(sys_obj, p)
    return sys_obj, p


def cmd_measure_dim(args) -> int:
    from . import dimension
    sys_obj, p = _load(args)
    rep = dimension.measure_dimension(sys_obj, p, tol=args.tol)
    _emit(rep, args)
    return EXIT_OK


def cmd_attractor_dim(args) -> int:
    from . import dimension
    sys_obj, _ = _load(args)
    if args.gd_depth > 0:        # the whole sequence's budget, before any root
        dimension.gd_cells(sys_obj, args.gd_depth, sequence=True)
    rep = dimension.attractor_dimension(sys_obj, tol=args.tol)
    out = rep.to_json_dict()
    if args.gd_depth:
        # a negative depth goes to gd_dimension, which rejects it
        seq = [dimension.gd_dimension(sys_obj, d, tol=args.tol)
               for d in range(1, args.gd_depth + 1) or [args.gd_depth]]
        out["gd_sequence"] = seq
        out["gd_delta"] = rep.raw - seq[-1]
    if args.box:
        from . import estimate
        fit = estimate.box_dimension_1d(sys_obj, range(4, args.box + 1))
        out["box_fit"] = fit
        out["box_delta"] = rep.dimension - fit.slope
    _emit(out, args)
    return EXIT_OK


def cmd_phi(args) -> int:
    from . import entropy
    sys_obj, p = _load(args)
    series = entropy.phi_series(sys_obj, p, tol=args.tol)
    out = {"series": series,
           "lower_bound": entropy.phi_lower_bound(sys_obj, p)}
    if args.mc_samples:
        mc = entropy.phi_monte_carlo(sys_obj, p, args.mc_samples, args.seed)
        out["monte_carlo"] = mc
    _emit(out, args)
    return EXIT_OK


def cmd_rw_entropy(args) -> int:
    from . import entropy
    sys_obj, p = _load(args)
    closed = entropy.rw_entropy_closed(sys_obj, p, tol=args.tol)
    out = {"closed_form": closed}
    if args.depth:
        out["brute_force"] = entropy.rw_entropy_bruteforce(sys_obj, p,
                                                           args.depth)
    _emit(out, args)
    return EXIT_OK


def cmd_esc_probe(args) -> int:
    from . import separation
    sys_obj, _ = _load(args)
    res = separation.esc_probe(sys_obj, args.n_max)
    if args.csv:
        lines = ["n,min_gap,implied_b"]
        for row in res.rows:
            # an empty field where the JSON has null
            lines.append(",".join("" if v is None else str(v) for v in
                                  (row.depth, row.min_gap, row.implied_b)))
        with open(args.csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    _emit(res, args)
    return EXIT_OK


def cmd_fourcorner(args) -> int:
    from . import fourcorner
    sys_obj, p = _load(args, "four_corner")
    conditions = fourcorner.validate_4c(sys_obj)
    out = {"conditions": conditions}
    if conditions["open_set_ok"]:
        set_dim = fourcorner.set_dimension_4c(sys_obj)
        for key in ("s", "natural_p", "suff_value"):
            out[key] = set_dim.diagnostics[key]
        out["suff_holds"] = set_dim.diagnostics["suff_value"] > 0.0
        out["set_dimension"] = set_dim
        out["measure_dimension"] = fourcorner.measure_dimension_4c(
            sys_obj, p, tol=args.tol)
    _emit(out, args)
    return EXIT_OK


def cmd_render(args) -> int:
    from . import fourcorner
    sys_obj, _ = _load(args, "four_corner")
    if args.mode == "cylinders":
        fourcorner.render_cylinders_svg(sys_obj, args.depth, args.out)
    else:
        fourcorner.render_attractor_ppm(sys_obj, args.points, args.seed,
                                        args.out)
    print(json.dumps({"written": args.out, "mode": args.mode}, sort_keys=True))
    return EXIT_OK


def cmd_estimate(args) -> int:
    from . import estimate
    m_range = range(args.m_lo, args.m_hi + 1)
    sys_obj, p = _load(args, "four_corner" if args.kind == "box2d" else "cfs")
    if args.kind == "box2d":
        fit = estimate.box_dimension_2d(sys_obj, m_range, args.points,
                                        args.seed)
    elif args.kind == "box1d":
        fit = estimate.box_dimension_1d(sys_obj, m_range)
    else:
        fit = estimate.entropy_slope(sys_obj, p, args.points, m_range,
                                     args.seed)
    _emit(fit, args)
    return EXIT_OK


# Options several subcommands take; each subcommand names the ones it reads.
SHARED_OPTIONS = {
    "probabilities": dict(help='a JSON list, "uniform", or "natural" '
                               '(four_corner only); default: the '
                               "descriptor's own, else uniform"),
    "tol": dict(type=float, default=1e-10),
    "seed": dict(type=int, default=0),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfsdim",
        description="Dimensions of self-similar measures and attractors for "
                    "common-fixed-point IFSs on the line.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *shared):
        p.add_argument("system", help="JSON system descriptor path")
        for name in shared:
            p.add_argument("--" + name, **SHARED_OPTIONS[name])
        p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("measure-dim", help="dimension of the self-similar measure")
    add_common(p, "probabilities", "tol")
    p.set_defaults(fn=cmd_measure_dim)

    p = sub.add_parser("attractor-dim", help="dimension of the attractor")
    add_common(p, "tol")
    p.add_argument("--gd-depth", type=int, default=0,
                   help="also report the graph-directed roots s_1..s_k")
    p.add_argument("--box", type=int, default=0,
                   help="also report a box-counting fit up to this exponent")
    p.set_defaults(fn=cmd_attractor_dim)

    p = sub.add_parser("phi", help="overlap entropy correction Phi(p)")
    add_common(p, "probabilities", "tol", "seed")
    p.add_argument("--mc-samples", type=int, default=0)
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("rw-entropy", help="random-walk entropy")
    add_common(p, "probabilities", "tol")
    p.add_argument("--depth", type=int, default=0,
                   help="also run the brute-force H_n to this depth")
    p.set_defaults(fn=cmd_rw_entropy)

    p = sub.add_parser("esc-probe", help="finite-depth separation probe")
    add_common(p)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--csv", default=None, help="also write the per-n table as CSV")
    p.set_defaults(fn=cmd_esc_probe)

    p = sub.add_parser("fourcorner", help="4-corner conditions and dimensions")
    add_common(p, "probabilities", "tol")
    p.set_defaults(fn=cmd_fourcorner)

    p = sub.add_parser("render", help="render 4-corner cylinders or attractor")
    p.add_argument("system")
    p.add_argument("--mode", choices=["cylinders", "attractor"],
                   default="cylinders")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--points", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("estimate", help="empirical dimension estimates")
    add_common(p, "probabilities", "seed")
    p.add_argument("--kind", choices=["box1d", "box2d", "entropy"],
                   default="box1d")
    p.add_argument("--m-lo", type=int, default=4)
    p.add_argument("--m-hi", type=int, default=14)
    p.add_argument("--points", type=int, default=200_000)
    p.set_defaults(fn=cmd_estimate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        for classes, code, label in EXIT_CODES:
            if isinstance(exc, classes):
                print(f"{label}: {exc}", file=_sys.stderr)
                return code
        raise


if __name__ == "__main__":
    raise SystemExit(main())
