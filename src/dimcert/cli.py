"""Command-line front end.

Subcommands
-----------
boundary
    Tabulate the lower boundary curves over an S2 grid as CSV or JSON.
certify
    Run every exact criterion on a state and report certificates as JSON.
simulate
    Simulate randomized measurements, estimate moments, certify with a
    statistical back-off.
scatter
    Exact moment-plane cloud of random states as CSV or JSON.
noise-tolerance
    Bisect the certifiable white-noise range for isotropic states.

Every output embeds the fully resolved configuration, including a seed
drawn on the spot when --seed is omitted, so any run can be replayed
bit for bit. Exit codes: 0 success, 1 invalid input, I/O failure or
out of memory, 2 internal numerical failure (a consistency check or a
linear-algebra routine that did not converge); nothing else.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .errors import InvalidInputError, NumericalConsistencyError
from . import states
from .boundary import (
    endpoint,
    lower_boundary,
    outer_boundary_d3,
    region_scatter,
)
from .criteria import compare_all
from .randsim import detect_with_confidence, noise_tolerance

NAMED_STATES = (
    "max-entangled", "isotropic", "rho-w",
    "family-a", "family-b", "family-c", "family-d",
    "random-pure", "random-mixed",
)

__all__ = ["build_parser", "main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; route through the package's
    # invalid-input path instead so the CLI keeps its documented exit codes
    def error(self, message):
        raise InvalidInputError(message)


def _require(args, name, flag):
    val = getattr(args, name)
    if val is None:
        raise InvalidInputError(f"{flag} is required here")
    return val


def _resolve_seed(args):
    # a negative seed is left to the library, which rejects it
    if args.seed is not None:
        return args.seed
    import secrets
    return secrets.randbits(32)


def _resolve_state(args, need_seed):
    """Build the state named on the command line.

    Returns (state, description, seed) where seed is the resolved seed
    when one was consulted (random states always consult it) and None
    otherwise.
    """
    name = args.state
    path = args.state_file
    if (name is None) == (path is None):
        raise InvalidInputError("provide exactly one of --state/--state-file")
    if path is not None:
        seed = _resolve_seed(args) if need_seed else None
        return states.read_state_json(path), {"state_file": path}, seed
    desc = {"state": name}
    seed = None
    if name == "max-entangled":
        d = _require(args, "d", "--d")
        r = args.r if args.r is not None else d
        state = states.max_entangled(r, d)
        desc.update({"d": d, "r": r})
    elif name == "isotropic":
        d = _require(args, "d", "--d")
        p = _require(args, "p", "--p")
        state = states.isotropic(d, p)
        desc.update({"d": d, "p": p})
    elif name == "rho-w":
        state = states.rho_w()
    elif name in ("family-a", "family-d"):
        p = _require(args, "p", "--p")
        state = states.family_state(name[-1].upper(), p)
        desc.update({"p": p})
    elif name in ("family-b", "family-c"):
        lam = _require(args, "lam", "--lambda")
        state = states.family_state(name[-1].upper(), lam)
        desc.update({"lambda": lam})
    elif name == "random-pure":
        d = _require(args, "d", "--d")
        seed = _resolve_seed(args)
        state = states.random_pure(d, d, seed, schmidt_rank=args.r)
        desc.update({"d": d, "rank": args.r})
    else:
        d = _require(args, "d", "--d")
        rank = _require(args, "r", "--r")
        seed = _resolve_seed(args)
        state = states.random_mixed(d, d, rank, seed)
        desc.update({"d": d, "rank": rank})
    if need_seed and seed is None:
        seed = _resolve_seed(args)
    return state, desc, seed


def _emit(text, out):
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _plain(obj):
    """JSON-ready data from results: a dataclass becomes its fields in order,
    less those declared repr=False; numpy scalars become Python ones."""
    if dataclasses.is_dataclass(obj):
        # dataclasses.fields() would also drop ClassVar and InitVar entries,
        # which no result declares, but its tuple per call costs a long-lived
        # process 0.4 MB of resident memory
        return {name: _plain(getattr(obj, name))
                for name, f in obj.__dataclass_fields__.items() if f.repr}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj.item() if isinstance(obj, np.generic) else obj


def _emit_json(payload, out):
    _emit(json.dumps(_plain(payload), indent=2), out)


def _emit_table(fmt, config, header, rows, out):
    """A table as JSON or CSV; CSV keeps strings and gives numbers 17 digits."""
    if fmt == "json":
        _emit_json({"config": config, "columns": header, "rows": rows}, out)
        return
    lines = [f"# config: {json.dumps(config)}", ",".join(header)]
    lines += [",".join(cell if isinstance(cell, str) else f"{float(cell):.17g}"
                       for cell in row) for row in rows]
    _emit("\n".join(lines), out)


def cmd_boundary(args):
    d = args.d
    if d < 2:
        raise InvalidInputError(f"--d must be at least 2, got {d}")
    if args.r_list:
        try:
            r_values = sorted({int(tok) for tok in args.r_list.split(",")})
        except ValueError:
            raise InvalidInputError(
                f"--r must be a comma-separated list of integers, "
                f"got {args.r_list!r}")
    else:
        r_values = list(range(1, d + 1))
    grid = args.grid
    if grid < 2:
        raise InvalidInputError(f"--grid must be at least 2, got {grid}")
    s2_max = (d + 1) / (d - 1)
    s2_grid = np.linspace(0.0, s2_max, grid)
    config = {"command": "boundary",
              "d": d, "r": r_values, "grid": grid, "format": args.format}
    header = ["s2"] + [f"f_r{r}" for r in r_values]
    if d == 3:
        header.append("outer")
    columns = [s2_grid]
    for r in r_values:
        inside = s2_grid <= endpoint(d, r)
        col = np.full(grid, np.nan)
        col[inside] = lower_boundary(d, r, s2_grid[inside])
        columns.append(col)
    if d == 3:
        columns.append([outer_boundary_d3(float(s2))[0] for s2 in s2_grid])
    _emit_table(args.format, config, header,
                [[float(v) for v in row] for row in zip(*columns)], args.out)
    return 0


def cmd_certify(args):
    state, desc, _ = _resolve_state(args, need_seed=False)
    _emit_json({"config": {"command": "certify", **desc},
                "report": compare_all(state)}, args.out)
    return 0


def cmd_simulate(args):
    state, desc, seed = _resolve_state(args, need_seed=True)
    n = _require(args, "n", "--n")
    config = {"command": "simulate",
              **desc, "n": n, "seed": seed, "k": args.k, "path": args.path}
    result = detect_with_confidence(
        state, n, args.k, seed, path=args.path,
        keep_samples=args.samples_out is not None)
    if args.samples_out is not None:
        _emit_table("csv", config, ["x"], result.estimate.samples[:, None],
                    args.samples_out)
    _emit_json({"config": config, "result": result}, args.out)
    return 0


def cmd_scatter(args):
    d, n = args.d, args.n
    seed = _resolve_seed(args)
    config = {"command": "scatter",
              "d": d, "n": n, "seed": seed, "format": args.format}
    _emit_table(args.format, config, ["s2", "s4", "kind", "rank"],
                region_scatter(d, n, seed), args.out)
    return 0


def cmd_noise_tolerance(args):
    d, r, n = args.d, args.r, args.n
    seed = _resolve_seed(args)
    config = {"command": "noise-tolerance",
              "d": d, "r": r, "n": n, "seed": seed, "k": args.k,
              "path": args.path}
    result = noise_tolerance(d, r, n, args.k, seed, path=args.path)
    _emit_json({"config": config, "result": result}, args.out)
    return 0


def _add_state_flags(sub):
    sub.add_argument("--state", choices=NAMED_STATES, default=None,
                     help="named state from the registry")
    sub.add_argument("--state-file", default=None,
                     help="JSON density matrix file")
    sub.add_argument("--d", type=int, default=None,
                     help="local dimension")
    sub.add_argument("--p", type=float, default=None,
                     help="mixing/noise parameter for parametrised states")
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="pure-state family parameter")
    sub.add_argument("--r", type=int, default=None,
                     help="Schmidt rank / mixed rank / target bound")


def build_parser():
    parser = _Parser(
        prog="dimcert",
        description="Certify entanglement-dimensionality lower bounds.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_boundary = subs.add_parser(
        "boundary", help="tabulate boundary curves over an S2 grid")
    p_boundary.add_argument("--d", type=int, default=None, required=True)
    p_boundary.add_argument("--r", dest="r_list", default=None,
                            help="comma-separated Schmidt numbers "
                                 "(default: 1..d)")
    p_boundary.add_argument("--grid", type=int, default=200,
                            help="number of grid points (default 200)")
    p_boundary.set_defaults(func=cmd_boundary)

    p_certify = subs.add_parser(
        "certify", help="run every exact criterion on a state")
    _add_state_flags(p_certify)
    p_certify.add_argument("--seed", type=int, default=None,
                           help="seed for random named states")
    p_certify.set_defaults(func=cmd_certify)

    p_sim = subs.add_parser(
        "simulate", help="randomized-measurement moment estimation")
    _add_state_flags(p_sim)
    p_sim.add_argument("--n", type=int, default=None,
                       help="number of simulated measurement settings")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--k", type=float, default=3.0,
                       help="statistical back-off in standard deviations "
                            "(default 3)")
    p_sim.add_argument("--path", choices=("haar", "bloch"), default="haar")
    p_sim.add_argument("--samples-out", default=None,
                       help="also dump the raw samples to this CSV file")
    p_sim.set_defaults(func=cmd_simulate)

    p_scatter = subs.add_parser(
        "scatter", help="exact moment cloud of random states")
    p_scatter.add_argument("--d", type=int, default=None, required=True)
    p_scatter.add_argument("--n", type=int, default=None, required=True)
    p_scatter.add_argument("--seed", type=int, default=None)
    p_scatter.set_defaults(func=cmd_scatter)

    p_noise = subs.add_parser(
        "noise-tolerance", help="bisect the certifiable white-noise range")
    p_noise.add_argument("--d", type=int, default=None, required=True)
    p_noise.add_argument("--r", type=int, default=None, required=True,
                         help="target certified bound")
    p_noise.add_argument("--n", type=int, default=None, required=True)
    p_noise.add_argument("--k", type=float, default=3.0)
    p_noise.add_argument("--seed", type=int, default=None)
    p_noise.add_argument("--path", choices=("haar", "bloch"), default="haar")
    p_noise.set_defaults(func=cmd_noise_tolerance)

    for sub in (p_boundary, p_certify, p_sim, p_scatter, p_noise):
        sub.add_argument("--out", default=None,
                         help="output file (default: stdout)")
    for sub in (p_boundary, p_scatter):
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="table format (default csv)")
    return parser


_parser = functools.cache(build_parser)  # parse_args keeps no state


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (InvalidInputError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        target = getattr(exc, "filename", None) or "output"
        print(f"error: I/O failure on {target}: {exc}", file=sys.stderr)
        return 1
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
