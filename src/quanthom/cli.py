"""Command-line surface.

Subcommands: `mesh gen`, `thresholds`, `invariant`, `seminorm`,
`verify scaling`, `verify bmo`.  Exit codes: 0 all checks pass, 1 any
check fails, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from .geometry import build_sphere_mesh
from .harness import (REPORT_FORMATS, ConfigError, ExperimentConfig,
                      check_writable, emit_report, format_report_text,
                      run_bmo_probe, run_scaling)
from .invariants import check_evaluable, hardt_riviere, winding_number_oracle
from .linking import gauss_linking_oracle
from .maps import S2, parse_map_spec
from .registry import beta0, catalogue, lookup
from .seminorms import bmo_seminorm, holder_seminorm, sobolev_seminorm


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="quanthom")
    sub = ap.add_subparsers(dest="command", required=True)

    mesh = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = mesh.add_subparsers(dest="mesh_command", required=True)
    gen = mesh_sub.add_parser("gen", help="generate a sphere mesh")
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--level", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(run=_cmd_mesh)

    th = sub.add_parser("thresholds", help="exact thresholds and exponents")
    which = th.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true")
    which.add_argument("--structure")
    which.add_argument("--M0", type=int)
    th.add_argument("--Mi")
    th.add_argument("--beta")
    th.add_argument("--json", action="store_true")
    th.set_defaults(run=_cmd_thresholds)

    inv = sub.add_parser("invariant", help="evaluate an invariant")
    inv.add_argument("--map", required=True, dest="map_spec")
    inv.add_argument("--structure", required=True)
    inv.add_argument("--level", type=int, required=True)
    inv.add_argument("--oracle", action="store_true")
    inv.add_argument("--json-out")
    inv.set_defaults(run=_cmd_invariant)

    sem = sub.add_parser("seminorm", help="estimate a seminorm")
    sem.add_argument("--map", required=True, dest="map_spec")
    sem.add_argument("--kind", choices=["sobolev", "holder", "bmo"],
                     required=True)
    sem.add_argument("--beta", type=float)      # default 0.5
    sem.add_argument("--p", type=float)         # default N / beta
    sem.add_argument("--samples", type=int)     # default 200000
    sem.add_argument("--seed", type=int, default=0)
    sem.add_argument("--json-out")
    sem.set_defaults(run=_cmd_seminorm)

    ver = sub.add_parser("verify", help="run verification experiments")
    ver_sub = ver.add_subparsers(dest="verify_command", required=True)
    for name in ("scaling", "bmo"):
        v = ver_sub.add_parser(name)
        v.add_argument("--config", required=True)
        v.set_defaults(run=_cmd_verify)
    return ap


def _print_json(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_mesh(args) -> int:
    mesh = build_sphere_mesh(args.dim, args.level)
    mesh.save(args.out)
    print(f"wrote S^{args.dim} level {args.level}: "
          f"{mesh.n_simplices(0)} vertices, "
          f"{mesh.n_simplices(mesh.dim)} top simplices -> {args.out}")
    return 0


def _threshold_row(entry) -> dict:
    r = entry.report
    return {
        "name": entry.name, "N": r.N, "L": r.L,
        "beta0": str(r.published_beta0) if r.published_beta0 is not None else None,
        "beta0_computed": str(r.beta0) if r.beta0 is not None else None,
        "alpha_star": [str(a) if a is not None else None
                       for a in r.per_term_alpha],
        "theorem_beta0": str(r.theorem_beta0),
        "exponent": f"{r.exponent_numerator}/beta",
        "evaluable": entry.evaluable,
        "note": entry.note,
    }


def _cmd_thresholds(args) -> int:
    # a flag the chosen mode would not read is an error, not ignored
    if args.M0 is None and args.Mi is not None:
        raise ValueError("argument --Mi: only allowed with --M0")
    if args.M0 is not None and args.beta is not None:
        raise ValueError("argument --beta: not allowed with --M0; the "
                         "exponent is printed as a function of beta")
    if args.M0 is not None:
        Ms = []
        for item in filter(str.strip, (args.Mi or "").split(",")):
            try:
                Ms.append(int(item))
            except ValueError:
                raise ValueError(f"argument --Mi: invalid int value: "
                                 f"{item!r}") from None
        b0, astar = beta0(args.M0, Ms)
        N = args.M0 + sum(Ms) - len(Ms)    # degree sum rule: sum M_i = N + L
        out = {"M0": args.M0, "Mi": Ms, "beta0": str(b0),
               "alpha_star": str(astar), "N": N,
               "exponent": f"{N + len(Ms)}/beta"}
        if args.json:
            _print_json(out)
        else:
            print(f"beta0 = {b0}  (alpha* = {astar}), exponent "
                  f"{out['exponent']}")
        return 0
    entries = ([lookup(args.structure)] if args.structure
               else list(catalogue().values()))
    rows = [_threshold_row(e) for e in entries]
    if args.beta:
        b = Fraction(args.beta)
        for row, e in zip(rows, entries):
            row["exponent_at_beta"] = str(e.report.exponent(b))
    if args.json:
        _print_json(rows)
    else:
        hdr = f"{'structure':14s} {'N':>2} {'L':>2} {'beta0':>6} {'thm':>5} " \
              f"{'exponent':>9} {'evaluable':>9}"
        print(hdr)
        print("-" * len(hdr))
        for row in rows:
            print(f"{row['name']:14s} {row['N']:>2} {row['L']:>2} "
                  f"{row['beta0'] or '-':>6} {row['theorem_beta0']:>5} "
                  f"{row['exponent']:>9} {str(row['evaluable']):>9}")
    return 0


def _cmd_invariant(args) -> int:
    entry = lookup(args.structure)
    f = parse_map_spec(args.map_spec)
    dim = entry.structure.domain_dim
    check_evaluable(f, entry.structure, dim)      # before the mesh build
    linking = f.domain_dim == 3 and f.target == S2
    if args.oracle and not linking and f.domain_dim != 1:
        raise ValueError(f"argument --oracle: map {args.map_spec!r} is "
                         f"neither S^3 -> S^2 (linking) nor on S^1 (winding)")
    mesh = build_sphere_mesh(dim, args.level)
    res = hardt_riviere(f, entry.structure, mesh)
    out = asdict(res)
    out["map"] = args.map_spec
    out["structure"] = entry.name
    if args.oracle and linking:
        p = np.array([0.3, 0.4, np.sqrt(1 - 0.25)])
        q = -p
        link = gauss_linking_oracle(f, p / np.linalg.norm(p),
                                    q / np.linalg.norm(q))
        out["oracle"] = {"linking": link.value, "rounded": link.rounded,
                         "min_transverse_sv": link.min_transverse_sv,
                         "points": link.points}
    elif args.oracle:
        out["oracle"] = {"winding": winding_number_oracle(f)}
    _print_json(out, args.json_out)
    return 0


def _cmd_seminorm(args) -> int:
    # a flag the chosen kind would not read is an error, not ignored
    unread = {"sobolev": (), "holder": ("p",), "bmo": ("beta", "p", "samples")}
    for flag in unread[args.kind]:
        if getattr(args, flag) is not None:
            raise ValueError(f"argument --{flag}: not allowed with --kind "
                             f"{args.kind}")
    f = parse_map_spec(args.map_spec)
    beta = 0.5 if args.beta is None else args.beta
    samples = 200_000 if args.samples is None else args.samples
    if args.kind == "sobolev":
        p = f.domain_dim / beta if args.p is None else args.p
        est = sobolev_seminorm(f, beta, p, samples=samples, seed=args.seed)
    elif args.kind == "holder":
        est = holder_seminorm(f, beta, samples=samples, seed=args.seed)
    else:
        est = bmo_seminorm(f, seed=args.seed)
    out = asdict(est)
    out["map"] = args.map_spec
    out["kind"] = args.kind
    _print_json(out, args.json_out)
    return 0


def _cmd_verify(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if config.kind != args.verify_command:
        raise ConfigError(f"config kind {config.kind!r} does not match "
                          f"'verify {args.verify_command}'")
    for path in config.outputs.values():
        check_writable(path)
    report = run_scaling(config) if config.kind == "scaling" \
        else run_bmo_probe(config)
    for fmt in REPORT_FORMATS:
        if fmt in config.outputs:
            emit_report(report, fmt, config.outputs[fmt])
    print(format_report_text(report), end="")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for flag in ("out", "json_out"):     # every output, before any work
            if getattr(args, flag, None):
                check_writable(getattr(args, flag))
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # the str() of a KeyError is the repr of its message
        msg = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
