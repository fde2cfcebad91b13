"""Command-line interface: gen, metrics, spectrum, bounds, mix, bdchain, sweep.

Output is machine readable (JSON with a stable ``"schema": "treecut/1"``
field, or CSV where tabular) and byte-identical across runs for identical
arguments and seeds.  Exit codes: 0 success, 2 validation error, 3 resource
cap exceeded.

JSON is ``json.dumps(payload, sort_keys=True, indent=2)`` of the payload
with its arrays as lists (:func:`_json_text`).  Only the per-vertex integer
arrays skip that pure-Python indenting encoder, for the numpy writer
``tree._int_text`` (digits right-aligned in a zeroed byte grid whose zeros
are then deleted, no Python int per entry).  Integer arguments are an
optional minus and ASCII digits, as in the tree format (:func:`_parse_int`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from typing import Optional

import numpy as np

from . import bdchain as bd
from . import criteria, generate, mixing, spectral
from . import tree as tc
from .errors import ResourceLimitError, TreeFormatError, ValidationError, _shown

SCHEMA = "treecut/1"


def _parse_offspring(text: str) -> generate.OffspringDistribution:
    kind, _, rest = text.partition(":")
    try:
        if kind == "geom":
            return generate.OffspringDistribution.geometric(float(rest))
        if kind == "poisson":
            return generate.OffspringDistribution.poisson(float(rest))
        if kind == "table":
            return generate.OffspringDistribution.table(
                [float(x) for x in rest.split(",")])
    except ValueError as exc:
        raise ValidationError(f"bad offspring spec {text!r}: {exc}") from None
    raise ValidationError(
        f"unknown offspring kind {kind!r}; use geom:P, poisson:L or table:p0,p1,...")


def _parse_int(text: str) -> int:
    """An optional minus and ASCII digits, surrounding whitespace allowed;
    no digit cap but int()'s (4300 by default), since seeds reach 2**64."""
    digits = text.strip()
    if not re.fullmatch("-?[0-9]+", digits):
        raise argparse.ArgumentTypeError(f"expected an integer, got {_shown(text)}")
    try:
        return int(digits)
    except ValueError:  # past int()'s digit limit
        raise argparse.ArgumentTypeError(f"integer of {len(digits)} digits is too long") from None


def _parse_int_list(text: str, flag: str) -> list:
    try:
        return [_parse_int(x) for x in text.split(",") if x]
    except argparse.ArgumentTypeError:
        raise ValidationError(
            f"{flag} expects comma-separated integers, got {_shown(text)}") from None


def _build_tree_from_flags(args) -> tc.RootedTree:
    if args.family is None:
        raise ValidationError("no input: give a tree file or --family")
    if args.n is None:
        raise ValidationError(f"family {args.family!r} needs --n")
    offspring = _parse_offspring(args.offspring) if args.offspring else None
    return criteria._build_family_member(args.family, args.n, args.seed, offspring)


def _resolve_tree(args) -> tc.RootedTree:
    """Exactly one input source: a tree file path or family flags."""
    has_file = getattr(args, "tree", None) is not None
    has_family = getattr(args, "family", None) is not None
    if has_file and has_family:
        raise ValidationError("give either a tree file or --family, not both")
    if has_file:
        with open(args.tree, "rb") as fh:
            data = fh.read()
        if not data.isascii():
            raise TreeFormatError(f"tree file {args.tree!r} is not ASCII")
        return tc.from_text(data.decode("ascii"))
    return _build_tree_from_flags(args)


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _is_int_array(obj) -> bool:
    return isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "i"


def _json_text(obj, pad: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, with ``pad`` after
    each newline, for ``obj`` with each ndarray ``.tolist()``'d; ndarrays
    may appear only as dict values, at any depth of dicts, as in every CLI
    payload.

    A non-empty one-dimensional signed-integer ndarray takes the numpy
    writer ``tree._int_text``, and a non-empty dict is written key by key
    so that such arrays reach it.  Every other value is one ``json.dumps``
    call.
    """
    inner = pad + "  "
    if _is_int_array(obj) and obj.size:
        return "[\n" + inner + tc._int_text(obj, ",\n" + inner) + "\n" + pad + "]"
    if isinstance(obj, dict) and obj:
        items = [f"{json.dumps(k)}: {_json_text(obj[k], inner)}" for k in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _dump(args, payload: dict) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        _emit(args, _json_text(payload) + "\n")
    else:  # text: one "key value" line per key, nested values as one-line JSON
        lines = []
        for key in sorted(payload):
            value = payload[key]
            if _is_int_array(value):
                value = "[" + tc._int_text(value, ", ") + "]"
            elif isinstance(value, np.ndarray):
                value = json.dumps(value.tolist())
            elif isinstance(value, (dict, list, tuple)):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{key} {value}")
        _emit(args, "\n".join(lines) + "\n")


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(criteria.FAMILIES))
    p.add_argument("--n", type=_parse_int, help="family size parameter (k for peres_sousi)")
    p.add_argument("--seed", type=_parse_int)
    p.add_argument("--offspring",
                   help="geom:P | poisson:L | table:p0,p1,... (branching families)")


def cmd_gen(args) -> int:
    tree = _build_tree_from_flags(args)
    _emit(args, tc.to_text(tree))
    return 0


def cmd_metrics(args) -> int:
    tree = _resolve_tree(args)
    m = tc.compute_metrics(tree)
    mel = tc.max_edge_load(m)
    mpl = tc.max_path_load(m)
    tp = tc.tail_profile(m)
    com = tc.center_of_mass(tree)
    small = round(com.delta * tree.n)  # the parts share only the split vertex
    payload = {
        "schema": SCHEMA, "sites": tree.n, "root": tree.root,
        "depth": m.depth, "subtree_size": m.subtree_size,
        "path_load": m.path_load, "degree": m.degree,
        "max_degree": m.max_degree, "diameter": m.diameter,
        "tail_size": m.tail_size,
        "max_edge_load": {"value": mel.value, "edge": mel.edge},
        "max_path_load": {"value": mpl.value, "vertex": mpl.vertex},
        "tail_max": {"value": tp.value, "k": tp.k},
        "center_of_mass": {"vertex": com.vertex, "delta": com.delta,
                           "part_sizes": [small, tree.n + 1 - small]},
    }
    _dump(args, payload)
    return 0


def _gap_fields(tree: tc.RootedTree) -> dict:
    """gap, t_rel and the solver path, as ``mixing._gap`` chose them."""
    gap, method = mixing._gap(tree)
    return {"gap": gap, "t_rel": 1.0 / gap, "method": method}


def cmd_spectrum(args) -> int:
    tree = _resolve_tree(args)
    payload = {"schema": SCHEMA, "sites": tree.n}
    if args.full:  # every eigenvalue, so decompose; it refuses trees above the cap
        res = spectral.spectrum(tree)
        payload.update(gap=res.gap, t_rel=res.t_rel, method="dense",
                       eigenvalues=res.eigenvalues.tolist())
    else:
        payload.update(_gap_fields(tree))
    _dump(args, payload)
    return 0


def cmd_bounds(args) -> int:
    tree = _resolve_tree(args)
    cert, lower = spectral.hardy_interval(tree), spectral.hardy_lower(tree)
    payload = {
        "schema": SCHEMA, "sites": tree.n,
        "bounds": {
            "hardy_lower": lower.value, **spectral._upper_bounds(tree),
            "hardy_interval": list(cert.interval),
        },
        "delta": cert.delta,
        **_gap_fields(tree),
    }
    _dump(args, payload)
    return 0


def cmd_mix(args) -> int:
    tree = _resolve_tree(args)
    start: Optional[int] = None
    if args.start not in (None, "worst"):
        try:
            start = _parse_int(args.start)
        except argparse.ArgumentTypeError:
            raise ValidationError(
                f"--start must be 'worst' or a vertex, got {_shown(args.start)}") from None
    if args.curve is not None:
        table = mixing.tv_curve(tree, args.curve, start=start)
        lines = ["t,tv"] + [f"{t:.12g},{v:.12g}" for t, v in table]
        _emit(args, "\n".join(lines) + "\n")
        return 0
    res = mixing.mixing_time(tree, args.eps, start=start, rtol=args.rtol)
    payload = {"schema": SCHEMA, "sites": tree.n, "eps": args.eps,
               "t_mix": res.t_mix, "worst_start": res.worst_start,
               "start": "worst" if start is None else start, "rtol": args.rtol}
    _dump(args, payload)
    return 0


def cmd_bdchain(args) -> int:
    degrees = _parse_int_list(args.degrees, "--degrees")
    chain = bd.project(degrees, args.n)
    spec = bd.bd_spectrum(chain)
    tree = generate.spherically_symmetric(chain.degrees)
    lift_res = bd.lift(tree, chain, spec.eigenfunction)
    payload = {
        "schema": SCHEMA, "size": chain.size, "half": chain.half,
        "stripped": chain.stripped,
        "rates": {"up": chain.up_rate.tolist(), "down": chain.down_rate.tolist()},
        "stationary": chain.stationary.tolist(),
        "gap": spec.gap,
        "cs_bound": bd.cs_lower_bound(chain, max(chain.degrees)),
        "lift_residual": lift_res.residual,
    }
    _dump(args, payload)
    return 0


# the sweep row fields, in CSV column order
_ROW_FIELDS = tuple(f.name for f in dataclasses.fields(criteria.FamilyRow))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _trend_dict(value) -> dict:
    if isinstance(value, criteria.Diagnostic):
        out = {"quotient": value.quotient, "verdict": value.verdict,
               "threshold": value.threshold, "values": list(value.values)}
        if value.fit is not None:
            out.update(slope=value.fit.slope, r2=value.fit.r2,
                       points=value.fit.points)
        return out
    return {"slope": value.slope, "r2": value.r2, "points": value.points}


def cmd_sweep(args) -> int:
    offspring = _parse_offspring(args.offspring) if args.offspring else None
    report = criteria.sweep(args.family, _parse_int_list(args.sizes, "--sizes"),
                            epsilon=args.eps, seed=args.seed,
                            offspring=offspring, reps=args.reps,
                            jobs=args.jobs, threshold=args.threshold)
    if args.format == "csv":
        lines = [",".join(_ROW_FIELDS)]
        for row in report.rows:
            lines.append(",".join(_csv_cell(v) for v in dataclasses.asdict(row).values()))
        _emit(args, "\n".join(lines) + "\n")
        return 0
    payload = {
        "schema": SCHEMA, "family": report.family, "eps": report.epsilon,
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "trends": {k: _trend_dict(v) for k, v in report.trends.items()},
    }
    _dump(args, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecut",
        description="Mixing, relaxation, and cutoff diagnostics for random "
                    "walks on rooted trees.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a family member in canonical text form")
    _add_family_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    for name, func in (("metrics", cmd_metrics), ("spectrum", cmd_spectrum),
                       ("bounds", cmd_bounds)):
        p = sub.add_parser(name, help=f"compute {name} for a tree")
        p.add_argument("tree", nargs="?", help="tree file in canonical text form")
        _add_family_flags(p)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out")
        if name == "spectrum":
            p.add_argument("--full", action="store_true",
                           help="include all eigenvalues")
        p.set_defaults(func=func)

    p = sub.add_parser("mix", help="epsilon-mixing time or TV curve")
    p.add_argument("tree", nargs="?")
    _add_family_flags(p)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--start", default=None, help="'worst' (default) or a vertex")
    p.add_argument("--curve", type=_parse_int, metavar="N",
                   help="emit an N-sample t,tv CSV instead of the mixing time")
    p.add_argument("--rtol", type=float, default=1e-8)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("bdchain", help="project a spherically symmetric tree")
    p.add_argument("--degrees", required=True,
                   help="comma-separated degree per depth")
    p.add_argument("--n", type=_parse_int, required=True,
                   help="chain half-length (tree leaves sit at depth n-1)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bdchain)

    p = sub.add_parser("sweep", help="analyze a family across sizes")
    p.add_argument("--family", required=True, choices=sorted(criteria.FAMILIES))
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--seed", type=_parse_int)
    p.add_argument("--offspring")
    p.add_argument("--reps", type=_parse_int, default=1)
    p.add_argument("--jobs", type=_parse_int, default=1)
    p.add_argument("--threshold", type=float, default=criteria.SLOPE_THRESHOLD,
                   help="log-log slope threshold for verdicts")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)
    return parser


_parser = functools.cache(build_parser)  # one build per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
