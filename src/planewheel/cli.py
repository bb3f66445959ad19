"""Command-line front end.

Exit codes: 0 ok / verdict as expected, 1 verdict mismatch or failed
verification, 2 usage error, malformed input or unwritable output, 3 search
limit reached.
"""

from __future__ import annotations

import argparse
import colorsys
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import doublestar, enumerate_k3, partition as partition_mod, solver
from .partition import MODE_DOUBLE_STAR, MODE_SUBGRAPH, MODE_TREE, Partition
from .wheelgeom import (
    PointSet,
    WheelModel,
    build_bumpy_wheel,
    build_generalized_wheel,
    realize_coordinates,
    wheel_tables,
)

MODE_FLAGS = {
    "subgraph": MODE_SUBGRAPH,
    "spanning-tree": MODE_TREE,
    "double-star": MODE_DOUBLE_STAR,
}


class CliError(Exception):
    def __init__(self, msg: str, code: int):
        super().__init__(msg)
        self.code = code


def _add_model_flags(p: argparse.ArgumentParser):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--bw", nargs=2, type=int, metavar=("K", "L"), help="bumpy wheel BW_{k,l}")
    g.add_argument("--gw", type=str, metavar="SIZES", help="generalized wheel, sizes like 2,3,3")


def _model_from_args(args) -> WheelModel:
    try:
        if args.bw:
            return build_bumpy_wheel(args.bw[0], args.bw[1])
        sizes = [int(s) for s in args.gw.split(",")]
        return build_generalized_wheel(sizes)
    except ValueError as exc:
        raise CliError(f"invalid model: {exc}", 2)


@contextmanager
def _writing():
    """Turn an OSError from writing output into a one-line exit-2 error."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"cannot write {exc.filename}: {exc.strerror or exc}", 2)


def _write(path: str | None, text: str):
    if path:
        with _writing():
            Path(path).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"no such file: {path}", 2)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}", 2)
    except UnicodeDecodeError:
        raise CliError(f"{path} is not UTF-8 text", 2)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}", 2)


def _palette(m: int) -> list[str]:
    out = []
    for i in range(m):
        r, g, b = colorsys.hls_to_rgb(i / max(m, 1), 0.45, 0.85)
        out.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    return out


def render_svg(p: Partition, ps: PointSet, palette: list[str], only_class: int | None = None) -> str:
    """One SVG picture of p drawn on ps, the realization of its model, with
    class c stroked in palette[c]."""
    size = 520
    cx = cy = size / 2
    scale = size * 0.45
    pts = [(cx + float(x) * scale, cy - float(y) * scale) for x, y in ps.points]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<circle cx="{cx}" cy="{cy}" r="{scale}" fill="none" stroke="#ddd"/>',
    ]
    for e, c in zip(wheel_tables(p.model).edges, p.colors):
        if only_class is not None and c != only_class:
            continue
        (x1, y1), (x2, y2) = pts[e[0]], pts[e[1]]
        lines.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{palette[c]}" stroke-width="1.4"/>'
        )
    for i, (x, y) in enumerate(pts):
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="#222"/>')
        lines.append(f'<text x="{x + 5:.2f}" y="{y - 5:.2f}" font-size="10">{i}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cmd_generate(args) -> int:
    model = _model_from_args(args)
    if args.coords:
        ps = realize_coordinates(model)
        _write(args.output, json.dumps(ps.to_json(), indent=2))
    else:
        _write(args.output, json.dumps(model.to_json(), indent=2))
    return 0


def _cmd_solve(args) -> int:
    model = _model_from_args(args)
    if args.node_limit < 0:
        raise CliError(f"node limit must be >= 0, got {args.node_limit}", 2)
    if not args.time_limit >= 0:
        raise CliError(f"--time-limit must be >= 0, got {args.time_limit}", 2)
    cfg = solver.SolveConfig(
        mode=MODE_FLAGS[args.mode],
        node_limit=args.node_limit,
        time_limit=args.time_limit,
    )
    outcome = solver.solve(model, cfg, preassigned=[] if args.no_symmetry_breaking else None)
    if outcome.witness is not None:
        rep = partition_mod.VALIDATORS[cfg.mode](outcome.witness)
        if not rep.ok:
            raise CliError(f"{outcome.status} witness fails validation: {rep.violations[0]}", 1)
    _write(args.output, json.dumps(outcome.to_json(), indent=2))
    if outcome.witness is not None and args.partition_out:
        _write(args.partition_out, json.dumps(outcome.witness.to_json()))
    if outcome.status == "LIMIT":
        return 3
    if args.expect and outcome.status.lower() != args.expect:
        print(f"expected {args.expect.upper()}, got {outcome.status}", file=sys.stderr)
        return 1
    return 0


def _cmd_enumerate(args) -> int:
    # enumerate_all checks k and case on its first step, inside the try
    try:
        if args.emit == "count":
            total = enumerate_k3.count(args.k, args.case)  # streams, holds one partition at a time
        else:
            parts = list(enumerate_k3.enumerate_all(args.k, args.case))
    except ValueError as exc:
        raise CliError(str(exc), 2)
    if args.emit == "count":
        _write(args.output, str(total))
    elif args.emit == "json":
        _write(args.output, json.dumps([p.to_json() for p in parts]))
    else:
        outdir = Path(args.output or ".")
        model = build_bumpy_wheel(args.k, 3)
        ps = realize_coordinates(model)
        palette = _palette(model.n)  # every tree partition has n classes
        with _writing():
            outdir.mkdir(parents=True, exist_ok=True)
            for i, p in enumerate(parts):
                (outdir / f"partition_{i:05d}.svg").write_text(render_svg(p, ps, palette))
        print(f"wrote {len(parts)} SVG files to {outdir}")
    return 0


def _load_partition(path: str) -> Partition:
    obj = _load_json(path)
    try:
        return Partition.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid partition JSON: {exc}", 2)


def _cmd_verify(args) -> int:
    p = _load_partition(args.partition)
    mode = MODE_FLAGS[args.mode]
    rep = partition_mod.VALIDATORS[mode](p)
    audit = partition_mod.structural_audit(p, mode) if rep.ok else None
    report = {
        "mode": args.mode,
        "valid": rep.ok,
        "violations": rep.violations,
        "class_flags": rep.class_flags,
        "audit_violations": audit.violations if audit else None,
    }
    _write(args.output, json.dumps(report, indent=2))
    return 0 if rep.ok and (audit is None or audit.ok) else 1


def _cmd_criteria(args) -> int:
    model = _model_from_args(args)
    bads = doublestar.bad_halfplanes(model)
    triple = doublestar.empty_triple(bads)
    report = {
        "model": model.to_json(),
        "verdicts": solver.decide_theorem(model),
        "criterion_small_families": doublestar.criterion_small_families(model),
        "criterion_large_families": doublestar.criterion_large_families(model),
        "tree_nonpartition_criterion": doublestar.tree_nonpartition_criterion(model),
        "bad_halfplanes": len(bads),
        "empty_triple": [list(b.halving_edge) for b in triple] if triple else None,
    }
    _write(args.output, json.dumps(report, indent=2))
    return 0


def _cmd_export_lp(args) -> int:
    model = _model_from_args(args)
    m = model.n if args.m is None else args.m  # --m 0 is refused, not read as the default
    try:
        text = solver.export_lp(
            model, m, enforce_class_size=args.enforce_class_size, enforce_triangle=args.enforce_triangle
        )
    except ValueError as exc:
        raise CliError(f"--m: {exc}", 2)
    _write(args.output, text)
    return 0


def _cmd_render(args) -> int:
    p = _load_partition(args.partition)
    out = Path(args.output or "partition.svg")
    ps = realize_coordinates(p.model)
    palette = _palette(p.m)
    with _writing():
        out.write_text(render_svg(p, ps, palette))
        stem, parent = out.stem, out.parent
        for c in range(p.m):
            (parent / f"{stem}_class{c}.svg").write_text(render_svg(p, ps, palette, only_class=c))
    print(f"wrote {out} and {p.m} per-class SVGs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="planewheel", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a wheel model or its exact coordinates")
    _add_model_flags(p)
    p.add_argument("--coords", action="store_true", help="emit rational coordinates")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="decide partitionability by exhaustive search")
    _add_model_flags(p)
    p.add_argument("--mode", choices=sorted(MODE_FLAGS), default="spanning-tree")
    p.add_argument("--expect", choices=["sat", "unsat"])
    p.add_argument("--node-limit", type=int, default=0)
    p.add_argument("--time-limit", type=float, default=0.0)
    p.add_argument("--no-symmetry-breaking", action="store_true")
    p.add_argument("--partition-out")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("enumerate", help="enumerate all BW_{k,3} tree partitions")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--case", choices=["1", "2a", "2b", "all"], default="all")
    p.add_argument("--emit", choices=["count", "json", "svg"], default="count")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="validate and audit a partition JSON file")
    p.add_argument("partition")
    p.add_argument("--mode", choices=sorted(MODE_FLAGS), default="spanning-tree")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("criteria", help="closed-form verdicts and double-star criteria")
    _add_model_flags(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("export-lp", help="write the edge-coloring ILP in LP format")
    _add_model_flags(p)
    p.add_argument("--m", type=int, help="number of color classes (default n)")
    p.add_argument("--enforce-class-size", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--enforce-triangle", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export_lp)

    p = sub.add_parser("render", help="render a partition JSON file as SVG")
    p.add_argument("partition")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_render)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
