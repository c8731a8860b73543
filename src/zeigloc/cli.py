"""Command-line front end.

Subcommands: info, sets, bounds, zeig, verify.  Tables print values at 4
decimals; the structured format prints one JSON document on one line, with
the same values at full precision (the shortest decimal that reads back as
the same double).
Exit codes: 0 success or verified, 1 verification failure, 2 input error.
"""

import argparse
import functools
import json
import sys

from . import __version__
from .bounds import BOUND_NAMES, BoundReport, bound_report
from .intervals import IntervalSet
from .localization import SET_NAMES, build_sets, inclusion_chain_check, row_aggregates
from .oracle import OracleConfig, solve, verify_inclusion
from .tensor import (
    SYMMETRY_TOL,
    Tensor,
    TensorFormatError,
    is_nonnegative,
    load_tensor,
    weak_symmetry_check,
)

BOUND_LABELS = {
    "omega_max": "two-family split row-sum bound",
    "zhao": "split row-sum quadratic bound",
    "wang": "diagonal-entry quadratic bound",
    "maxR": "largest absolute row sum",
}

_SVG_STYLES = {
    "K": 'stroke="#000000" stroke-width="1.5" stroke-dasharray="10 6"',
    "L": 'stroke="#2ca02c" stroke-width="1.5"',
    "Psi": 'stroke="#1f77b4" stroke-width="1.5" stroke-dasharray="2 5"',
    "Omega": 'stroke="#d62728" stroke-width="3"',
}


# ------------------------------------------------------------------ output


def render_json(obj) -> str:
    """JSON on one line, from json's C encoder; floats in Python's shortest
    round-trip form, and NaN or infinity raise ValueError."""
    return json.dumps(obj, allow_nan=False)


def _interval_list(iset: IntervalSet):
    return [[lo, hi] for lo, hi in iset.intervals]


def _fmt(v, nd: int = 4) -> str:
    if v is None:
        return "-"
    return f"{v:.{nd}f}"


# ------------------------------------------------------------- doc sections


def _info_section(A: Tensor, wsc) -> dict:
    return {
        "order": A.order,
        "dim": A.dim,
        "entry_count": A.dim**A.order,
        "nonnegative": is_nonnegative(A),
        "symmetric": wsc.orbit_spread <= SYMMETRY_TOL,
        "weakly_symmetric": {
            "verdict": wsc.ok,
            "tol": wsc.tol,
            "max_residual": wsc.max_residual,
            "threshold": wsc.threshold,
        },
    }


def _sets_section(reports) -> list:
    out = []
    for name in SET_NAMES:
        rep = reports[name]
        entry = {
            "name": name,
            "intervals": _interval_list(rep.set),
            "radius": rep.radius,
            "per_index": [_interval_list(s) for s in rep.per_index],
        }
        if rep.families:
            entry["families"] = {
                fam: [_interval_list(s) for s in rows] for fam, rows in rep.families.items()
            }
        out.append(entry)
    return out


def _bounds_section(rep: BoundReport) -> dict:
    out = {}
    for name in BOUND_NAMES:
        bv = getattr(rep, name)
        entry = {"value": bv.value, "i": bv.i}
        if bv.j is not None:
            entry["j"] = bv.j
        if bv.family is not None:
            entry["family"] = bv.family
        out[name] = entry
    out["nonnegative"] = rep.nonnegative
    out["weakly_symmetric"] = rep.weak_symmetry.ok
    return out


def _eigen_section(pairs) -> list:
    return [
        {
            "value": p.value,
            "vector": list(map(float, p.vector)),
            "residual": p.residual,
            "multiplicity": p.multiplicity,
            "source": p.source,
        }
        for p in pairs
    ]


# ------------------------------------------------------------ text renders


def _text_info(section: dict) -> str:
    ws = section["weakly_symmetric"]
    flag = lambda b: "yes" if b else "no"
    return "\n".join(
        [
            f"tensor: order m={section['order']}, dimension n={section['dim']} "
            f"({section['entry_count']} entries)",
            f"nonnegative:       {flag(section['nonnegative'])}",
            f"symmetric:         {flag(section['symmetric'])}",
            f"weakly symmetric:  {flag(ws['verdict'])} "
            f"(exact, max residual {ws['max_residual']:.3e})",
        ]
    )


def _text_sets(reports) -> str:
    lines = [f"{'set':<6} {'radius':>10}  intervals"]
    for name in SET_NAMES:
        rep = reports[name]
        ivs = " u ".join(f"[{_fmt(lo)}, {_fmt(hi)}]" for lo, hi in rep.set.intervals) or "(empty)"
        lines.append(f"{name:<6} {_fmt(rep.radius):>10}  {ivs}")
    return "\n".join(lines)


def _text_bounds(rep: BoundReport) -> str:
    lines = [f"{'bound':<10} {'value':>10}  {'witness':<16} description"]
    for name in BOUND_NAMES:
        bv = getattr(rep, name)
        witness = f"i={bv.i}" + (f" j={bv.j}" if bv.j is not None else "")
        if bv.family:
            witness += f" ({bv.family})"
        lines.append(f"{name:<10} {_fmt(bv.value):>10}  {witness:<16} {BOUND_LABELS[name]}")
    flag = lambda b: "yes" if b else "no"
    lines.append(
        f"applies to the Z-spectral radius: nonnegative={flag(rep.nonnegative)} "
        f"weakly_symmetric={flag(rep.weak_symmetry.ok)}"
    )
    return "\n".join(lines)


def _text_eigen(pairs, power: bool) -> str:
    # only the power method warns when it finds nothing
    if not pairs:
        return "no Z-eigenpairs found" + (" (see warnings)" if power else "")
    lines = [f"{'lambda':>10} {'residual':>10} {'mult':>5} {'source':<7} eigenvector"]
    for p in pairs:
        vec = "[" + ", ".join(_fmt(v) for v in p.vector) + "]"
        lines.append(
            f"{_fmt(p.value):>10} {p.residual:>10.2e} {p.multiplicity:>5} {p.source:<7} {vec}"
        )
    return "\n".join(lines)


def _text_verification(doc, chain) -> str:
    names = list(SET_NAMES)
    bound_names = list(BOUND_NAMES) if doc.bounds_checked else []
    header = f"{'lambda':>10} " + " ".join(f"{n:>9}" for n in names + bound_names)
    lines = [header]
    mark = lambda b: "ok" if b else "FAIL"
    for row in doc.rows:
        cells = [mark(row.set_ok[n]) for n in names]
        if row.bound_ok is not None:
            cells += [mark(row.bound_ok[n]) for n in bound_names]
        lines.append(f"{_fmt(row.pair.value):>10} " + " ".join(f"{c:>9}" for c in cells))
    chain_txt = "ok" if chain.ok else "FAIL"
    lines.append(f"inclusion chain Omega, Psi, L, K: {chain_txt}")
    for v in chain.violations:
        lines.append(
            f"  violation: {v.inner} interval [{v.interval[0]:.6g}, {v.interval[1]:.6g}] "
            f"not inside {v.outer}"
        )
    verdict = doc.ok and chain.ok
    lines.append(f"verdict: {'PASS' if verdict else 'FAIL'}")
    return "\n".join(lines)


# ------------------------------------------------------- plot-data and svg


def render_plot_data(reports) -> str:
    lines = ["set,inner_radius,outer_radius"]
    for name in SET_NAMES:
        for lo, hi in reports[name].set.intervals:
            lines.append(f"{name},{lo:.17g},{hi:.17g}")
    return "\n".join(lines) + "\n"


def render_svg(reports, eigenvalues=(), size: int = 640) -> str:
    radii = [reports[name].radius for name in SET_NAMES if reports[name].radius is not None]
    rmax = max(radii + [abs(v) for v in eigenvalues] + [0.0])
    scale = (size / 2.0 - 40.0) / rmax if rmax > 0 else 1.0
    c = size / 2.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{c:.1f}" x2="{size}" y2="{c:.1f}" stroke="#cccccc" stroke-width="1"/>',
        f'<line x1="{c:.1f}" y1="0" x2="{c:.1f}" y2="{size}" stroke="#cccccc" stroke-width="1"/>',
    ]
    for name in SET_NAMES:
        style = _SVG_STYLES[name]
        for lo, hi in reports[name].set.intervals:
            for r in (hi, lo):
                if r > 0:
                    parts.append(
                        f'<circle cx="{c:.1f}" cy="{c:.1f}" r="{r * scale:.2f}" '
                        f'fill="none" {style}><title>{name}</title></circle>'
                    )
    d = 6.0
    for v in eigenvalues:
        x = c + v * scale
        parts.append(
            f'<path d="M {x - d:.2f} {c:.2f} H {x + d:.2f} M {x:.2f} {c - d:.2f} V {c + d:.2f}" '
            f'stroke="#000000" stroke-width="1.5"/>'
        )
    for k, name in enumerate(SET_NAMES):
        y = 20 + 18 * k
        parts.append(f'<line x1="12" y1="{y - 4}" x2="44" y2="{y - 4}" {_SVG_STYLES[name]}/>')
        parts.append(f'<text x="50" y="{y}" font-size="13" font-family="sans-serif">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ------------------------------------------------------------ subcommands


def _meta(args, command: str) -> dict:
    return {"command": command, "input": args.path, "version": __version__}


def _oracle_cfg(args) -> OracleConfig:
    return OracleConfig(
        starts=args.starts,
        max_iter=args.max_iter,
        tol=args.tol,
        seed=args.seed,
    )


def cmd_info(args) -> int:
    A = load_tensor(args.path)
    section = _info_section(A, weak_symmetry_check(A))
    if args.format == "structured":
        print(render_json({"meta": _meta(args, "info"), "info": section}))
    else:
        print(_text_info(section))
    return 0


def cmd_sets(args) -> int:
    A = load_tensor(args.path)
    reports = build_sets(A)
    if args.format == "plot-data":
        sys.stdout.write(render_plot_data(reports))
    elif args.format == "svg":
        pairs = solve(A)
        sys.stdout.write(render_svg(reports, [p.value for p in pairs]))
    elif args.format == "structured":
        print(render_json({"meta": _meta(args, "sets"), "sets": _sets_section(reports)}))
    else:
        print(_text_sets(reports))
    return 0


def cmd_bounds(args) -> int:
    A = load_tensor(args.path)
    rep = bound_report(A)
    if args.format == "structured":
        print(render_json({"meta": _meta(args, "bounds"), "bounds": _bounds_section(rep)}))
    else:
        print(_text_bounds(rep))
    return 0


def cmd_zeig(args) -> int:
    A = load_tensor(args.path)
    pairs = solve(A, _oracle_cfg(args))
    if args.format == "structured":
        print(render_json({"meta": _meta(args, "zeig"), "eigenpairs": _eigen_section(pairs)}))
    else:
        print(_text_eigen(pairs, power=A.dim != 2))
    return 0


def _corrupted(reports):
    # test hook: shrink every set so containment checks must fail
    from .localization import SetReport

    out = {}
    for name, rep in reports.items():
        halved = IntervalSet((lo * 0.5, hi * 0.5) for lo, hi in rep.set.intervals)
        out[name] = SetReport(name, halved, rep.per_index, rep.families)
    return out


def cmd_verify(args) -> int:
    A = load_tensor(args.path)
    agg = row_aggregates(A)
    reports = build_sets(A, agg)
    bounds = bound_report(A, agg)
    chain = inclusion_chain_check(A, reports=reports)
    pairs = solve(A, _oracle_cfg(args))
    checked = _corrupted(reports) if args.corrupt_sets else reports
    doc = verify_inclusion(pairs, checked, bounds)
    if args.format == "structured":
        document = {
            "meta": _meta(args, "verify"),
            "info": _info_section(A, bounds.weak_symmetry),
            "sets": _sets_section(reports),
            "bounds": _bounds_section(bounds),
            "eigenpairs": _eigen_section(pairs),
            "verification": {
                "rows": [
                    {
                        "value": row.pair.value,
                        "slack": row.slack,
                        "sets": row.set_ok,
                        "bounds": row.bound_ok,
                    }
                    for row in doc.rows
                ],
                "chain": {
                    "ok": chain.ok,
                    "radii": chain.radii,
                    "violations": [
                        {"inner": v.inner, "outer": v.outer, "interval": list(v.interval)}
                        for v in chain.violations
                    ],
                },
                "ok": doc.ok and chain.ok,
            },
        }
        print(render_json(document))
    else:
        print(_text_verification(doc, chain))
    if doc.ok and chain.ok:
        return 0
    if args.format == "text":
        for value, cell in doc.failing_cells():
            print(f"failed: |{value:.6g}| not within {cell}", file=sys.stderr)
    return 1


# -------------------------------------------------------------- arg parser


def _add_common(sub, formats):
    sub.add_argument("path", help="tensor text file")
    sub.add_argument("--format", choices=formats, default="text", help="output format")


def _add_oracle_opts(sub):
    sub.add_argument("--starts", type=int, default=50, help="random restarts for sshopm")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--tol", type=float, default=1e-10,
                     help="iterate-change stop for sshopm: the power phase hands off at "
                     "sqrt(tol), the Newton polish stops at tol")
    sub.add_argument("--max-iter", type=int, default=1000)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeigloc",
        description="Z-eigenvalue localization sets, spectral-radius bounds, "
        "and a desk-scale eigenpair oracle for dense real tensors.",
    )
    parser.add_argument("--version", action="version", version=f"zeigloc {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("info", help="structural predicates of the tensor")
    _add_common(sub, ("text", "structured"))
    sub.set_defaults(func=cmd_info)

    sub = subs.add_parser("sets", help="localization sets K, L, Psi, Omega")
    _add_common(sub, ("text", "structured", "plot-data", "svg"))
    sub.set_defaults(func=cmd_sets)

    sub = subs.add_parser("bounds", help="spectral-radius upper bounds")
    _add_common(sub, ("text", "structured"))
    sub.set_defaults(func=cmd_bounds)

    sub = subs.add_parser("zeig", help="Z-eigenpairs from the desk-scale oracle")
    _add_common(sub, ("text", "structured"))
    _add_oracle_opts(sub)
    sub.set_defaults(func=cmd_zeig)

    sub = subs.add_parser("verify", help="check eigenvalues against sets and bounds")
    _add_common(sub, ("text", "structured"))
    _add_oracle_opts(sub)
    sub.add_argument("--corrupt-sets", action="store_true", help=argparse.SUPPRESS)
    sub.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TensorFormatError as exc:
        print(f"zeigloc: input error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"zeigloc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
