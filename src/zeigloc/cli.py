"""Command-line front end.

Subcommands: info, sets, bounds, zeig, verify.  Each command builds one
structured document, ``meta`` plus its sections, and every output format
renders from it.  The structured format prints the document as one JSON line,
each value at full precision (the shortest decimal that reads back as the
same double); the tables print the same values at 4 decimals; the plot-data
and svg formats of ``sets`` draw its sets section.
Exit codes: 0 success or verified, 1 verification failure, 2 input error.
"""

import argparse
import functools
import json
import sys

from . import __version__
from .bounds import BOUND_NAMES, BoundReport, bound_report
from .intervals import IntervalSet
from .localization import SET_NAMES, SetReport, build_sets, inclusion_chain_check, row_aggregates
from .oracle import OracleConfig, solve, verify_inclusion
from .tensor import Tensor, TensorFormatError, is_nonnegative, load_tensor, weak_symmetry_check

BOUND_LABELS = {
    "omega_max": "two-family split row-sum bound",
    "zhao": "split row-sum quadratic bound",
    "wang": "diagonal-entry quadratic bound",
    "maxR": "largest absolute row sum",
}

_SVG_SIZE = 640  # width and height of the sets drawing, in pixels
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


def _flag(b: bool) -> str:
    return "yes" if b else "no"


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.4f}"


# ------------------------------------------------------------- doc sections


def _info_section(A: Tensor, nonnegative: bool, wsc) -> dict:
    return {
        "order": A.order,
        "dim": A.dim,
        "entry_count": A.dim**A.order,
        "nonnegative": nonnegative,
        "symmetric": wsc.symmetric,
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
            "intervals": rep.set.intervals,
            "radius": rep.radius,
            "per_index": [s.intervals for s in rep.per_index],
        }
        if rep.families:
            entry["families"] = {
                fam: [s.intervals for s in rows] for fam, rows in rep.families.items()
            }
        out.append(entry)
    return out


def _bounds_section(rep: BoundReport, nonnegative: bool, weakly_symmetric: bool) -> dict:
    out = {}
    for name in BOUND_NAMES:  # value, i, and the witnesses j and family where present
        out[name] = {k: v for k, v in vars(getattr(rep, name)).items() if v is not None}
    out["nonnegative"] = nonnegative
    out["weakly_symmetric"] = weakly_symmetric
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


def _cells(row: dict) -> dict:
    """A verification row's set cells, then its bound cells when checked."""
    return {**row["sets"], **(row["bounds"] or {})}


# ------------------------------------------------------------ text renders


def _text_info(doc) -> str:
    info = doc["info"]
    ws = info["weakly_symmetric"]
    return "\n".join(
        [
            f"tensor: order m={info['order']}, dimension n={info['dim']} "
            f"({info['entry_count']} entries)",
            f"nonnegative:       {_flag(info['nonnegative'])}",
            f"symmetric:         {_flag(info['symmetric'])}",
            f"weakly symmetric:  {_flag(ws['verdict'])} "
            f"(exact, max residual {ws['max_residual']:.3e})",
        ]
    )


def _text_sets(doc) -> str:
    lines = [f"{'set':<6} {'radius':>10}  intervals"]
    for entry in doc["sets"]:
        ivs = " u ".join(f"[{_fmt(lo)}, {_fmt(hi)}]" for lo, hi in entry["intervals"]) or "(empty)"
        lines.append(f"{entry['name']:<6} {_fmt(entry['radius']):>10}  {ivs}")
    return "\n".join(lines)


def _text_bounds(doc) -> str:
    bounds = doc["bounds"]
    lines = [f"{'bound':<10} {'value':>10}  {'witness':<16} description"]
    for name in BOUND_NAMES:
        bv = bounds[name]
        witness = f"i={bv['i']}" + (f" j={bv['j']}" if "j" in bv else "")
        if "family" in bv:
            witness += f" ({bv['family']})"
        lines.append(f"{name:<10} {_fmt(bv['value']):>10}  {witness:<16} {BOUND_LABELS[name]}")
    lines.append(
        f"applies to the Z-spectral radius: nonnegative={_flag(bounds['nonnegative'])} "
        f"weakly_symmetric={_flag(bounds['weakly_symmetric'])}"
    )
    return "\n".join(lines)


def _text_eigen(doc, power: bool) -> str:
    # only the power method warns when it finds nothing
    pairs = doc["eigenpairs"]
    if not pairs:
        return "no Z-eigenpairs found" + (" (see warnings)" if power else "")
    lines = [f"{'lambda':>10} {'residual':>10} {'mult':>5} {'source':<7} eigenvector"]
    for p in pairs:
        vec = "[" + ", ".join(_fmt(v) for v in p["vector"]) + "]"
        lines.append(
            f"{_fmt(p['value']):>10} {p['residual']:>10.2e} {p['multiplicity']:>5} "
            f"{p['source']:<7} {vec}"
        )
    return "\n".join(lines)


def _text_verification(doc) -> str:
    ver = doc["verification"]
    names = _cells(ver["rows"][0]) if ver["rows"] else SET_NAMES
    lines = [f"{'lambda':>10} " + " ".join(f"{n:>9}" for n in names)]
    mark = lambda b: "ok" if b else "FAIL"
    for row in ver["rows"]:
        cells = " ".join(f"{mark(good):>9}" for good in _cells(row).values())
        lines.append(f"{_fmt(row['value']):>10} {cells}")
    lines.append(f"inclusion chain Omega, Psi, L, K: {mark(ver['chain']['ok'])}")
    for v in ver["chain"]["violations"]:
        lo, hi = v["interval"]
        lines.append(
            f"  violation: {v['inner']} interval [{lo:.6g}, {hi:.6g}] not inside {v['outer']}"
        )
    lines.append(f"verdict: {'PASS' if ver['ok'] else 'FAIL'}")
    return "\n".join(lines)


# ------------------------------------------------------- plot-data and svg


def render_plot_data(sets) -> str:
    lines = ["set,inner_radius,outer_radius"]
    for entry in sets:
        for lo, hi in entry["intervals"]:
            lines.append(f"{entry['name']},{lo:.17g},{hi:.17g}")
    return "\n".join(lines) + "\n"


def render_svg(sets, eigenvalues=()) -> str:
    size = _SVG_SIZE
    radii = [entry["radius"] for entry in sets if entry["radius"] is not None]
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
    for entry in sets:
        name = entry["name"]
        for lo, hi in entry["intervals"]:
            for r in (hi, lo):
                if r > 0:
                    parts.append(
                        f'<circle cx="{c:.1f}" cy="{c:.1f}" r="{r * scale:.2f}" '
                        f'fill="none" {_SVG_STYLES[name]}><title>{name}</title></circle>'
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


def _oracle_cfg(args) -> OracleConfig:
    return OracleConfig(args.starts, args.max_iter, args.tol, args.seed)


def _info(A: Tensor, args) -> dict:
    return {"info": _info_section(A, is_nonnegative(A), weak_symmetry_check(A))}


def _sets(A: Tensor, args) -> dict:
    doc = {"sets": _sets_section(build_sets(row_aggregates(A)))}
    if args.format == "svg":  # the eigenvalue marks, from the oracle at its defaults
        doc["eigenpairs"] = _eigen_section(solve(A))
    return doc


def _bounds(A: Tensor, args) -> dict:
    weakly_symmetric = weak_symmetry_check(A).ok
    bounds = bound_report(row_aggregates(A))
    return {"bounds": _bounds_section(bounds, is_nonnegative(A), weakly_symmetric)}


def _zeig(A: Tensor, args) -> dict:
    return {"eigenpairs": _eigen_section(solve(A, _oracle_cfg(args)))}


def _corrupted(reports):
    # test hook: shrink every set so containment checks must fail
    out = {}
    for name, rep in reports.items():
        halved = IntervalSet((lo * 0.5, hi * 0.5) for lo, hi in rep.set.intervals)
        out[name] = SetReport(name, halved, rep.per_index, rep.families)
    return out


def _verify(A: Tensor, args) -> dict:
    agg = row_aggregates(A)
    reports = build_sets(agg)
    bounds = bound_report(agg)
    nonnegative, wsc = is_nonnegative(A), weak_symmetry_check(A)
    chain = inclusion_chain_check(reports)
    pairs = solve(A, _oracle_cfg(args))
    checked = _corrupted(reports) if args.corrupt_sets else reports
    # the bounds hold for the spectral radius of nonnegative weakly symmetric tensors only
    ver = verify_inclusion(pairs, checked, bounds if nonnegative and wsc.ok else None)
    return {
        "info": _info_section(A, nonnegative, wsc),
        "sets": _sets_section(reports),
        "bounds": _bounds_section(bounds, nonnegative, wsc.ok),
        "eigenpairs": _eigen_section(pairs),
        "verification": {
            "rows": [
                {"value": r.pair.value, "slack": r.slack, "sets": r.set_ok, "bounds": r.bound_ok}
                for r in ver.rows
            ],
            "chain": {
                "ok": chain.ok,
                "radii": chain.radii,
                "violations": [vars(v) for v in chain.violations],
            },
            "ok": ver.ok and chain.ok,
        },
    }


def _run(args) -> int:
    """Build the command's document, print it in the chosen format, and
    return 1 when its verification failed."""
    A = load_tensor(args.path)
    meta = {"command": args.command, "input": args.path, "version": __version__}
    doc = {"meta": meta, **args.sections(A, args)}
    if args.format == "structured":
        print(render_json(doc))
    elif args.format == "plot-data":
        sys.stdout.write(render_plot_data(doc["sets"]))
    elif args.format == "svg":
        sys.stdout.write(render_svg(doc["sets"], [p["value"] for p in doc["eigenpairs"]]))
    elif args.command == "zeig":
        print(_text_eigen(doc, power=A.dim != 2))
    else:
        print(args.text(doc))
    ver = doc.get("verification")
    if ver is None or ver["ok"]:
        return 0
    if args.format == "text":
        for row in ver["rows"]:
            for cell, good in _cells(row).items():
                if not good:
                    print(f"failed: |{abs(row['value']):.6g}| not within {cell}", file=sys.stderr)
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
    sub.set_defaults(sections=_info, text=_text_info)

    sub = subs.add_parser("sets", help="localization sets K, L, Psi, Omega")
    _add_common(sub, ("text", "structured", "plot-data", "svg"))
    sub.set_defaults(sections=_sets, text=_text_sets)

    sub = subs.add_parser("bounds", help="spectral-radius upper bounds")
    _add_common(sub, ("text", "structured"))
    sub.set_defaults(sections=_bounds, text=_text_bounds)

    sub = subs.add_parser("zeig", help="Z-eigenpairs from the desk-scale oracle")
    _add_common(sub, ("text", "structured"))
    _add_oracle_opts(sub)
    sub.set_defaults(sections=_zeig)

    sub = subs.add_parser("verify", help="check eigenvalues against sets and bounds")
    _add_common(sub, ("text", "structured"))
    _add_oracle_opts(sub)
    sub.add_argument("--corrupt-sets", action="store_true", help=argparse.SUPPRESS)
    sub.set_defaults(sections=_verify, text=_text_verification)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except TensorFormatError as exc:
        print(f"zeigloc: input error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"zeigloc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
