"""Command-line front end.

Subcommands: info, sets, bounds, zeig, verify.  Each command is a list of
sections over one run record, which computes each layer on first use and at
most once.  ``meta`` plus the sections make one structured document, and
every output format renders from it.  The structured format prints the
document as one JSON line, each value at full precision (the shortest decimal
that reads back as the same double); the tables print the same values at 4
decimals, in exponent form from 1e4 on; the plot-data and svg formats of
``sets`` draw its sets section.
Exit codes: 0 success or verified, 1 verification failure, 2 input error.
"""

import argparse
import functools
import json
import sys

from . import __version__
from .bounds import BOUND_NAMES, bound_report
from .intervals import IntervalSet
from .localization import SET_NAMES, SetReport, build_sets, inclusion_chain_check, row_aggregates
from .oracle import OracleConfig, solve, verify_inclusion
from .tensor import TensorFormatError, is_nonnegative, load_tensor, weak_symmetry_check

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
    """4 decimals below 1e4 in magnitude (after that rounding), 3 significant
    digits in exponent form above: at most 10 characters, a table column."""
    if v is None:
        return "-"
    return f"{v:.4f}" if round(abs(v), 4) < 1e4 else f"{v:.2e}"


# ------------------------------------------------ run record and doc sections


class _Run:
    """One command's run: the tensor, the oracle settings, and each layer,
    computed on first use and at most once."""

    def __init__(self, args):
        self.args = args
        # only zeig and verify take oracle options; the svg marks of sets use
        # the defaults.  They are checked before the file is read
        opts = "starts" in args
        self.cfg = OracleConfig(args.starts, args.seed) if opts else None
        self.A = load_tensor(args.path)

    agg = functools.cached_property(lambda self: row_aggregates(self.A))
    sets = functools.cached_property(lambda self: build_sets(self.agg))
    bounds = functools.cached_property(lambda self: bound_report(self.agg))
    nonnegative = functools.cached_property(lambda self: is_nonnegative(self.A))
    wsc = functools.cached_property(lambda self: weak_symmetry_check(self.A))
    pairs = functools.cached_property(lambda self: solve(self.A, self.cfg))


def _info_section(run: _Run) -> dict:
    return {
        "order": run.A.order,
        "dim": run.A.dim,
        "entry_count": run.A.dim**run.A.order,
        "nonnegative": run.nonnegative,
        "symmetric": run.wsc.symmetric,
        "weakly_symmetric": {
            "verdict": run.wsc.ok,
            "tol": run.wsc.tol,
            "max_residual": run.wsc.max_residual,
            "threshold": run.wsc.threshold,
        },
    }


def _sets_section(run: _Run) -> list:
    out = []
    for name in SET_NAMES:
        rep = run.sets[name]
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


def _bounds_section(run: _Run) -> dict:
    out = {}
    for name in BOUND_NAMES:  # value, i, and the witnesses j and family where present
        out[name] = {k: v for k, v in vars(getattr(run.bounds, name)).items() if v is not None}
    out["nonnegative"] = run.nonnegative
    out["weakly_symmetric"] = run.wsc.ok
    return out


def _eigen_section(run: _Run) -> list:
    return [
        {
            "value": p.value,
            "vector": list(map(float, p.vector)),
            "residual": p.residual,
            "source": p.source,
        }
        for p in run.pairs
    ]


def _corrupted(reports):
    # test hook: shrink every set so containment checks must fail
    out = {}
    for name, rep in reports.items():
        halved = IntervalSet((lo * 0.5, hi * 0.5) for lo, hi in rep.set.intervals)
        out[name] = SetReport(name, halved, rep.per_index, rep.families)
    return out


def _verification_section(run: _Run) -> dict:
    chain = inclusion_chain_check(run.sets)
    checked = _corrupted(run.sets) if run.args.corrupt_sets else run.sets
    # the bounds hold for the spectral radius of nonnegative weakly symmetric tensors only
    applies = run.nonnegative and run.wsc.ok
    ver = verify_inclusion(run.pairs, checked, run.bounds if applies else None)
    return {
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
    }


_SECTIONS = {
    "info": _info_section,
    "sets": _sets_section,
    "bounds": _bounds_section,
    "eigenpairs": _eigen_section,
    "verification": _verification_section,
}


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


def _text_eigen(doc) -> str:
    pairs = doc["eigenpairs"]
    if not pairs:
        return "no Z-eigenpairs found"
    lines = [f"{'lambda':>10} {'residual':>10} {'source':<7} eigenvector"]
    for p in pairs:
        vec = "[" + ", ".join(_fmt(v) for v in p["vector"]) + "]"
        lines.append(f"{_fmt(p['value']):>10} {p['residual']:>10.2e} {p['source']:<7} {vec}")
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


def _run(args) -> int:
    """Build the command's document, print it in the chosen format, and
    return 1 when its verification failed."""
    run = _Run(args)
    sections = args.sections
    if args.format == "svg":  # the eigenvalue marks, from the oracle at its defaults
        sections += ("eigenpairs",)
    meta = {"command": args.command, "input": args.path, "version": __version__}
    doc = {"meta": meta, **{name: _SECTIONS[name](run) for name in sections}}
    if args.format == "structured":
        print(render_json(doc))
    elif args.format == "plot-data":
        sys.stdout.write(render_plot_data(doc["sets"]))
    elif args.format == "svg":
        sys.stdout.write(render_svg(doc["sets"], [p["value"] for p in doc["eigenpairs"]]))
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
    sub.add_argument("--seed", type=int, default=42, help="seed of the restarts, at least 0")


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
    sub.set_defaults(sections=("info",), text=_text_info)

    sub = subs.add_parser("sets", help="localization sets K, L, Psi, Omega")
    _add_common(sub, ("text", "structured", "plot-data", "svg"))
    sub.set_defaults(sections=("sets",), text=_text_sets)

    sub = subs.add_parser("bounds", help="spectral-radius upper bounds")
    _add_common(sub, ("text", "structured"))
    sub.set_defaults(sections=("bounds",), text=_text_bounds)

    sub = subs.add_parser("zeig", help="Z-eigenpairs from the desk-scale oracle")
    _add_common(sub, ("text", "structured"))
    _add_oracle_opts(sub)
    sub.set_defaults(sections=("eigenpairs",), text=_text_eigen)

    sub = subs.add_parser("verify", help="check eigenvalues against sets and bounds")
    _add_common(sub, ("text", "structured"))
    _add_oracle_opts(sub)
    sub.add_argument("--corrupt-sets", action="store_true", help=argparse.SUPPRESS)
    sub.set_defaults(sections=tuple(_SECTIONS), text=_text_verification)
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
