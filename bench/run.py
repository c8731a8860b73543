"""Benchmark of the zeigloc pipeline: parse -> sets -> bounds -> oracle -> verify.

Run from the root of a checkout (zeigloc is imported from ``src/``):

    python3 bench/run.py --workload circle-n2 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, one process each
    python3 bench/run.py --self-test                  # the checks reject bad output

One operation takes one tensor file through the workload's CLI commands,
called in-process as ``zeigloc.cli.main([..., "--format", "structured"])``.
A run repeats whole rounds of its panel for about ``--seconds`` and checks
every document against references computed without zeigloc.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` untraced and traced rounds alternate and it reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import panels
import reference
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ set-up


def fresh_import():
    """Import zeigloc from this checkout, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "zeigloc" or k.startswith("zeigloc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("zeigloc")
    importlib.import_module("zeigloc.cli")
    if Path(package.__file__).resolve().parent != SRC / "zeigloc":
        raise RuntimeError(f"imported zeigloc from {package.__file__}, not from {SRC}")
    return package


def setup(workload: str, seed: int, work: Path):
    """Generate the panel files and import zeigloc, SETUP_REPEATS times;
    set-up time is the median."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cases = panels.build(workload, seed)
        paths = panels.write(cases, work)
        package = fresh_import()
        times.append(perf_counter() - t0)
    return cases, paths, package, statistics.median(times)


# --------------------------------------------------------------- operations


def run_operation(cli, workload: str, path: Path):
    """Wall time of the workload's commands on one file, and their outputs
    as (exit code, stdout, stderr).  An exception escaping the CLI counts as
    exit code -1 with its traceback on stderr."""
    outputs = []
    t0 = perf_counter()
    for command in panels.commands(workload):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([arg.format(path=path) for arg in command])
            except Exception:  # an operation that crashes is a failed operation
                code = -1
                traceback.print_exc()
        outputs.append((code, out.getvalue(), err.getvalue()))
    return perf_counter() - t0, outputs


def check_operation(case: panels.Case, workload: str, outputs) -> tuple[list[str], int]:
    """Problems found in the outputs, and the number of eigenpairs reported."""
    problems = [f"exit {code}: {err.strip()[-300:]}" for code, _, err in outputs if code != 0]
    if problems:
        return problems, 0
    try:
        docs = [json.loads(out) for _, out, _ in outputs]
        if workload == "dense-bounds":
            problems += reference.check_bounds(
                case.arr, docs[0]["bounds"], case.nonnegative, case.symmetric
            )
            problems += reference.check_sets(case.arr, docs[1]["sets"])
            return problems, 0
        return check_verify_document(case, docs[0]), len(docs[0]["eigenpairs"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return problems + [f"malformed document: {exc!r}"], 0


def check_verify_document(case: panels.Case, doc: dict) -> list[str]:
    arr = case.arr
    info = doc["info"]
    problems = []
    if info["symmetric"] != case.symmetric or info["nonnegative"] != case.nonnegative:
        problems.append(f"info flags {info['symmetric']=}, {info['nonnegative']=}")
    problems += reference.check_pairs(arr, doc["eigenpairs"])
    problems += reference.check_sets(arr, doc["sets"])
    problems += reference.check_bounds(arr, doc["bounds"], case.nonnegative, case.symmetric)
    problems += reference.check_verification(doc, case.nonnegative, case.symmetric)
    if case.dim == 2:
        problems += reference.check_n2_roots(arr, doc["eigenpairs"])
    return problems


# ------------------------------------------------------------- measurement


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    correct: bool = True  # false once an operation other than the known fault fails
    op_times: list = field(default_factory=list)  # untraced operations, seconds
    untraced_walls: list = field(default_factory=list)  # per round, seconds in cli.main
    traced_walls: list = field(default_factory=list)
    layer_rounds: list = field(default_factory=list)  # per traced round, Tracer.take_round()
    pairs_rounds: list = field(default_factory=list)  # eigenpairs reported per round
    reported: set = field(default_factory=set)

    def record(self, case: panels.Case, problems: list[str]):
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        self.correct &= case.known_fault
        if case.name not in self.reported:
            self.reported.add(case.name)
            label = "known fault" if case.known_fault else "FAILED"
            print(f"{label} {case.name}: {'; '.join(problems)[:600]}", file=sys.stderr)


def measure(package, workload, cases, paths, seconds, tracer=None) -> Measurement:
    """Whole rounds until the next one would end after ``seconds``.  With a
    tracer, untraced and traced rounds alternate (at least one of each)."""
    run = Measurement()
    start = perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        wall, pairs = 0.0, 0
        try:
            for case, path in zip(cases, paths):
                if traced:
                    tracer.operation = f"{rounds}:{case.name}"
                dt, outputs = run_operation(package.cli, workload, path)
                wall += dt
                if not traced:
                    run.op_times.append(dt)
                problems, found = check_operation(case, workload, outputs)
                run.record(case, problems)
                pairs += found
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            run.traced_walls.append(wall)
            run.layer_rounds.append(tracer.take_round())
        else:
            run.untraced_walls.append(wall)
        run.pairs_rounds.append(pairs)
        print(f"round {rounds}{' traced' if traced else ''}: {wall:.3f} s", file=sys.stderr)
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= (2 if tracer else 1) and elapsed * (rounds + 1) / rounds > seconds:
            break
    return run


def end_to_end(setup_s: float, run: Measurement) -> dict[str, float]:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "tensors_per_s": len(run.op_times) / sum(run.op_times),
        "tensor_s_p50": statistics.median(run.op_times),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def per_layer(run: Measurement) -> dict[str, float]:
    rounds = run.layer_rounds
    out = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    out["eigenpairs_found"] = statistics.median(run.pairs_rounds)
    walls = statistics.median(run.traced_walls) - statistics.median(run.untraced_walls)
    out["trace.overhead_s"] = walls
    return out


def run_workload(args, spec) -> dict:
    out_dir = ROOT / ".bench_out"
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        cases, paths, package, setup_s = setup(args.workload, args.seed, work)
        tracer = Tracer(package) if args.trace else None
        origin = perf_counter()
        run = measure(package, args.workload, cases, paths, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", origin)
        values, wanted = per_layer(run), spec["per_layer"]
    else:
        values, wanted = end_to_end(setup_s, run), spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    for name, entry in metrics.items():
        print(f"{args.workload:<14} {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process; one summary table, then the results."""
    results = {}
    for workload in panels.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
        r = results[workload]
        print(f"{workload:<14} attempted {r['attempted']} failed {r['failed']} correct {r['correct']}")
    print(json.dumps(results))
    return 0


# ---------------------------------------------------------------- self-test


def self_test() -> int:
    """Show that the checks reject a corrupted and a truncated document, and
    accept the untouched ones."""
    rng = np.random.default_rng(0)
    cases = [
        panels.Case("selftest-m3-n3", panels.symmetric_nonnegative(rng, 3, 3), True),
        panels.Case("selftest-m4-n2", panels.symmetric_nonnegative(rng, 4, 2), True),
    ]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    try:
        paths = panels.write(cases, work)
        cli = fresh_import().cli
        docs = []
        for path, extra in ((paths[0], []), (paths[0], ["--corrupt-sets"]), (paths[1], [])):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                cli.main(["verify", str(path), "--format", "structured", *extra])
            docs.append(json.loads(out.getvalue()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    truncated = json.loads(json.dumps(docs[2]))
    del truncated["eigenpairs"][0]
    del truncated["verification"]["rows"][0]
    trials = [
        ("untouched n=3 document accepted", cases[0], docs[0], False),
        ("verify --corrupt-sets document rejected", cases[0], docs[1], True),
        ("untouched n=2 document accepted", cases[1], docs[2], False),
        ("n=2 document with one eigenpair removed rejected", cases[1], truncated, True),
    ]
    ok = True
    for label, case, doc, should_reject in trials:
        problems = check_verify_document(case, doc)
        passed = bool(problems) == should_reject
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {label}" + (f": {problems[0]}" if problems else ""))
    return 0 if ok else 1


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*panels.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "zeigloc" / "__init__.py").is_file():
        print(f"bench: no zeigloc sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args, load_spec())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
