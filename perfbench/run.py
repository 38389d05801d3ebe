"""Closed-loop benchmark of the inclusion-forge pipeline.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, so nothing needs installing.  One process, one client:
the next op starts when the previous one returns.  The process is pinned to
one CPU and BLAS/OpenMP threads to one.  The seed picks the inputs; the
program only receives the generated config documents (and target batches).
Each timed phase runs whole passes over the workload's inputs, as many as fit
``--seconds`` best, so every run measures the same mix.

``--trace 0`` measures the end-to-end metrics with no instrumentation.  Times
are corrected for the CPU's speed: a fixed calibration kernel runs between
ops (outside the op timings), and each latency is scaled to the speed at
which the kernel takes ``CAL_REF_S``.  Small shared machines switch between
speeds ~1.45x apart for seconds to minutes at a time, which uncorrected
run-to-run figures cannot tell from a change in the program.  ``ops_per_s``
is ops per second of corrected op time.  The raw figures are printed and
recorded next to the corrected ones.

``--trace 1`` runs half the time untraced, then half with every public layer
function wrapped (see ``tracer.py``), and reports per-layer self times and
counts per op, plus ``trace.overhead_frac`` from the two op rates.

After the timed phase every op's output is checked against a reference
solved at N = M = 128 (``reference.py``).  A run of another seed than the
default also runs the default seed's inputs once each against the stored
references, so no run checks the program only against itself.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (library
versions, machine, input hash, failure fraction, tail percentile, raw times,
absent trace names) goes to ``.bench_out/``.
"""

from __future__ import annotations

import os

PINNED_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

NPROC = len(os.sched_getaffinity(0))  # before pin_to_one_cpu narrows it
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
# Time of calibrate() at the machine's full speed (2-vCPU Xeon, BASELINE.md).
CAL_REF_S = 1.75e-4

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("contour_digits", "digits"),
)

# name, unit; per op unless the unit says otherwise (see layer_metrics)
PER_LAYER = (
    ("cli.parse_config.self_s", "s/op"),
    ("cli.parse_config.calls", "1/op"),
    ("cli.emit.self_s", "s/op"),
    ("cli.emit.bytes", "B/op"),
    ("model.validate.self_s", "s/op"),
    ("solvability.period_matrix.self_s", "s/op"),
    ("solvability.solve.self_s", "s/op"),
    ("solvability.cross_check.self_s", "s/op"),
    ("solvability.residuals.self_s", "s/op"),
    ("solvability.weighted_moment.calls", "1/op"),
    ("solvability.cond", "ratio"),
    ("solvability.residual_rel", "ratio"),
    ("branch.weight_factor.calls", "1/op"),
    ("branch.abs_q.calls", "1/op"),
    ("branch.eval_q.points", "1/op"),
    ("quadrature.cauchy_off.self_s", "s/op"),
    ("quadrature.cauchy_off.calls", "1/op"),
    ("quadrature.cauchy_off.points", "1/op"),
    ("quadrature.cauchy_off.terms", "1/op"),
    ("quadrature.cauchy_off.peak_alloc_mb", "MB"),
    ("quadrature.singular_on.self_s", "s/op"),
    ("quadrature.singular_on.calls", "1/op"),
    ("quadrature.series_from_samples.calls", "1/op"),
    ("mapper.SlitMap.build_s", "s/op"),
    ("mapper.omega_boundary.self_s", "s/op"),
    ("mapper.omega_boundary.calls", "1/op"),
    ("mapper.F_boundary.self_s", "s/op"),
    ("mapper.g1.self_s", "s/op"),
    ("mapper.omega_interior.self_s", "s/op"),
    ("mapper.F_interior.self_s", "s/op"),
    ("geometry.build_profiles.self_s", "s/op"),
    ("geometry.self_intersects.self_s", "s/op"),
    ("geometry.disjoint.self_s", "s/op"),
    ("geometry.vertices", "1/op"),
    ("geometry.peak_alloc_mb", "MB"),
    ("pipeline.solve.s", "s/op"),
    ("pipeline.solve.self_s", "s/op"),
    ("pipeline.verdict.VALID", "1/op"),
    ("pipeline.verdict.INVALID-UNBOUNDED", "1/op"),
    ("pipeline.verdict.INVALID-GEOMETRY", "1/op"),
) + tuple((f"{layer}.errors", "count") for layer in LAYERS) + (
    ("trace.overhead_frac", "ratio"),
    ("trace.absent", "count"),
)


class Unavailable(Exception):
    """The checkout does not hold the package sources."""


def import_package():
    """Import inclusion_forge from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module("inclusion_forge")
    except ImportError as exc:
        raise Unavailable(f"cannot import inclusion_forge from {src}: {exc}") from exc
    if src not in Path(pkg.__file__).resolve().parents:
        raise Unavailable(f"inclusion_forge resolved outside {src}: {pkg.__file__}")
    for mod in ("cli", "pipeline", "mapper", "figures"):
        importlib.import_module(f"inclusion_forge.{mod}")
    return pkg


def run_record(seed: int | None, digest: str) -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "nproc": NPROC,
        "cpu": cpu,
        "pinned_threads": PINNED_THREADS,
        "seed": seed,
        "inputs_sha256": digest,
    }


# -- machine speed --------------------------------------------------------------------

_CAL_A = np.random.default_rng(0).random((64, 64))


def calibrate() -> float:
    """Best of five runs of a fixed kernel: small BLAS products plus a Python loop.

    The kernel is independent of the package.  Its time tracks the speed the
    CPU currently runs at, which on small shared machines switches between
    states ~1.45x apart for seconds at a time; dividing an op's latency by the
    kernel time measured around it removes that from the figures.
    """
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(10):
            _CAL_A @ _CAL_A
        total = 0
        for i in range(3000):
            total += i
        best = min(best, time.perf_counter() - t0)
    return best


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, where the kernel runs too."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# -- set-up -------------------------------------------------------------------------


def set_up(workload: str, seed: int, outdir: Path):
    """Load, generate (timed apart), prepare and warm up; return what was built.

    Returns ``(pkg, inputs, runner, generate_s)``.  ``generate_s`` is the
    benchmark-side input generation, which set-up time excludes.
    """
    pkg = import_package()
    bundled = workloads.load_bundled(pkg)
    t0 = time.perf_counter()
    inputs = workloads.generate(workload, seed, bundled)
    generate_s = time.perf_counter() - t0
    outdir.mkdir(parents=True, exist_ok=True)
    runner = workloads.Runner(pkg, inputs, outdir)
    runner.prepare()
    runner.op(inputs.keys[0])
    return pkg, inputs, runner, generate_s


def setup_probe(workload: str, seed: int) -> int:
    """Child process: set up, report the excluded generation time, exit."""
    outdir = OUT / f"emit-{os.getpid()}"
    try:
        _, _, _, generate_s = set_up(workload, seed, outdir)
        print(f"ready {generate_s!r}", flush=True)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to the first timed op, in fresh child processes.

    Returns the raw times and the speed factors (kernel time around each
    probe over CAL_REF_S) to divide them by.
    """
    times, speeds = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
        cal = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if code != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(t1 - t0 - float(line.split()[1]))
        speeds.append(0.5 * (cal + calibrate()) / CAL_REF_S)
    return times, speeds


# -- timed phase ----------------------------------------------------------------------


def _kept(out, compared):
    """What the check needs of an op's output; interior batches keep only the
    compared targets, so memory stays flat however many ops run."""
    if isinstance(out, workloads.InteriorOutput):
        return out.take(compared)
    return out


class Phase:
    """Whole passes over the inputs, as many as come closest to ``seconds``.

    A phase stops after the pass that brings it within half a pass of
    ``seconds``, so every phase measures the same mix of inputs.  After each op
    the calibration kernel runs; ``speeds[i]`` is the mean kernel time before
    and after op i over CAL_REF_S.
    """

    def __init__(self, runner, inputs, rng, seconds: float, tracer: Tracer | None = None):
        self.latencies: list[float] = []
        self.speeds: list[float] = []
        self.outputs: list[tuple[str, object]] = []
        self._cal = calibrate()
        self._compared = {k: reference.compared(z) for k, z in inputs.targets.items()}
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            self._pass(runner, inputs, rng, tracer)
            now = time.perf_counter()
            if now - start + 0.5 * (now - t0) >= seconds:
                break
        self.wall_s = time.perf_counter() - start

    def _pass(self, runner, inputs, rng, tracer) -> None:
        for key in workloads.cycle_order(inputs, rng):
            if tracer is not None:
                tracer.op_id = len(self.outputs)
            t0 = time.perf_counter()
            try:
                out = runner.op(key)
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            self.latencies.append(time.perf_counter() - t0)
            cal = calibrate()
            self.speeds.append(0.5 * (self._cal + cal) / CAL_REF_S)
            self._cal = cal
            self.outputs.append((key, _kept(out, self._compared.get(key))))

    @property
    def corrected(self) -> np.ndarray:
        """Op latencies at the reference speed."""
        return np.asarray(self.latencies) / np.asarray(self.speeds)

    @property
    def ops_per_s(self) -> float:
        """Ops per second of op time at the reference speed."""
        return len(self.latencies) / float(self.corrected.sum())


# -- checks -----------------------------------------------------------------------------


def _files_ok(out: workloads.SolveOutput, n_extra: int) -> bool:
    csv, svg = out.files
    rows = csv.read_text().splitlines()
    if rows[0] != "slit_index,bank,xi,re_z,im_z":
        return False
    got: dict[int, list[complex]] = {}
    for row in rows[1:]:
        idx, _bank, _xi, re_z, im_z = row.split(",")
        got.setdefault(int(idx), []).append(complex(float(re_z), float(im_z)))
    if len(got) != len(out.contours):
        return False
    if not all(np.array_equal(np.asarray(pts), c) for pts, c in zip(got.values(), out.contours)):
        return False
    text = svg.read_text()
    return (
        text.startswith("<svg") and text.endswith("</svg>\n")
        and text.count("<polyline") == len(out.contours) + n_extra
    )


def check(inputs, outputs, refs) -> tuple[list[bool], float, list[str]]:
    """Per-op pass flags, the worst op's digits, and failure notes."""
    ok, notes = [], []
    worst = math.inf
    last = {}
    for i, (key, out) in enumerate(outputs):
        ref = refs[key]
        if isinstance(out, Exception):
            ok.append(False)
            notes.append(f"{key}: {type(out).__name__}: {out}")
            continue
        if isinstance(out, workloads.InteriorOutput):
            dev, counted = reference.interior_deviation(out, ref)
            good = True
        else:
            dev = counted = reference.solve_deviation(out.contours, ref)
            expected = inputs.expected.get(key, ref["verdict"])
            good = out.verdict == expected
            if not good:
                notes.append(f"{key}: verdict {out.verdict}, expected {expected}")
            last[key] = i
        if not dev <= reference.TOL:
            good = False
            notes.append(f"{key}: deviation {dev:.3e} from the reference")
        if counted is not None:
            worst = min(worst, reference.digits(counted))
        ok.append(good)
    for key, i in last.items():
        if ok[i] and not _files_ok(outputs[i][1], int(key in inputs.overlay)):
            ok[i] = False
            notes.append(f"{key}: emitted CSV/SVG do not match the result")
    return ok, (worst if math.isfinite(worst) else 0.0), notes


# -- per-layer metrics ----------------------------------------------------------------------


def layer_metrics(tracer: Tracer, ops: int, pkg) -> dict[str, float]:
    per_op = {}
    for group in {e.group for e in tracer.entries}:
        per_op[f"{group}.self_s"] = tracer.self_s.get(group, 0.0) / ops
        per_op[f"{group}.calls"] = tracer.calls.get(group, 0) / ops
    for key, v in tracer.work.items():
        per_op[key] = v / ops
    per_op["mapper.SlitMap.build_s"] = tracer.total_s.get("mapper.SlitMap.build", 0.0) / ops
    per_op["pipeline.solve.s"] = tracer.total_s.get("pipeline.solve", 0.0) / ops
    system_matrix = getattr(pkg.solvability, "system_matrix", None)
    if system_matrix is None:
        tracer.absent.append("inclusion_forge.solvability.system_matrix")
    periods = tracer.kept.get("solvability.period_matrix", []) if system_matrix else []
    per_op["solvability.cond"] = max(
        (float(np.linalg.cond(system_matrix(p))) for p in periods), default=0.0
    )
    diags = tracer.kept.get("pipeline.solve", [])
    # overridden constants (fig2d) are unbounded by design; leave them out
    per_op["solvability.residual_rel"] = max(
        (max(d.boundedness.get("a_relative", 0.0), d.boundedness.get("rho_relative", 0.0))
         for d in diags if d.verdict != "INVALID-UNBOUNDED"),
        default=0.0,
    )
    for verdict in ("VALID", "INVALID-UNBOUNDED", "INVALID-GEOMETRY"):
        per_op[f"pipeline.verdict.{verdict}"] = sum(d.verdict == verdict for d in diags) / ops
    for layer in LAYERS:
        per_op[f"{layer}.errors"] = tracer.errors.get(layer, 0)
    per_op["trace.absent"] = len(tracer.absent)
    return per_op


# -- one workload -----------------------------------------------------------------------------


def _untraced(workload: str, seed: int, seconds: float, runner, inputs, rng):
    setups, setup_speeds = measure_setup(workload, seed)
    phase = Phase(runner, inputs, rng, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = phase.corrected
    values = {
        "ops_per_s": phase.ops_per_s,
        "op_p50_s": float(np.median(lat)),
        "op_tail_s": float(np.percentile(lat, workloads.TAIL_PERCENTILE[workload])),
        "setup_s": statistics.median(t / f for t, f in zip(setups, setup_speeds)),
        "peak_rss_mb": rss_mb,
    }
    raw = np.asarray(phase.latencies)
    extra = {
        "samples": len(lat),
        "samples_beyond_tail": int(np.sum(lat > values["op_tail_s"])),
        "speed_factor_median": float(np.median(phase.speeds)),
        "raw": {
            "ops_per_s": len(raw) / phase.wall_s,
            "op_p50_s": float(np.median(raw)),
            "op_tail_s": float(np.percentile(raw, workloads.TAIL_PERCENTILE[workload])),
            "setup_s": statistics.median(setups),
        },
        "wall_s": phase.wall_s,
        "setup_speed_factors": setup_speeds,
    }
    return phase.outputs, values, extra


def _traced(workload: str, seed: int, seconds: float, runner, inputs, rng, pkg):
    """Half the time untraced, half traced, then one op under tracemalloc."""
    plain = Phase(runner, inputs, rng, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        phase = Phase(runner, inputs, rng, seconds / 2, tracer)
        values = layer_metrics(tracer, len(phase.latencies), pkg)
        spans = OUT / f"{workload}-seed{seed}-spans.csv"
        tracer.write_spans(spans)
        tracer.reset()
        tracer.alloc_pass = True
        tracemalloc.start()
        try:
            key = inputs.keys[-1]  # the largest input of each workload
            compared = reference.compared(inputs.targets[key]) if key in inputs.targets else None
            alloc = [(key, _kept(runner.op(key), compared))]
        finally:
            tracemalloc.stop()
    finally:
        tracer.uninstall()
    for name in ("quadrature.cauchy_off.peak_alloc_mb", "geometry.peak_alloc_mb"):
        values[name] = tracer.peak_alloc.get(name, 0) / 2**20
    values["trace.overhead_frac"] = 1.0 - phase.ops_per_s / plain.ops_per_s
    extra = {"absent": tracer.absent, "spans_file": str(spans.relative_to(ROOT)),
             "untraced_ops_per_s": plain.ops_per_s, "traced_ops_per_s": phase.ops_per_s}
    return plain.outputs + phase.outputs + alloc, values, extra


def anchor(pkg, inputs, outdir: Path) -> tuple[list[bool], list[str]]:
    """Run the default seed's inputs once each against the stored references.

    Other seeds' references are solved by the code under test, so their check
    only compares it with itself at N = M = 128.  These ops, run outside the
    timed phase, hold every run to the stored outputs as well.  Nothing is run
    when the inputs do not depend on the seed: then the store serves them.
    """
    default = workloads.generate(inputs.workload, workloads.DEFAULT_SEED,
                                 workloads.load_bundled(pkg))
    if default.digest() == inputs.digest():
        return [], []
    store = reference.load_store()
    refs = {key: store[reference.input_key(doc, default.targets.get(key))]
            for key, doc in default.docs.items()}
    runner = workloads.Runner(pkg, default, outdir)
    runner.prepare()
    outputs = []
    for key in default.keys:
        compared = reference.compared(default.targets[key]) if key in default.targets else None
        try:
            outputs.append((key, _kept(runner.op(key), compared)))
        except Exception as exc:  # a failed op is counted, not fatal
            outputs.append((key, exc))
    ok, _, notes = check(default, outputs, refs)
    return ok, [f"seed {workloads.DEFAULT_SEED} {note}" for note in notes]


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    started = time.perf_counter()
    outdir = OUT / f"emit-{os.getpid()}"
    try:
        pkg, inputs, runner, generate_s = set_up(workload, seed, outdir)
        own_setup_s = time.perf_counter() - started - generate_s
        rng = np.random.default_rng([seed, 1 + workloads.NAMES.index(workload)])
        if traced:
            outputs, values, extra = _traced(workload, seed, seconds, runner, inputs, rng, pkg)
        else:
            outputs, values, extra = _untraced(workload, seed, seconds, runner, inputs, rng)
        refs = reference.references(pkg, inputs, OUT / "references")
        ok, values["contour_digits"], notes = check(inputs, outputs, refs)
        anchor_ok, anchor_notes = anchor(pkg, inputs, outdir)
        ok += anchor_ok
        notes += anchor_notes
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    attempted, failed = len(ok), ok.count(False)
    names = PER_LAYER if traced else END_TO_END
    extra.update(own_setup_s=own_setup_s, fail_frac=failed / attempted, failures=notes[:20])
    return {
        "workload": workload,
        "record": run_record(seed, inputs.digest()),
        "extra": extra,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in names
            },
        },
        "elapsed_s": time.perf_counter() - started,
    }


def report(run: dict, traced: bool) -> None:
    """Human-readable lines; the caller prints the JSON result last."""
    res, extra = run["result"], run["extra"]
    print(f"workload {run['workload']}: {json.dumps(run['record'])}")
    print(f"  ops attempted {res['attempted']}, failed {res['failed']}, "
          f"fail_frac {extra['fail_frac']:.4g} (1)")
    for note in extra["failures"]:
        print(f"  FAIL {note}")
    if not traced:
        print(f"  op_tail_s is percentile {workloads.TAIL_PERCENTILE[run['workload']]:g}: "
              f"{extra['samples_beyond_tail']} "
              f"of {extra['samples']} samples beyond it")
        print(f"  calibration kernel took {extra['speed_factor_median']:.3f}x its reference "
              f"time (median); raw, uncorrected: "
              + ", ".join(f"{k} {v:.6g}" for k, v in extra["raw"].items()))
    elif extra["absent"]:
        print(f"  absent: {', '.join(extra['absent'])}")
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")


def write_record(run: dict, traced: bool) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{run['workload']}-seed{run['record']['seed']}-trace{int(traced)}.json"
    path.write_text(json.dumps(run, indent=2) + "\n")


def run_all(args) -> int:
    """Every workload in its own process; one table and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def make_reference() -> int:
    """Write the stored references of the default seed for every workload."""
    pkg = import_package()
    bundled = workloads.load_bundled(pkg)
    refs = {}
    for workload in workloads.NAMES:
        inputs = workloads.generate(workload, workloads.DEFAULT_SEED, bundled)
        for key in inputs.keys:
            ref = reference.compute(pkg, inputs, key)
            expected = inputs.expected.get(key)
            if expected is not None and ref["verdict"] != expected:
                raise SystemExit(f"{workload}/{key}: reference verdict {ref['verdict']} "
                                 f"differs from the registry's {expected}")
            refs[reference.input_key(inputs.docs[key], inputs.targets.get(key))] = ref
    reference.save_store(refs)
    print(f"wrote {len(refs)} references to {reference.STORE.relative_to(ROOT)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--make-reference", action="store_true",
                        help="rewrite the stored references of the default seed")
    args = parser.parse_args(argv)
    try:
        if args.make_reference:
            return make_reference()
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        if args.workload == "all":
            return run_all(args)
        pin_to_one_cpu()
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Unavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_record(run, bool(args.trace))
    report(run, bool(args.trace))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
