"""restorect benchmark: three closed-loop workloads driven through the
user-facing entry point `restorect.cli.main`.

    python3 perfbench/run.py --workload {distill,samplers,selfcheck}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout that holds `src/restorect`. One process
issues one command at a time until the next command would overrun
`--seconds` of command time (a warm-up and at least two
timed commands always run). Every command's outputs are checked; a wrong
output counts as a failed operation.

Every run starts with an untimed warm-up command. A speed probe
(speed_probe.py) times a small fixed kernel every 50 ms on the other CPU
throughout the run; each timing is divided by the probe's slowdown over the
same interval, so that the host's speed drift does not swamp the program's
own cost (see SpeedProbe).

--trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
metrics: after the warm-up it alternates commands with a span around every
call into the package's public functions and untraced ones, which are the
baseline for the tracing overhead, at least two of each.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
Full results and the spans of the last traced command go to .perfbench_out/.
METRICS.md describes each metric and the layer -> metric -> workload map.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS before numpy loads: the paper's claim is one CPU core, and one
# thread keeps the numbers a measure of the program, not of a co-tenant.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("RESTORECT_SEED", None)  # inputs come from --seed only

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
import bench_verify  # noqa: E402

perf = time.perf_counter

# The workload seed picks one of these program seeds; reference.json holds
# the expected outputs for each, so every run's outputs can be checked.
PROGRAM_SEEDS = tuple(range(42, 58))
# Run lengths; the shapes stay at the ExperimentConfig defaults.
DISTILL_CONFIG = {"phase1_iters": 25, "phase2_iters": 25}
SAMPLER_CONFIG = {"phase1_iters": 20, "ddim_iters": 150}
SAMPLER_STEPS = (1, 2, 3, 4, 5)
IMPORT_REPEATS = 5  # fresh interpreters timed per run for the import share of setup_s
PREP_REPEATS = 5  # phase-1 checkpoint preparations per samplers run
# Child process of one preparation: runs the command given in its arguments
# and prints the seconds of the cli.main call as its last line.
PREP_CHILD = """
import contextlib, io, sys, time
import restorect.cli
buf = io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stdout(buf):
    code = restorect.cli.main(sys.argv[1:])
seconds = time.perf_counter() - t0
print(buf.getvalue())
print(seconds)
sys.exit(code)
"""
# Every run has an untimed warm-up and at least two timed commands. A traced
# run has at least two traced and two untraced ones, so the exact counts and
# the overhead compare two each.
MIN_RUN_COMMANDS = 3
MIN_TRACED_RUN_COMMANDS = 5
EXACT_COUNTS = (
    "autodiff.nodes_built", "autodiff.nodes_backwarded", "autodiff.frozen_grad_elems",
    "distill_harness.adam_elems", "distill_harness.featureset_builds",
    "rectflow.euler_sample_calls.train", "rectflow.euler_sample_calls.probe",
    "ndtensor.frechet_calls", "flexloss.gate_open_calls",
    "ndtensor.bytes_written", "ndtensor.bytes_read",
)
# About the median time of one speed_probe.py kernel on the baseline machine
# (perfbench/baseline/NOTES.md). It only sets the scale of the timings.
PROBE_REF_S = 0.0033
MIN_PROBE_SAMPLES = 5


class SpeedProbe:
    """speed_probe.py in a child process on a CPU of its own; this process
    keeps the other. slowdown(a, b) is the probe's median sample between
    perf() times a and b, divided by PROBE_REF_S."""

    def __init__(self):
        cpus = sorted(os.sched_getaffinity(0))
        argv = [sys.executable, str(HERE / "speed_probe.py")]
        if len(cpus) >= 2:
            os.sched_setaffinity(0, {cpus[0]})
            argv.append(str(cpus[1]))
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        self.samples = []
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("speed probe did not start")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        lines = out.strip().splitlines()
        self.samples = sorted(json.loads(lines[-1])) if lines else []

    def slowdown(self, a: float, b: float) -> float:
        lo = bisect.bisect_left(self.samples, [a])
        hi = bisect.bisect_left(self.samples, [b])
        if hi - lo < MIN_PROBE_SAMPLES:  # too short: widen to the nearest samples
            lo = max(0, min(lo, hi - MIN_PROBE_SAMPLES))
            hi = min(len(self.samples), lo + MIN_PROBE_SAMPLES)
        if hi <= lo:
            raise RuntimeError("speed probe recorded no samples")
        return statistics.median(d for _, d in self.samples[lo:hi]) / PROBE_REF_S


E2E_UNITS = {"setup_s": "s", "command_s": "s", "stage1_ms": "ms", "stage2_ms": "ms",
             "peak_rss_mb": "MB"}


def program_seed(seed: int) -> int:
    return PROGRAM_SEEDS[seed % len(PROGRAM_SEEDS)]


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if "bytes" in name:
        return "B"
    if "frac" in name or "coverage" in name:
        return "frac"
    return "count"


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


# -- workloads ----------------------------------------------------------------------


class Workload:
    """One closed-loop workload: a command repeated with the same inputs."""

    name = ""
    stages = ("", "")  # stage keys of bench_trace.Tracer.stage_time

    def __init__(self, ctx):
        self.ctx = ctx
        self.out = ctx.work / "out"
        self.out.mkdir(parents=True, exist_ok=True)

    def prepare(self) -> list:
        """Set-up beyond imports; returns the seconds of each repetition."""
        return []

    def argv(self) -> list:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        raise NotImplementedError

    def check(self, stdout: str):
        """(attempted, failed, problems) for the command just run."""
        raise NotImplementedError

    def named(self, tracer, wall) -> dict:
        """Per-workload named end-to-end values of one command (see METRICS.md)."""
        raise NotImplementedError

    def report_metrics(self) -> dict:
        """Per-layer metrics the program's own outputs carry (traced runs)."""
        return {}

    def write_config(self, overrides: dict) -> str:
        path = self.ctx.work / "config.json"
        path.write_text(json.dumps({"seed": self.ctx.pseed, **overrides}))
        return str(path)


class Distill(Workload):
    name = "distill"
    stages = ("phase1", "phase2")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.config_path = self.write_config(DISTILL_CONFIG)
        self.config = ctx.dh.load_config(self.config_path)

    def argv(self):
        return ["distill", "--config", self.config_path, "--out", str(self.out)]

    def clear_outputs(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self, stdout):
        problems, values = bench_verify.distill_outputs(str(self.out), self.config, self.ctx.dh)
        ref = self.ctx.reference["distill"].get(str(self.ctx.pseed))
        problems += bench_verify.compare_reference("distill", values, ref)
        return 1, int(bool(problems)), problems

    def named(self, tracer, wall):
        return {
            "distill_s": wall,
            "phase1_ms_per_iter": 1000.0 * tracer.stage_time["phase1"] / self.config.phase1_iters,
            "phase2_ms_per_iter": 1000.0 * tracer.stage_time["phase2"] / self.config.phase2_iters,
        }

    def report_metrics(self):
        """train_phase2 counts its gate-open iterations itself; summary.json
        carries them as a fraction of phase2_iters."""
        with open(self.out / "summary.json", encoding="utf-8") as fh:
            fraction = json.load(fh)["gate_fraction"]
        return {"flexloss.gate_open_calls": round(fraction * self.config.phase2_iters)}


class Samplers(Workload):
    name = "samplers"
    stages = ("ddim_train", "sampler_table")

    def __init__(self, ctx):
        super().__init__(ctx)
        self.config_path = self.write_config(SAMPLER_CONFIG)
        self.config = ctx.dh.load_config(self.config_path)

    def prepare(self):
        """Phase-1 checkpoints for compare-samplers to load, written by a short
        `restorect train-phase1` (repeated; each run overwrites the last). Each
        runs in a child process, so that peak_rss_mb covers only the timed
        commands; the child times its own cli.main call."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        argv = ["train-phase1", "--config", self.config_path, "--out", str(self.out)]
        seconds = []
        for _ in range(PREP_REPEATS):
            proc = subprocess.run([sys.executable, "-c", PREP_CHILD, *argv], env=env, cwd=ROOT,
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"train-phase1 set-up exited {proc.returncode}: "
                                   f"{proc.stdout}{proc.stderr}")
            seconds.append(float(proc.stdout.strip().splitlines()[-1]))
        return seconds

    def argv(self):
        return ["compare-samplers", "--steps", ",".join(map(str, SAMPLER_STEPS)),
                "--config", self.config_path, "--out", str(self.out)]

    def clear_outputs(self):
        for name in ("samplers.csv", "samplers_timing.csv"):
            (self.out / name).unlink(missing_ok=True)

    def check(self, stdout):
        problems = []
        if "loaded phase-1 checkpoints" not in stdout:
            problems.append("compare-samplers did not load the prepared checkpoints")
        more, values = bench_verify.sampler_outputs(str(self.out), SAMPLER_STEPS)
        problems += more
        ref = self.ctx.reference["samplers"].get(str(self.ctx.pseed))
        problems += bench_verify.compare_reference("samplers", values, ref)
        return 1, int(bool(problems)), problems

    def named(self, tracer, wall):
        _, rows = bench_verify.read_csv(self.out / "samplers_timing.csv")
        per_nfe = {}
        for kind in ("rf", "ddim"):
            mine = [r for r in rows if r[0] == kind]
            per_nfe[kind] = sum(float(r[-1]) for r in mine) / max(sum(int(r[1]) for r in mine), 1)
        return {
            "samplers_s": wall,
            "ddim_ms_per_iter": 1000.0 * tracer.stage_time["ddim_train"] / self.config.ddim_iters,
            "sampler_table_s": tracer.stage_time["sampler_table"],
            "rf_ms_per_nfe": per_nfe["rf"],
            "ddim_ms_per_nfe": per_nfe["ddim"],
        }


class Selfcheck(Workload):
    """`restorect check`: the checks use fixed internal seeds, so the
    workload seed does not reach them."""

    name = "selfcheck"
    stages = ("small_checks", "model_checks")

    def argv(self):
        return ["check", "--out", str(self.out)]

    def clear_outputs(self):
        (self.out / "check_report.json").unlink(missing_ok=True)

    def check(self, stdout):
        total = self.ctx.reference["selfcheck"]["total"]
        try:
            return bench_verify.check_report(self.out / "check_report.json", total)
        except (OSError, ValueError) as exc:
            return total, total, [f"check report unreadable: {exc}"]

    def named(self, tracer, wall):
        return {"selfcheck_s": wall,
                "small_checks_ms": 1000.0 * tracer.stage_time["small_checks"],
                "model_checks_ms": 1000.0 * tracer.stage_time["model_checks"]}

    def report_metrics(self) -> dict:
        with open(self.out / "check_report.json", encoding="utf-8") as fh:
            checks = json.load(fh)["checks"]
        return {"checks.fd_ms": sum(c["ms"] for c in checks if c["name"].startswith("fd_")),
                "checks.inv_ms": sum(c["ms"] for c in checks if not c["name"].startswith("fd_")),
                "checks.count": len(checks)}


WORKLOADS = {w.name: w for w in (Distill, Samplers, Selfcheck)}


# -- environment --------------------------------------------------------------------


def blas_threads_in_use():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def environment(args, pseed) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        vendor = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": args.workload,
        "workload_seed": args.seed,
        "program_seed": None if args.workload == "selfcheck" else pseed,
        "seed_note": ("restorect check uses fixed internal seeds; the workload seed "
                      "does not reach it") if args.workload == "selfcheck" else "",
    }


# -- running ------------------------------------------------------------------------


class Context:
    def __init__(self, args):
        self.pseed = program_seed(args.seed)
        self.work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.pkg = {name: importlib.import_module(f"restorect.{name}") for name in (
            "autodiff", "aniso_diffusion", "checks", "cli", "distill_harness", "flexloss",
            "hvi_color", "ndtensor", "nn_blocks", "rectflow")}
        self.cli = self.pkg["cli"]
        self.dh = self.pkg["distill_harness"]


def import_restorect():
    if not (SRC / "restorect" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no restorect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import restorect

    if Path(restorect.__file__).resolve().parent != (SRC / "restorect").resolve():
        raise SystemExit(f"perfbench: imported restorect from {restorect.__file__}, not {SRC}")


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf()
    subprocess.run([sys.executable, "-c", "import restorect.cli"], env=env, cwd=ROOT,
                   check=True)
    return perf() - t0


def run_command(ctx, wl, tracer) -> dict:
    wl.clear_outputs()
    gc.collect()
    tracer.reset()
    buf = io.StringIO()
    error = None
    t0 = perf()
    try:
        with contextlib.redirect_stdout(buf):
            code = ctx.cli.main(wl.argv())
        if code != 0:
            error = f"exit code {code}"
    except SystemExit as exc:
        error = f"exit {exc.code}"
    except Exception:  # a crashing command is a failed operation
        error = traceback.format_exc()
    wall = perf() - t0
    rec = {"wall": wall, "preamble": (tracer.first_stage_at or t0 + wall) - t0,
           "stage1_ms": 1000.0 * tracer.stage_time[wl.stages[0]],
           "stage2_ms": 1000.0 * tracer.stage_time[wl.stages[1]]}
    if error is None:
        try:
            rec["attempted"], rec["failed"], rec["problems"] = wl.check(buf.getvalue())
        except (OSError, ValueError, KeyError, IndexError) as exc:
            rec["attempted"], rec["failed"], rec["problems"] = 1, 1, [f"unreadable output: {exc}"]
    else:
        attempted = ctx.reference["selfcheck"]["total"] if wl.name == "selfcheck" else 1
        rec["attempted"], rec["failed"], rec["problems"] = attempted, attempted, [error]
    if not rec["problems"]:
        rec["named"] = wl.named(tracer, wall)
    return rec


def run(args) -> dict:
    import_restorect()
    ctx = Context(args)
    tracer = bench_trace.Tracer(ctx.pkg)
    probe = None
    try:
        wl = WORKLOADS[args.workload](ctx)
        tracer.install(full=False)
        probe = SpeedProbe()
        t_setup = perf()
        imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
        prep = wl.prepare()
        setup_span = (t_setup, perf())
        rss_before = max_rss_mb()
        records, traced, spent = [], [], 0.0
        while True:
            # records[0] is the untimed warm-up; traced runs then alternate
            # traced and untraced commands, so the overhead estimate does
            # not carry drift
            trace_this = args.trace and len(records) % 2 == 1
            if trace_this:
                tracer.install(full=True)
            t0 = perf()
            rec = run_command(ctx, wl, tracer)
            rec["span"] = (t0, perf())
            spent += rec["span"][1] - t0
            if trace_this:
                rec["layers"] = tracer.layer_metrics()
                rec["coverage"] = [tracer.coverage(s) for s in wl.stages]
                if not rec["problems"]:
                    rec["layers"].update(wl.report_metrics())
                traced.append(rec)
                tracer.keep_spans()
                tracer.install(full=False)
            records.append(rec)
            step = spent / len(records)
            if spent + step > args.seconds and len(records) >= (
                    MIN_TRACED_RUN_COMMANDS if args.trace else MIN_RUN_COMMANDS):
                break
    finally:
        if probe is not None:
            probe.stop()
        tracer.uninstall()
        shutil.rmtree(ctx.work, ignore_errors=True)
    for rec in records:
        rec["slowdown"] = probe.slowdown(*rec["span"])
    setup_slowdown = probe.slowdown(*setup_span)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    result = summarize(args, ctx, wl, records, traced, imports, prep, setup_slowdown)
    result["rss_before_commands_mb"] = rss_before
    return result


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(args, ctx, wl, records, traced, imports, prep, setup_slowdown) -> dict:
    """Each timing is divided by the probe's slowdown over the same interval,
    so it reads as at reference speed."""
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = [p for r in records for p in r["problems"]]
    ok = [r for r in records if not r["problems"]]
    # named timings come from the untraced commands after the warm-up
    timed = [r for r in records[1:] if "layers" not in r and not r["problems"]]
    named = {}
    for r in timed:
        for k, v in r["named"].items():
            named.setdefault(k, []).append(v / r["slowdown"])
    setup = {"imports_s": median(imports) / setup_slowdown,
             "preamble_s": median([r["preamble"] / r["slowdown"] for r in records]),
             "prep_s": median(prep) / setup_slowdown}
    metrics = {}
    if not args.trace:
        metrics = {
            "setup_s": sum(setup.values()),
            "command_s": median([r["wall"] / r["slowdown"] for r in timed]),
            "stage1_ms": median([r["stage1_ms"] / r["slowdown"] for r in timed]),
            "stage2_ms": median([r["stage2_ms"] / r["slowdown"] for r in timed]),
            "peak_rss_mb": max_rss_mb(),
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
    else:
        good = [r for r in traced if not r["problems"]]
        layers = {}
        for name in bench_trace.layer_metric_names():
            # median_low keeps a measured value, so counts stay whole numbers
            vals = [r["layers"].get(name, 0) for r in good]
            if layer_unit(name) == "ms":
                vals = [v / r["slowdown"] for v, r in zip(vals, good)]
            layers[name] = statistics.median_low(vals) if vals else 0
        for key in EXACT_COUNTS:
            seen = {r["layers"].get(key, 0) for r in good}
            if len(seen) > 1:
                problems.append(f"count {key} differs between traced commands: {sorted(seen)}")
                failed += 1
        for i, stage in enumerate(("stage1", "stage2")):
            untraced = median([r[f"{stage}_ms"] / r["slowdown"] for r in timed])
            traced_ms = median([r[f"{stage}_ms"] / r["slowdown"] for r in good])
            layers[f"trace.coverage.{stage}"] = median([r["coverage"][i] for r in good])
            layers[f"trace.overhead_frac.{stage}"] = (traced_ms / untraced - 1.0) if untraced else 0.0
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    return {
        "correct": failed == 0 and bool(ok), "attempted": attempted, "failed": failed,
        "metrics": metrics, "problems": problems, "setup": setup,
        "commands": len(records), "traced_commands": len(traced),
        "slowdown": [r["slowdown"] for r in records], "setup_slowdown": setup_slowdown,
        "raw_command_s": [r["wall"] for r in records],
        "named": {k: {"median": median(v), "tail": tail(v), "n": len(v)} for k, v in named.items()},
        "env": environment(args, ctx.pseed),
    }


def print_report(args, result) -> None:
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['commands']} commands, {result['attempted']} operations attempted, "
          f"{result['failed']} failed")
    s = result["setup"]
    print(f"  setup: imports {s['imports_s']:.4f} s + command preamble {s['preamble_s']:.4f} s"
          f" + checkpoint prep {s['prep_s']:.4f} s")
    units = {"_s": "s", "_ms_per_iter": "ms", "_per_nfe": "ms", "_checks_ms": "ms"}
    for name, stat in result["named"].items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        t = stat["tail"]
        tail_text = f"p{t[0]:.0f} {t[1]:.4f}" if t else f"tail n/a (n={stat['n']} < 11)"
        print(f"  {name:22s} median {stat['median']:.4f} {unit}  {tail_text}  n={stat['n']}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for p in result["problems"]:
        print(f"  FAILED: {p}", file=sys.stderr)
    print("  env: " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except bench_trace.MissingWrappedName as exc:
        print(f"perfbench: aborting, wrapped function missing: {exc}", file=sys.stderr)
        return 3
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print_report(args, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
