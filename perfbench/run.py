"""earpipe benchmark: run one workload as fresh `earpipe` processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from a source checkout; the program is imported from ./src. The
seed builds the workload's input files (see fixtures.py). One waiting
caller runs one command at a time, back to back, at least MIN_REPS
times and otherwise only while the next command should end within S
seconds; each command gets one BLAS thread. Every command's reports are
checked; a failed check counts the command as failed and the run goes
on.

--trace 0 times each command from outside and prints the end-to-end
metrics. --trace 1 alternates untraced and traced commands and prints
the per-layer metrics from the traced ones. The last stdout line is
one JSON object: correct, attempted, failed, metrics. --smoke uses tiny
inputs, for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("berger_long", "cardiac_capture")
MIN_REPS = 3
SETUP_PER_COMMAND = 2  # `earpipe --version` launches before each workload command
MAX_MEASURE_S = 120.0  # start no further command after this long
# On a 2-vCPU shared host a second BLAS thread saved about 5% of wall
# time, cost about 35% more CPU and made runs depend on what else the
# host ran; one thread leaves the other CPU to the caller and the host.
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def declared_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


@dataclass
class Proc:
    argv: list
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stderr: str
    problems: list = field(default_factory=list)


class Runner:
    """Starts earpipe processes one at a time and waits for each."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def run(self, argv: list, spans: Path | None = None) -> Proc:
        self.count += 1
        log = self.work / f"proc{self.count}.err"
        pre = ["--spans", str(spans)] if spans else []
        with open(log, "w") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(
                [sys.executable, str(HERE / "entry.py"), *pre, *argv],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            try:
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()
                p.wait()
                raise
            wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            argv=argv,
            rc=p.returncode,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stderr=log.read_text()[-400:],
        )


class Verifier:
    """Checks the first command's reports and holds every later one to
    the same bytes (acceptance 11), except run_meta.json."""

    def __init__(self, fx):
        self.fx = fx
        self.hashes = None
        self.problems: list = []
        self.quality: dict = {}

    def verify(self, proc: Proc, out: Path) -> None:
        import checks

        if proc.rc != 0:
            proc.problems.append(f"exit code {proc.rc}: {proc.stderr.strip()}")
        elif not out.is_dir():
            proc.problems.append("no output directory")
        elif self.hashes is None:
            self.hashes = checks.report_hashes(out)
            self.problems, self.quality = checks.check(self.fx, out)
            proc.problems.extend(self.problems)
        else:
            if checks.report_hashes(out) != self.hashes:
                proc.problems.append("reports differ from the first command's")
            proc.problems.extend(self.problems)
        shutil.rmtree(out, ignore_errors=True)


def _loop(seconds: float, min_reps: int):
    """Yield rep numbers: min_reps of them, then more while the next rep,
    taken to last as long as the slowest so far, ends within `seconds`."""
    t0 = time.perf_counter()
    rep, longest = 0, 0.0
    while True:
        elapsed = time.perf_counter() - t0
        if rep >= min_reps and elapsed + longest > seconds:
            return
        if rep and elapsed > MAX_MEASURE_S:
            return
        yield rep
        longest = max(longest, time.perf_counter() - t0 - elapsed)
        rep += 1


def measure(fx, runner: Runner, seconds: float, min_reps: int):
    """Time workload commands, with set-up launches spread between them."""
    verifier = Verifier(fx)
    setup, reps = [], []
    for rep in _loop(seconds, min_reps):
        for _ in range(SETUP_PER_COMMAND):
            p = runner.run(["--version"])
            if p.rc != 0:
                p.problems.append(f"exit code {p.rc}: {p.stderr.strip()}")
            setup.append(p)
        out = runner.work / f"out{rep}"
        proc = runner.run(fx.command(out))
        verifier.verify(proc, out)
        reps.append(proc)
    med = statistics.median
    metrics = {
        "wall_s": med(p.wall for p in reps),
        "cpu_s": med(p.cpu for p in reps),
        "peak_rss_mb": med(p.rss_mb for p in reps),
        "setup_s": med(p.wall for p in setup),
    }
    return setup + reps, metrics, verifier.quality, None


def trace(fx, runner: Runner, seconds: float, min_pairs: int):
    """Pairs of untraced and traced commands; at least min_pairs of them."""
    import checks
    from layers import Spans, layer_metrics

    verifier = Verifier(fx)
    plain, traced, per_rep, tables = [], [], [], []
    for rep in _loop(seconds, min_pairs):
        out = runner.work / f"plain{rep}"
        proc = runner.run(fx.command(out))
        verifier.verify(proc, out)
        plain.append(proc)

        out = runner.work / f"traced{rep}"
        spans_file = runner.work / f"spans{rep}.json"
        proc = runner.run(fx.command(out), spans=spans_file)
        verifier.verify(proc, out)
        traced.append(proc)
        if spans_file.exists():
            sp = Spans(json.loads(spans_file.read_text())["spans"])
            per_rep.append(layer_metrics(sp))
            tables.append(sp.self_times())
    per_rep = per_rep or [layer_metrics(Spans([]))]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    for name, layer in checks.QUALITY.items():
        metrics[f"{layer}.{name}"] = verifier.quality.get(name, 0.0)
    metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
        p.wall for p in plain
    )
    return plain + traced, metrics, verifier.quality, tables[0] if tables else None


def _blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        so = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(so, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": nproc(),
    }


def _show(name: str, value: float, unit: str) -> str:
    return f"{name:<38} {value:>14.6g} {unit}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one command")
    args = ap.parse_args(argv)

    if not (SRC / "earpipe" / "__init__.py").is_file():
        print(f"error: no earpipe source tree at {SRC / 'earpipe'}", file=sys.stderr)
        return 2
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    import earpipe

    if Path(earpipe.__file__).resolve().parent != (SRC / "earpipe").resolve():
        print(f"error: imported earpipe from {earpipe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import fixtures

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        fx = fixtures.BUILDERS[args.workload](args.seed, work / "in", smoke=args.smoke)
        build_s = time.perf_counter() - t0
        runner = Runner(work)
        min_reps = 1 if args.smoke else MIN_REPS
        if args.trace:
            procs, metrics, quality, table = trace(fx, runner, args.seconds, min(min_reps, 2))
        else:
            procs, metrics, quality, table = measure(fx, runner, args.seconds, min_reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    failed = [p for p in procs if p.problems]
    units = declared_units()

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: {len(procs)} earpipe processes")
    print(f"# command: earpipe {' '.join(fx.command('OUT')).replace(str(work) + '/', '')}")
    print(f"# input {fx.input_bytes / 1e6:.1f} MB built in {build_s:.1f} s")
    print("# env " + json.dumps(environment(), sort_keys=True))
    for name, value in metrics.items():
        print(_show(name, value, units[name]))
    commands = [p for p in procs if p.argv != ["--version"]]
    print(f"# wall_s of the {len(commands)} workload commands: {' '.join(f'{p.wall:.3f}' for p in commands)}")
    if not args.trace:
        for name, value in quality.items():
            print(_show(name, value, units[f"{checks.QUALITY[name]}.{name}"]))
    print(_show("ops_failed", len(failed) / len(procs), "ratio"))
    if table:
        print("# span                                   calls        total_s         self_s")
        for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            print(f"# {name:<36} {calls:>7} {total:>14.4f} {own:>14.4f}")
    for p in failed:
        print(f"# failed: earpipe {p.argv[0]}: {'; '.join(p.problems)}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(procs),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
