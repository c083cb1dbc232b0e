"""abduce benchmark: seeded workloads, checked streams, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload waodag-kbest --seed 1 --seconds 25 --trace 0

One caller issues queries back to back (a closed loop) for ``--seconds``;
the query running when that time is up may finish within a further
``--seconds``, after which it counts as failed.  Every stream is then
checked against an independent reference (perfbench/reference.py), outside
the timed region.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced runs of each query and prints the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object; the line before it is the environment and noise record, which is
also written with the spans under .perfbench-out/.
"""

import os

# One BLAS thread: the LPs are at most a few hundred rows, where a thread
# pool only adds start-up cost and noise.  Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import compileall  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3


class Overrun(BaseException):
    """Raised by the alarm in a query still running past the grace period.

    A BaseException, so that no handler inside the program swallows it.
    """


def _alarm(signum, frame):
    raise Overrun()


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float,
                 root: Path, out: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.out = out
        self.cli = workload == "cli-small"
        self.child_env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.queries = []

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """Median over repetitions of: import abduce.cli in a fresh
        interpreter, generate and write this seed's models, and warm up."""
        import abduce.cli  # noqa: F401
        reps = []
        for _ in range(SETUP_REPS):
            t = time.perf_counter()
            self._cli(["-c", "import abduce.cli"], t + 60)
            self.queries = workloads.build(self.workload, self.seed, self.root,
                                           self.out / "models")
            if not self.cli:
                self._warm_up()
            reps.append(time.perf_counter() - t)
        self.setup_reps = reps
        return statistics.median(reps)

    def _warm_up(self):
        """Fixed bundled-model queries, the same for every seed."""
        models = self.root / "src" / "abduce" / "models"
        tony = workloads.Instance("waodag", str(models / "tony.waodag.json"), {})
        fig = workloads.Instance("bn", str(models / "fig41.bn.json"), {},
                                 {"C": "true"})
        workloads.run_inprocess(workloads.Query(tony, "all", None))
        workloads.run_inprocess(workloads.Query(fig, "permissible", None))

    # -- one query --------------------------------------------------------------

    def _inprocess(self, q, hard: float, rec=None, qid: int = -1):
        """(seconds, records, error) for one library query."""
        signal.setitimer(signal.ITIMER_REAL, max(hard - time.perf_counter(), 1e-3))
        records, err = None, None
        t = time.perf_counter()
        try:
            if rec is None:
                records = workloads.run_inprocess(q)
            else:
                rec.query = qid
                spans.install(rec)
                try:
                    with rec.span("query"):
                        records = workloads.run_inprocess(q)
                finally:
                    rec.unpatch()
        except Overrun:
            err = "unfinished when the time budget ran out"
        except Exception as exc:  # any program failure fails the query
            err = f"{type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0)
        return dt, records, err

    def _cli(self, argv, hard: float):
        """(seconds, stdout, error) for one process."""
        t = time.perf_counter()
        try:
            p = subprocess.run([sys.executable, *argv], cwd=self.root,
                               env=self.child_env, capture_output=True,
                               text=True, timeout=max(hard - t, 1e-3))
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t, None, \
                "unfinished when the time budget ran out"
        dt = time.perf_counter() - t
        if p.returncode != 0:
            return dt, None, f"exit {p.returncode}: {p.stderr.strip()[-300:]}"
        return dt, p.stdout, None

    def _cli_query(self, q, hard: float, traced_qid=None):
        if traced_qid is None:
            argv = ["-c", workloads.BOOTSTRAP, *q.argv]
        else:
            spans_file = self.out / "cli-spans" / f"q{traced_qid}.jsonl"
            argv = [str(HERE / "cli_child.py"), str(spans_file), str(traced_qid),
                    *q.argv]
        dt, stdout, err = self._cli(argv, hard)
        records = None
        if err is None:
            try:
                records = [json.loads(line) for line in stdout.splitlines()
                           if line.strip()]
            except ValueError as exc:
                err = f"output is not JSON lines: {exc}"
        return dt, records, err

    def peak_rss_mb(self) -> float:
        who = resource.RUSAGE_CHILDREN if self.cli else resource.RUSAGE_SELF
        return resource.getrusage(who).ru_maxrss / 1024.0

    # -- the closed loop --------------------------------------------------------

    def loop(self, trace: bool):
        """Run queries back to back for the budget.

        Returns samples (query, seconds, records, error, traced) and, when
        tracing, the recorder and the interpreter start-up times.
        """
        rec = spans.Recorder() if trace else None
        interp = []
        if trace and self.cli:
            (self.out / "cli-spans").mkdir()
        samples = []
        start = time.perf_counter()
        end = start + self.seconds
        hard = end + self.seconds
        i = 0
        while time.perf_counter() < end:
            q = self.queries[i % len(self.queries)]
            order = [False] if not trace else ([False, True] if i % 2 == 0
                                               else [True, False])
            for traced in order:
                qid = len(samples)
                if self.cli:
                    dt, records, err = self._cli_query(
                        q, hard, qid if traced else None)
                else:
                    dt, records, err = self._inprocess(
                        q, hard, rec if traced else None, qid)
                samples.append((q, dt, records, err, traced))
            if trace and self.cli:
                interp.append(self._cli(["-c", "pass"], hard)[0])
            i += 1
        return samples, rec, interp

    # -- checking ---------------------------------------------------------------

    def verify(self, samples):
        """Error text per sample (None when right), outside the timed region."""
        refs, systems, errors = {}, {}, []
        for q, _, records, err, _ in samples:
            if err is None:
                try:
                    key = reference.reference_key(q)
                    if key not in refs:
                        refs[key] = reference.reference_for(q)
                        systems[key] = _original_system(q)
                    err = reference.check(q, records, refs[key], systems[key])
                except Exception as exc:  # a malformed stream fails the query
                    err = f"check raised {type(exc).__name__}: {exc}"
                if err is not None:
                    err = f"{q.label}: {err}"
            errors.append(err)
        return errors


def _original_system(q):
    from abduce import constraints, model_io
    if q.inst.kind == "waodag":
        return constraints.encode_waodag(
            model_io.parse_waodag_file(q.inst.path)).system
    enc = constraints.encode_bayesnet(model_io.parse_bayesnet_file(q.inst.path))
    return constraints.apply_evidence(enc, q.inst.evidence).system


def _percentile(values, p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload, samples, errors, setup_s, peak_rss_mb):
    ok = [(dt, len(records)) for (_, dt, records, _, _), err
          in zip(samples, errors) if err is None]
    times = [dt for dt, _ in ok]
    per_rank = [dt / n for dt, n in ok if n]
    return {
        "query_s.p50": (statistics.median(times), "s"),
        "query_s.tail": (_percentile(times, workloads.TAIL_PERCENTILE[workload]), "s"),
        "rank_s.p50": (statistics.median(per_rank), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(samples, errors, rec, interp, out: Path, peak_rss_mb):
    plain = [dt for (_, dt, _, _, tr), err in zip(samples, errors)
             if err is None and not tr]
    ok = {qid for qid, ((_, _, _, _, tr), err) in enumerate(zip(samples, errors))
          if err is None and tr}
    traced = [samples[qid][1] for qid in sorted(ok)]
    totals = {}
    if rec is not None:
        rec.dump(out / "spans.jsonl")
        spans.aggregate(rec.rows(), ok, totals)
    for f in sorted(out.glob("cli-spans/*.jsonl")):
        spans.aggregate(spans.load(f), ok, totals)
    qsum = sum(traced)

    def get(key):
        return totals.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    solves = get("simplex.solve.calls")
    ranks = get("search.ranks")
    seconds = {
        "cli.interp_s": sum(interp),
        "cli.import_s": get("cli.import.s"),
        "cli.command_s": get("cli.command.s"),
        "model_io.parse_s": get("model_io.parse.s"),
        "constraints.encode_s": get("constraints.encode.s"),
        "constraints.check_s": get("constraints.check.s"),
        "simplex.solve_s": get("simplex.solve.s"),
        "simplex.self_s": get("simplex.solve.self_s") + get("simplex.build.self_s"),
        "simplex.build_s": get("simplex.build.s"),
        "linalg.factor_s": get("linalg.factor.s"),
        "linalg.solve_s": get("linalg.solve.s"),
        "search.self_s": get("search.self_s"),
        "bayes.probability_s": get("bayes.probability.s"),
    }
    m = {}
    for name, value in seconds.items():
        m[name] = (value, "s")
        m[name[:-2] + "_share"] = (ratio(value, qsum), "ratio")
    p_plain = statistics.median(plain) if plain else 0.0
    p_traced = statistics.median(traced) if traced else 0.0
    m.update({
        "constraints.check_calls": (get("constraints.check.calls"), "count"),
        "simplex.solve_calls": (solves, "count"),
        "simplex.warm_share": (ratio(get("simplex.solve.warm"), solves), "ratio"),
        "simplex.infeasible_share": (ratio(get("simplex.solve.infeasible"), solves), "ratio"),
        "linalg.factor_calls": (get("linalg.factor.calls"), "count"),
        "linalg.factor_per_solve": (ratio(get("linalg.factor.calls"), solves), "count"),
        "linalg.solve_calls": (get("linalg.solve.calls"), "count"),
        "search.ranks": (ranks, "count"),
        "search.lp_per_rank": (ratio(solves, ranks), "count"),
        "trace.queries": (len(traced), "count"),
        "trace.query_s": (qsum, "s"),
        "trace.peak_rss_mb": (peak_rss_mb, "MB"),
        "trace.overhead_s": (p_traced - p_plain, "s"),
        "trace.overhead_share": (ratio(p_traced - p_plain, p_plain), "ratio"),
    })
    return m


def environment():
    import numpy
    import scipy

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "blas_threads": int(BLAS_THREADS),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.POOL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "abduce" / "__init__.py").is_file():
        print(f"error: no src/abduce under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    load_start = os.getloadavg()
    # the build step: byte-compile once, so no run pays for it in set-up
    compileall.compile_dir(str(src), quiet=1)
    out = root / ".perfbench-out" / \
        f"{args.workload}-{args.seed}-{'trace' if args.trace else 'plain'}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "models").mkdir(parents=True)
    signal.signal(signal.SIGALRM, _alarm)

    bench = Bench(args.workload, args.seed, args.seconds, root, out)
    setup_s = bench.setup()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    samples, rec, interp = bench.loop(bool(args.trace))
    cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
    peak = bench.peak_rss_mb()
    errors = bench.verify(samples)
    failed = sum(err is not None for err in errors)
    if failed == len(samples):
        print(f"error: every query failed; first: {errors[0]}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(samples, errors, rec, interp, out, peak)
    else:
        metrics = end_to_end(args.workload, samples, errors, setup_s, peak)

    env = environment()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, setup_reps_s=bench.setup_reps,
               loop_wall_s=wall_s, loop_cpu_s=cpu_s,
               load_start=load_start, load_end=os.getloadavg(),
               failed_ratio=failed / len(samples),
               errors=[e for e in errors if e][:5])
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {name:28s} {value:14.6g} {unit}")
    print(f"{args.workload:13s} {'failed_ratio':28s} {failed / len(samples):14.6g} ratio")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(out / "samples.jsonl", "w", encoding="utf-8") as fh:
        for (q, dt, records, _, traced), err in zip(samples, errors):
            fh.write(json.dumps({"query": q.label, "seconds": dt,
                                 "ranks": len(records or ()), "traced": traced,
                                 "error": err}) + "\n")
    (out / "result.json").write_text(
        json.dumps({"env": env, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
