"""sympkit benchmark: seeded workloads of real sympkit invocations.

    python3 benchmarks/run.py --workload {census,families,exact} \
        --seed N [--seconds S] [--trace 0|1]

Run from the root of a sympkit checkout; sympkit is imported from ./src.
Every task runs in a fresh interpreter, as a command-line user pays for it,
and every task's exit code, `results` and `assertions` are checked against
the references in references.py.

--trace 0 prints the end-to-end metrics: wall_s, task_p50_s, task_tail_s,
peak_rss_mb and setup_s, plus fail_ratio on its own line.  --trace 1 runs
each task once untraced and once traced, then the kernel probes, and prints
the per-layer metrics.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.

The task list is fixed work; --seconds is the length one run is sized to
(see README.md) and bounds it: a task still running 6 x --seconds after the
run started, capped at 150 s, is killed and counts as failed, and tasks that
could not start count as failed too.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import references  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".bench_out"
SETUP_RUNS = 9
MAX_RUN_S = 150.0
TAIL_BEYOND = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "SYMPKIT_THREADS")


class Outcome:
    __slots__ = ("task", "code", "latency", "rss_mb", "problems", "trace")

    def __init__(self, task, code, latency, rss_mb, problems, trace=None):
        self.task = task
        self.code = code
        self.latency = latency
        self.rss_mb = rss_mb
        self.problems = problems
        self.trace = trace


def _kill(pid):
    # signal the pid directly: Popen.kill would poll, and could reap the
    # child before os.wait4 collects its resource usage
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Launches children from the checkout root and waits for each."""

    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        # tasks without --threads run single-threaded, whatever the caller set
        self.env.pop("SYMPKIT_THREADS", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])

    def launch(self, argv, stdout_path):
        """Run argv to completion; (exit code, launch stamp, exit stamp,
        peak RSS in MiB).  A child still running at the deadline is killed."""
        with open(stdout_path, "wb") as out, \
                open(stdout_path + ".err", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    cwd=self.root, env=self.env)
            timer = threading.Timer(max(0.0, self.deadline - t0), _kill,
                                    (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, t0, t1, usage.ru_maxrss / 1024.0

    def child(self, trace, kind, args):
        return [sys.executable, os.path.join(HERE, "child.py"), trace, kind] \
            + list(args)

    def setup_time(self):
        "Launch to `import sympkit` done in a fresh interpreter, in seconds."
        path = os.path.join(OUT_DIR, "setup.out")
        code, t0, _, _ = self.launch(self.child("-", "import", []), path)
        with open(path) as fh:
            text = fh.read().strip()
        if code != 0:
            raise RuntimeError("`import sympkit` failed (exit %d)" % code)
        return float(text) - t0

    def run_task(self, idx, task, traced):
        tag = "%d%s" % (idx, "t" if traced else "")
        out_path = os.path.join(OUT_DIR, "task-%s.out" % tag)
        trace_path = os.path.join(OUT_DIR, "trace-%s.json" % tag)
        if time.monotonic() >= self.deadline:
            return Outcome(task, None, 0.0, 0.0, ["not started: run deadline"])
        code, t0, t1, rss = self.launch(
            self.child(trace_path if traced else "-", task.kind, task.args),
            out_path)
        with open(out_path) as fh:
            text = fh.read()
        try:
            report = json.loads(text)
        except ValueError:
            report = None
        csv_text = None
        if task.csv is not None and os.path.exists(task.csv):
            with open(task.csv) as fh:
                csv_text = fh.read()
        problems = references.check(task.kind, task.args, code, report,
                                    csv_text)
        trace = None
        if traced:
            try:
                with open(trace_path) as fh:
                    trace = json.load(fh)
                trace["import_s"] = trace["import_done"] - t0
            except (OSError, ValueError):
                problems.append("no span file")
        return Outcome(task, code, t1 - t0, rss, problems, trace)


def tail(latencies):
    """(value, percentile, count beyond): the latency at the highest
    percentile with at least TAIL_BEYOND tasks beyond it."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def _git_sha(root):
    "HEAD of the checkout, or 'unknown' when it is not a git repository."
    # the ceiling keeps git from taking up a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _version(dist):
    from importlib import metadata
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def _sympkit_version(root):
    import tomllib
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        return tomllib.load(fh)["project"]["version"]


def environment(root, args, tasks):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympkit": _sympkit_version(root),
        "git_sha": _git_sha(root),
        "thread_vars": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "task_threads": [t.threads for t in tasks],
    }


def _report_failures(outcomes):
    for k, o in enumerate(outcomes):
        if o.problems:
            print("FAILED task %d (%s): %s"
                  % (k, o.task.label(), "; ".join(o.problems[:5])))


def end_to_end(runner, tasks):
    """Untraced run: the task list back to back, with SETUP_RUNS import-only
    children spread evenly between the tasks for setup_s.  Their time is not
    part of wall_s."""
    runner.setup_time()  # warm-up: compiles bytecode, fills the page cache
    sample_at = {len(tasks) * k // SETUP_RUNS for k in range(SETUP_RUNS)}
    samples, sampling_s, outcomes = [], 0.0, []
    start = time.monotonic()
    for k, task in enumerate(tasks):
        if k in sample_at:
            t0 = time.monotonic()
            samples.append(runner.setup_time())
            sampling_s += time.monotonic() - t0
        outcomes.append(runner.run_task(k, task, False))
    wall = time.monotonic() - start - sampling_s
    _report_failures(outcomes)
    for k, o in enumerate(outcomes):
        print("task %2d %6.3f s %6.1f MiB  %s" % (k, o.latency, o.rss_mb,
                                                 o.task.label()))
    failed, metrics = summarize(outcomes, wall, statistics.median(samples))
    return len(outcomes), failed, metrics


def summarize(outcomes, wall, setup):
    "(failed task count, end-to-end metrics), with a readable line for each."
    lat = [o.latency for o in outcomes if o.code is not None]
    failed = sum(bool(o.problems) for o in outcomes)
    p50 = statistics.median(lat) if lat else 0.0
    tail_val, pct, beyond = tail(lat) if lat else (0.0, 0.0, 0)
    rss = max((o.rss_mb for o in outcomes), default=0.0)
    print("wall_s: %.3f s (%d tasks, closed loop, one client)"
          % (wall, len(outcomes)))
    print("task_p50_s: %.3f s (n=%d)" % (p50, len(lat)))
    print("task_tail_s: %.3f s (p%.0f, %d tasks beyond, n=%d)"
          % (tail_val, pct, beyond, len(lat)))
    print("peak_rss_mb: %.1f MiB (largest task child)" % rss)
    print("setup_s: %.4f s (median of %d fresh `import sympkit`, spread "
          "over the run)" % (setup, SETUP_RUNS))
    print("fail_ratio: %.4f (%d of %d tasks)"
          % (failed / len(outcomes), failed, len(outcomes)))
    return failed, {
        "wall_s": {"value": wall, "unit": "s"},
        "task_p50_s": {"value": p50, "unit": "s"},
        "task_tail_s": {"value": tail_val, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
        "setup_s": {"value": setup, "unit": "s"},
    }


def traced(runner, tasks, seed):
    """Each task untraced then traced, interleaved so drift hits both alike;
    then the kernel probes in one more child."""
    runner.setup_time()  # warm-up, as in the untraced run
    outcomes = []
    untraced_s = traced_s = import_s = 0.0
    totals = layers.Totals()
    for k, task in enumerate(tasks):
        plain = runner.run_task(k, task, False)
        spanned = runner.run_task(k, task, True)
        outcomes += [plain, spanned]
        untraced_s += plain.latency
        traced_s += spanned.latency
        if spanned.trace is not None:
            import_s += spanned.trace["import_s"]
            covered = totals.add(spanned.trace["spans"])
            print("task %2d traced %6.3f s, untraced %6.3f s, spans %6d, "
                  "uncovered %6.3f s  %s"
                  % (k, spanned.latency, plain.latency,
                     len(spanned.trace["spans"]),
                     spanned.latency - spanned.trace["import_s"] - covered,
                     task.label()))
    probe_path = os.path.join(OUT_DIR, "probes.out")
    code, _, _, _ = runner.launch(runner.child("-", "probes", [str(seed)]),
                                  probe_path)
    with open(probe_path) as fh:
        probe_text = fh.read()
    if code != 0:
        raise RuntimeError("probe child failed (exit %d)" % code)
    probes = json.loads(probe_text)
    for name, p in probes.items():
        print("probe %s: %.4g %s on %s" % (name, p["value"], p["unit"],
                                            p["size"]))
    _report_failures(outcomes)
    failed = sum(bool(o.problems) for o in outcomes)
    metrics = layers.metrics(totals, probes, import_s, traced_s, untraced_s)
    for layer in layers.LAYER_NAMES:
        print("layer %-14s self %8.3f s  errors %d"
              % (layer, metrics[layer + ".self_s"]["value"],
                 totals.layer_sum(totals.errors, layer)))
    print("not called on this workload, reported as 0: %s"
          % (", ".join(layers.idle(totals)) or "none"))
    print("tracing overhead: %.3f s (traced %.3f s - untraced %.3f s)"
          % (traced_s - untraced_s, traced_s, untraced_s))
    print("accounted: import %.3f s + spans %.3f s; uncovered %.3f s (%.1f%%); "
          "%d spans"
          % (import_s, totals.covered_s,
             metrics["trace.uncovered_s"]["value"],
             100 * metrics["trace.uncovered_ratio"]["value"], totals.spans))
    return len(outcomes), failed, metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sympkit", "__init__.py")):
        print("error: no sympkit sources under %s/src; run from the root of "
              "a sympkit checkout" % root, file=sys.stderr)
        return 2
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    os.makedirs(OUT_DIR)
    tasks = workloads.build(args.workload, args.seed, OUT_DIR)
    runner = Runner(root, time.monotonic() + min(MAX_RUN_S, 6 * args.seconds))
    print("env: %s" % json.dumps(environment(root, args, tasks)))
    try:
        if args.trace:
            attempted, failed, metrics = traced(runner, tasks, args.seed)
        else:
            attempted, failed, metrics = end_to_end(runner, tasks)
    except (OSError, RuntimeError, ValueError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
