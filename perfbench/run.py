"""Benchmark of the totcol command line: `color`, `verify` and `classify`,
end to end, with a separate traced run that splits the time by module.

Run from the repository root:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

One closed-loop client calls `totcol.cli.main([...])` in this process, one
operation at a time; no threads, no worker processes.  A pass runs every
instance of the workload once (`color` then `verify`, or `classify` then
`verify` on the certificate).  Passes repeat while the next one is expected
to end within --seconds; there is always at least one.  Timings are the
median over passes.  Every output is then re-checked by check.py, outside the
timed region, against the instance's known answer.

Every CLI call is bracketed by two host-speed probes (speed.py).  On the
workloads in workloads.NORMALIZED its time, and the set-up time, is reported
normalized to the probe's reference speed, which takes out the minutes-long
slowdowns of a shared host; on the others (classify-ladder) times are
reported as measured.  The times as measured are always printed
("raw_wall_s", "raw_solve_s") and kept in the run record ("raw_..." in each
pass, "setup_times_s").

--trace 0 reports the end-to-end metrics:
  setup_s      median of several fresh interpreters that import totcol and
               `totcol gen` the workload's inputs
  wall_s       one full pass: its `color`/`classify` and `verify` calls
  solve_s      the `color` calls (or `classify` calls on classify-ladder) of a pass
  peak_rss_mb  peak resident memory of this process
The median time of the `verify` calls of a pass is printed and recorded as
verify_s but is not a gated metric: on dense-even and classify-ladder it is
about 20 ms, too little to measure steadily.
--trace 1 spends half of --seconds untraced and half with spans.py's wrappers
installed, and reports the per-layer metrics of the traced passes (as
measured; trace.overhead_ratio compares the pass times as reported).

Failures (unexpected exit code, a traceback, or an answer that differs from
the known one) are counted, never fatal: the last line reports `attempted`
and `failed`, and `correct` is true only when nothing failed and the
checker's negative control (one corrupted edge color) was flagged.

The work directory is .bench_build/perfbench/ under the repository root;
input and output files are removed at exit, the run record (and the spans of
a traced run) stay there.
"""
import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5

END_TO_END = (
    ("wall_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class Client:
    """Runs the passes of one workload and keeps the failure count."""

    def __init__(self, cli, pool, workdir, normalize):
        self.cli = cli
        self.pool = pool
        self.workdir = workdir
        self.normalize = normalize
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def graph(self, inst):
        return os.path.join(self.workdir, inst["name"] + ".col")

    def output(self, inst):
        if inst["kind"] == "classify":
            return os.path.join(self.workdir, inst["name"] + ".cert.tc")
        return os.path.join(self.workdir, inst["name"] + "." + inst["fmt"])

    def _fail(self, argv, reason):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"argv": argv, "reason": reason})

    def op(self, argv, expected_lines):
        """One CLI call; returns its wall time and whether it succeeded."""
        self.attempted += 1
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                code = self.cli.main(argv)
        except (Exception, SystemExit):
            seconds = time.perf_counter() - start
            self._fail(argv, traceback.format_exc(limit=3))
            return seconds, False
        seconds = time.perf_counter() - start
        lines = captured.getvalue().splitlines()
        if code != 0:
            self._fail(argv, "exit code %r: %s" % (code, lines[-3:]))
            return seconds, False
        missing = [line for line in expected_lines if line not in lines]
        if missing:
            self._fail(argv, "expected output %r missing" % missing)
            return seconds, False
        return seconds, True

    def run_pass(self):
        """One timed pass, then the independent check of its outputs.

        Every call is bracketed by host-speed probes (speed.py); the pass
        reports each time both as measured ("raw_...") and as reported:
        normalized if self.normalize, else the same.
        """
        for inst in self.pool:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.output(inst))
        gc.collect()
        times = dict.fromkeys(("solve_s", "verify_s", "raw_solve_s", "raw_verify_s"), 0.0)
        solved = {}
        probes = [speed.probe()]

        def timed(key, argv, want):
            seconds, ok = self.op(argv, want)
            probes.append(speed.probe())
            times["raw_" + key] += seconds
            if self.normalize:
                seconds *= speed.scale(probes[-2], probes[-1])
            times[key] += seconds
            return ok

        for inst in self.pool:
            graph, out = self.graph(inst), self.output(inst)
            colors = "colors used: %d" % inst["expect"]
            if inst["kind"] == "classify":
                argv = ["classify", graph, "-o", out]
                want = ["classification: %s" % inst["answer"],
                        "total chromatic number: %d" % inst["expect"]]
            else:
                argv = ["color", graph, "-o", out]
                if inst["fmt"] == "csv":
                    argv += ["--format", "csv-matrix"]
                want = [colors, "verification: clean"]
            solved[inst["name"]] = timed("solve_s", argv, want)
            timed("verify_s", ["verify", graph, out], [colors, "verification: clean"])
        for inst in self.pool:
            reason = check.check(self.graph(inst), self.output(inst), inst["expect"])
            if reason and solved[inst["name"]]:
                self._fail([inst["kind"], inst["name"]], "checker: " + reason)
        times["wall_s"] = times["solve_s"] + times["verify_s"]
        times["raw_wall_s"] = times["raw_solve_s"] + times["raw_verify_s"]
        times["probes_s"] = probes
        return times

    def passes(self, seconds, tracer=None):
        """Passes until the next one would likely end after `seconds`."""
        out = []
        start = time.perf_counter()
        while True:
            if tracer:
                tracer.begin_pass()
            result = self.run_pass()
            if tracer:
                result["layers"] = tracer.pass_metrics(result["raw_wall_s"])
            out.append(result)
            typical = statistics.median(p["raw_wall_s"] for p in out)
            if time.perf_counter() - start + typical > seconds:
                return out


def time_setup(workload, seed, smoke, workdir, normalize):
    """Median time of fresh interpreters doing the set-up step, normalized
    like the CLI calls if `normalize`; also returns the times as measured."""
    argv = [sys.executable, os.path.join(HERE, "setup_child.py"), ROOT, workload,
            str(seed), "1" if smoke else "0", workdir]
    times, raw = [], []
    before = speed.probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        raw.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: %s" % proc.stderr.strip()[-2000:])
        after = speed.probe()
        times.append(raw[-1] * speed.scale(before, after) if normalize else raw[-1])
        before = after
    return statistics.median(times), raw


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, for perfbench/smoke.py")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "totcol", "cli.py")):
        print("perfbench: no totcol sources under %s; run from the repository root"
              % SRC, file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".bench_build", "perfbench")
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(base, "%s-pid%d" % (tag, os.getpid()))
    os.makedirs(workdir)
    try:
        return measure(args, base, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, base, tag, workdir):
    pool = workloads.instances(args.workload, args.seed, args.smoke)
    normalize = args.workload in workloads.NORMALIZED
    setup_s, setup_times = time_setup(args.workload, args.seed, args.smoke, workdir,
                                      normalize)

    sys.path.insert(0, SRC)
    from totcol import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError("imported totcol from %s, not %s" % (cli.__file__, SRC))

    client = Client(cli, pool, workdir, normalize)
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": [{k: inst[k] for k in ("name", "gen", "kind", "fmt", "expect", "answer")}
                      for inst in pool],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "layer_map": workloads.LAYER_MAP,
        "normalized": normalize,
        "setup_times_s": setup_times,
    }
    print("info: " + json.dumps({k: record[k] for k in
                                 ("workload", "seed", "why", "python", "nproc")}))
    print("instances: " + " ".join(inst["name"] for inst in pool))
    print("layer_map: " + json.dumps(workloads.LAYER_MAP))

    tracer = None
    if args.trace:
        plain = client.passes(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = client.passes(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name, _ in spans.PER_LAYER if name != "trace.overhead_ratio"}
        layers["trace.overhead_ratio"] = (
            median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.PER_LAYER}
        record["passes"] = {"untraced": plain, "traced": traced}
    else:
        passes = client.passes(args.seconds)
        values = {key: median_of(passes, key) for key in
                  ("wall_s", "solve_s", "verify_s", "raw_wall_s", "raw_solve_s")}
        print("verify_s = %r s (median over passes, not gated)" % values["verify_s"])
        print("as measured: raw_wall_s = %r s, raw_solve_s = %r s, "
              "median probe = %r s" % (values["raw_wall_s"], values["raw_solve_s"],
                                       statistics.median(t for p in passes
                                                         for t in p["probes_s"])))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["setup_s"] = setup_s
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        record["passes"] = passes

    first = pool[0]
    try:
        control = check.negative_control(client.graph(first), client.output(first))
    except (OSError, ValueError, LookupError, StopIteration) as exc:
        print("negative control could not run: %r" % exc)
        control = None
    correct = client.failed == 0 and control is not None
    record.update(metrics=metrics, negative_control=control, attempted=client.attempted,
                  failed=client.failed, failures=client.failures)
    with open(os.path.join(base, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.dump(os.path.join(base, tag + "-spans.json"))

    for failure in client.failures:
        print("failure: %s" % json.dumps(failure))
    print("negative control: %s" % ("flagged (%s)" % control if control else "NOT FLAGGED"))
    print("fail_ratio = %d/%d = %.4f" % (client.failed, client.attempted,
                                         client.failed / client.attempted))
    for name, metric in metrics.items():
        print("metric %s = %r %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": correct, "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
