#!/usr/bin/env python3
"""freqdyn benchmark: shipped configs run as fresh ``freqdyn`` processes.

usage: python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                                [--trace 0|1]

Run from the root of a checkout.  Each workload is a fixed sequence of
command-line steps; each step is one fresh interpreter running
``freqdyn.cli.main`` (through ``child.py``), started only after the
previous one exited: a closed loop with one client, which is how a user
pays for a run.  A repetition runs every step of the workload once;
repetitions continue until ``--seconds`` have passed, and at least two
run so that their artifact digests can be compared.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
medians over repetitions.  With ``--trace 1`` the run alternates one
untraced and one traced repetition and reports per-layer metrics: span
self times and counts from the traced repetitions, per-step wall time
and peak RSS from the untraced ones.  Without ``--workload`` every
workload runs in turn.  See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = ".bench_out"  # relative to ROOT, the children's working directory
STEP_TIMEOUT_S = 120.0
MIN_REPS = 2
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Step:
    label: str
    command: str
    config: str
    overrides: tuple = ()
    exit_code: int = 0
    verdicts: str = ""  # PASS/FAIL prefixes of summary.txt, one letter each


def _sweep(label, command, config, verdicts, exit_code=0, overrides=()):
    return Step("sweep-" + label, command, config, overrides, exit_code, verdicts)


WORKLOADS = {
    # One degree-256 dense build: the fitting layer and the 4.5 MB JSON write.
    "fit-dense": (Step("dense", "build_fhc", "dense.ini", (), 0, "PPPPP"),),
    # The fit-free certification layers at large horizons; no approx work.
    "certify-horizons": (
        Step("strong", "runaway", "runaway_strong.ini",
             ("horizons.n_max=30000", "horizons.nu_max=3", "family.pairs=6"), 0, "PPPP"),
        Step("weak", "runaway", "runaway_weak.ini", ("horizons.n_max=1000000",), 1, "F"),
        Step("example4", "example4", "example4.ini", ("horizons.n_max=3000",), 0, "PP"),
        Step("example5", "example5", "example5.ini", ("horizons.iterates=50000",), 0, "PPP"),
    ),
    # scripts/run_examples.py without dense: process start-up dominates.
    "examples-sweep": (
        _sweep("sigma", "sigma", "sigma.ini", "PP"),
        _sweep("split", "split", "split.ini", "PPPPP"),
        _sweep("density", "density", "density.ini", "PP"),
        _sweep("sepfamily", "sepfamily", "sepfamily.ini", "PPPP"),
        _sweep("runaway-strong", "runaway", "runaway_strong.ini", "PPPP"),
        _sweep("runaway-weak", "runaway", "runaway_weak.ini", "F", exit_code=1),
        _sweep("example1", "example1", "example1.ini", "PPPPPP"),
        _sweep("example2", "example2", "example2.ini", "PP"),
        _sweep("example3", "example3", "example3.ini", "PPP"),
        _sweep("example4", "example4", "example4.ini", "PP"),
        _sweep("example5", "example5", "example5.ini", "PPP"),
        _sweep("existence", "build_fhc", "existence.ini", "PPP"),
        _sweep("scan", "scan", "scan.ini", "PPPP",
               overrides=("scan.candidate={out}/sweep-existence/build_fhc/candidate.json",)),
        _sweep("spaceable", "build_fhc", "spaceable.ini", "PPPPPP"),
    ),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_bytes": "B",
}

# Span names reported as self time, and those also reported as call counts.
SELF_SPANS = (
    "cli.main", "cli._write_json", "cli._write_csv", "cli.load_candidate", "cli.cmd_sigma",
    "approx.fit_on_compacts", "approx.build_span_basis",
    "runaway.check_strong_runaway", "runaway.collect_islands",
    "runaway.check_weak_runaway", "runaway.build_carleman_truncation",
    "maps.image_enclosing_disc", "maps.maps_into", "geometry.disjointness",
    "density.check_similarity_criterion", "density.lower_density_estimate",
    "density.split", "density.build_separated_family", "density.verify_separated_family",
    "orbit.scan", "orbit.iterate_convergence",
)
CALL_SPANS = (
    "approx.fit_on_compacts", "maps.image_enclosing_disc", "maps.maps_into",
    "geometry.disjointness", "density.lower_density_estimate",
)


def layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {"cli.import_s": "s", "trace.overhead_s": "s"}
    for name in SELF_SPANS:
        units[name + ".self_s"] = "s"
    for name in CALL_SPANS:
        units[name + ".calls"] = "count"
    units["approx.assemble.self_s"] = "s"
    units["approx.fit_degree_max"] = "degree"
    units["runaway.islands"] = "count"
    units["geometry.disjointness.unknown_ratio"] = "ratio"
    for steps in WORKLOADS.values():
        for step in steps:
            units[f"step.{step.label}.wall_s"] = "s"
            units[f"step.{step.label}.peak_rss_mb"] = "MB"
    return units


# ---------------------------------------------------------------------------
# running steps


@dataclass
class StepResult:
    label: str
    exit_code: int
    wall_s: float
    rss_mb: float
    record: dict
    stderr: str
    problems: list
    artifacts: dict = field(default_factory=dict)  # relative path -> [bytes, sha256]
    verdicts: str = ""
    degree_max: int = 0

    @property
    def setup_s(self):
        """Child wall time outside ``freqdyn.cli.main``: start-up, imports, teardown."""
        return self.wall_s - self.record.get("main_s", 0.0)


def _spawn(argv, log_dir, env):
    """Run ``child.py`` to completion; return (exit code, wall s, peak RSS MB, stderr)."""
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(os.path.join(log_dir, "stdout.txt"), "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD] + argv, cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    # ru_maxrss is this one child's peak resident set, in KiB on Linux.
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr


def run_step(step, out_root, trace, env):
    """Run one step as a fresh process; artifacts are inspected later."""
    log_dir = os.path.join(ROOT, out_root, "_logs", step.label)
    os.makedirs(log_dir, exist_ok=True)
    record_path = os.path.join(log_dir, "record.json")
    argv = [step.command, os.path.join("configs", step.config)]
    for item in step.overrides:
        argv += ["--override", item.format(out=out_root)]
    repo_out = os.path.join(ROOT, "out")
    repo_out_existed = os.path.exists(repo_out)
    code, wall, rss, stderr = _spawn(
        [record_path, str(int(trace))] + argv, log_dir,
        dict(env, FREQDYN_OUT=os.path.join(out_root, step.label)),
    )
    problems = []
    if not repo_out_existed and os.path.exists(repo_out):
        problems.append("wrote under the repository's out/")
    record = {}
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    return StepResult(step.label, code, wall, rss, record, stderr, problems)


def _degree(path):
    """Top-level ``degree`` of a JSON artifact (a stored fit), else 0."""
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    degree = blob.get("degree") if isinstance(blob, dict) else None
    return degree if isinstance(degree, int) else 0


def inspect_artifacts(result, directory):
    """Fill in digests, summary verdicts and the largest fit degree."""
    for base, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(path, directory)
            result.artifacts[rel] = [len(data), hashlib.sha256(data).hexdigest()]
            if name == "summary.txt":
                lines = data.decode("utf-8").splitlines()
                result.verdicts += "".join(l[0] for l in lines if l.startswith(("PASS:", "FAIL:")))
            elif name.endswith(".json"):
                result.degree_max = max(result.degree_max, _degree(path))


def check_step(step, result, reference):
    """Reasons ``result`` is not what ``step`` must produce.

    ``reference`` holds the artifact digests of the step's first
    repetition in this run; identical code must reproduce them byte for
    byte.
    """
    problems = []
    if result.exit_code != step.exit_code:
        problems.append(f"exit {result.exit_code}, expected {step.exit_code}")
    if "Traceback" in result.stderr:
        problems.append("traceback on stderr")
    if "main_s" not in result.record:
        problems.append("child reported no timing")
    if not result.artifacts:
        problems.append("no artifacts written")
    if result.verdicts != step.verdicts:
        problems.append(f"verdicts {result.verdicts or '-'}, expected {step.verdicts}")
    if result.artifacts != reference:
        changed = {path for path in set(result.artifacts) | set(reference)
                   if result.artifacts.get(path) != reference.get(path)}
        problems.append("artifacts differ from the first repetition: " + ", ".join(sorted(changed)))
    return problems


@dataclass
class Rep:
    traced: bool
    wall_s: float
    steps: list

    @property
    def setup_s(self):
        return sum(s.setup_s for s in self.steps)

    @property
    def peak_rss_mb(self):
        return max(s.rss_mb for s in self.steps)

    @property
    def artifact_bytes(self):
        return sum(size for s in self.steps for size, _ in s.artifacts.values())


def run_rep(steps, out_root, trace, env, references):
    """One repetition: every step in order, timed from the first spawn to the last exit."""
    shutil.rmtree(os.path.join(ROOT, out_root), ignore_errors=True)
    started = time.perf_counter()
    results = [run_step(step, out_root, trace, env) for step in steps]
    wall = time.perf_counter() - started
    for step, result in zip(steps, results):
        inspect_artifacts(result, os.path.join(ROOT, out_root, step.label))
        reference = references.setdefault(step.label, result.artifacts)
        result.problems += check_step(step, result, reference)
    return Rep(trace, wall, results)


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(values):
    """Highest percentile with at least ten samples above it: (percent, value), or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def failed_ops(reps):
    """(attempted, failed) steps over all repetitions."""
    steps = [s for rep in reps for s in rep.steps]
    return len(steps), sum(1 for s in steps if s.problems)


def end_to_end(reps):
    """Medians over repetitions; artifact bytes are exact, checked equal across them."""
    values = {name: statistics.median(getattr(rep, name) for rep in reps) for name in END_TO_END}
    values["artifact_bytes"] = reps[0].artifact_bytes
    return values


def _span_totals(rep):
    totals, counts = {}, {}
    for step in rep.steps:
        for name, (calls, total, self_s) in step.record.get("spans", {}).items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, value in step.record.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
    return totals, counts


def _layer_values(rep):
    totals, counts = _span_totals(rep)
    values = {name + ".self_s": totals.get(name, [0, 0.0, 0.0])[2] for name in SELF_SPANS}
    for name in CALL_SPANS:
        values[name + ".calls"] = totals.get(name, [0])[0]
    values["approx.assemble.self_s"] = sum(
        entry[2] for name, entry in totals.items() if name.startswith("approx.assemble_"))
    values["approx.fit_degree_max"] = max(s.degree_max for s in rep.steps)
    values["runaway.islands"] = counts.get("runaway.islands", 0)
    calls = totals.get("geometry.disjointness", [0])[0]
    values["geometry.disjointness.unknown_ratio"] = (
        counts.get("geometry.disjointness.unknown", 0) / calls if calls else 0.0)
    return values


def layer_metrics(untraced, traced):
    """Per-layer values: spans from traced reps, step figures from untraced ones.

    Metrics of layers or steps a workload does not reach read 0.
    """
    units = layer_units()
    per_rep = [_layer_values(rep) for rep in traced]
    values = {}
    for name in per_rep[0]:
        # counts repeat exactly; median_low keeps them whole numbers
        middle = statistics.median if units[name] == "s" else statistics.median_low
        values[name] = middle(v[name] for v in per_rep)
    values["cli.import_s"] = statistics.median(
        s.record["import_s"] for rep in untraced for s in rep.steps if "import_s" in s.record)
    values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                  - statistics.median(r.wall_s for r in untraced))
    for label in {s.label for rep in untraced for s in rep.steps}:
        values[f"step.{label}.wall_s"] = statistics.median(
            s.wall_s for rep in untraced for s in rep.steps if s.label == label)
        values[f"step.{label}.peak_rss_mb"] = statistics.median(
            s.rss_mb for rep in untraced for s in rep.steps if s.label == label)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}


# ---------------------------------------------------------------------------
# entry point


def _describe(name, values, unit):
    tail = tail_percentile(values)
    digits = 0 if unit == "B" else 4
    tail_text = (f"p{tail[0]:.0f} {tail[1]:.{digits}f}" if tail
                 else "no tail percentile (needs >= 11 samples)")
    return (f"  {name:<15} {statistics.median(values):.{digits}f} {unit}  "
            f"median of n={len(values)}; {tail_text}")


def run_workload(name, seed, seconds, trace, env):
    """Run one workload for ``seconds``; return (result object, report lines)."""
    steps = WORKLOADS[name]
    out_root = os.path.join(OUT, name)
    references = {}
    reps = []
    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        reps.append(run_rep(steps, out_root, False, env, references))
        if trace:
            reps.append(run_rep(steps, out_root, True, env, references))
    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    attempted, failed = failed_ops(reps)

    lines = [f"== {name}: seed {seed} (inputs do not depend on it), trace {trace}, "
             f"{len(untraced)} untraced + {len(traced)} traced repetitions"]
    for metric, unit in END_TO_END.items():
        lines.append(_describe(metric, [getattr(r, metric) for r in untraced], unit))
    lines.append(f"  {'failed_ops':<15} {failed}/{attempted} steps ({failed / attempted:.4f})")
    for rep_index, rep in enumerate(reps):
        for s in rep.steps:
            lines.append(
                f"  rep {rep_index} {'traced' if rep.traced else 'untraced'} {s.label}: "
                f"exit {s.exit_code}, wall {s.wall_s:.3f} s, setup {s.setup_s:.3f} s, "
                f"peak {s.rss_mb:.1f} MB, {len(s.artifacts)} artifacts"
                + ("" if not s.problems else "; FAILED: " + "; ".join(s.problems)))

    if trace:
        metrics = layer_metrics(untraced, traced)
        for metric, entry in metrics.items():
            lines.append(f"  {metric:<45} {entry['value']} {entry['unit']}")
        bound = next((s.record["bound"] for s in traced[0].steps if "bound" in s.record), {})
        for span, sites in bound.items():
            lines.append(f"  span {span} installed at {', '.join(sites)}")
    else:
        metrics = {metric: {"value": value, "unit": END_TO_END[metric]}
                   for metric, value in end_to_end(untraced).items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    return f"unknown ({ref[5:]} is packed)"


def environment(env):
    """Interpreter, libraries and machine the figures were measured on."""
    log_dir = os.path.join(ROOT, OUT, "_env")
    os.makedirs(log_dir, exist_ok=True)
    record_path = os.path.join(log_dir, "record.json")
    code, _, _, stderr = _spawn([record_path, "0", "--env"], log_dir, env)
    if code != 0:
        raise RuntimeError(f"cannot import freqdyn from {ROOT}/src:\n{stderr}")
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    record.pop("import_s", None)
    for lib in ("blas", "lapack"):
        record[lib] = {k: record[lib].get(k) for k in ("name", "version", "openblas configuration")}
    record.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "rss_note": "peak_rss_mb is ru_maxrss from wait4: per child process, not summed",
        "system_note": "no system setting (cache drop, cgroup, huge pages) is touched",
    })
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="workload to run (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for needed in ("src/freqdyn/cli.py", "configs"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a freqdyn checkout",
                  file=sys.stderr)
            return 2

    env = dict(os.environ)
    try:
        print("env " + json.dumps(environment(env), sort_keys=True))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace, env)
        print("\n".join(lines), flush=True)
        results[name] = result
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
