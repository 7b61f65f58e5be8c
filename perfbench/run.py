"""Benchmark of the legendre-mw command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every command of the workload runs in a
fresh interpreter, as a user runs it; its output must exit 0, report
`"ok": true` and hash to the digest in reference.json, or the command
counts as failed and its pass is not timed as a success.

With --trace 0 the untraced commands give the end-to-end metrics.  The
host's speed drifts by tens of percent within seconds, so while they
run, yardstick.py samples it, and each time is scaled to a fixed
reference speed by the samples taken while it was measured.  With
--trace 1 one untraced pass is the base for the tracing overhead, and
traced passes (layers.py) give the per-layer metrics.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The
line before it is a fuller report: quartiles, sample counts, failed
share, machine info and seed.

The workloads are fixed command lines; --seed is recorded but changes
no input.  See README.md for why each workload is in the set.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
# The mean yardstick sample at the reference speed (about its median on
# the 2-core Xeon KVM guest the benchmark was defined on).  Scaled times
# are seconds at this speed.
YARDSTICK_REF_S = 0.0020
# yardstick samples this long before and after a child count for it too,
# so a child shorter than the sampling gap still has some
YARDSTICK_PAD_S = 0.25

WORKLOADS = {
    "heights_d10": [["gram", "--p", "3", "--f", "2", "--depth", "quick"]],
    "group_law": [["isogeny", "--p", "7"]],
    "family_sweep": [["all", "--p", "3"], ["all", "--p", "5"], ["all", "--p", "7"]],
}

# set-up samples per run
SETUP_REPS = 6
# Children still running this many seconds into a run are killed, so a
# run always ends within three minutes.
HARD_LIMIT_S = 165.0


def family_params(workload: str) -> list[tuple[int, int]]:
    """The (p, f) of every command of a workload, in order, no repeats."""
    out = []
    for cmd in WORKLOADS[workload]:
        p = int(cmd[cmd.index("--p") + 1])
        f = int(cmd[cmd.index("--f") + 1]) if "--f" in cmd else 1
        if (p, f) not in out:
            out.append((p, f))
    return out


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # pinned so the output is the reference output
    env.pop("LEGENDRE_MAX_DOUBLINGS", None)
    return env


def run_child(argv: list[str], timeout: float) -> dict:
    """Run one child process; wall time, its own user+sys CPU and max RSS
    (from wait4, so per child), exit code and stdout."""
    with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(max(timeout, 0.1), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"start": t0, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
                "stdout": out.read(), "stderr": err.read().decode(errors="replace")}


class Yardstick:
    """Context manager: yardstick.py sampling the host's speed beside the
    commands, from entry to exit."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "yardstick.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if self.proc.stdout.readline() != b"ready\n":
            self.proc.kill()
            self.proc.communicate()
            raise SystemExit("the yardstick did not start")
        return self

    def __exit__(self, *exc):
        out, _ = self.proc.communicate()  # closes its stdin, which stops it
        if exc[0] is None:
            if self.proc.returncode != 0:
                raise SystemExit("the yardstick failed")
            got = json.loads(out)
            self.samples, self.cpu_s = got["samples"], got["cpu_s"]

    def scale(self, start: float, end: float) -> float:
        """The reference mean over the mean sample between start and end."""
        pad = YARDSTICK_PAD_S
        cpu = [c for t, c in self.samples if start - pad <= t <= end + pad]
        return YARDSTICK_REF_S / statistics.fmean(cpu)


def gate(cmd: list[str], res: dict, reference: dict) -> str | None:
    """Why a command's result is wrong, or None if it is the reference."""
    if res["code"] != 0:
        return "exit code %d: %s" % (res["code"], res["stderr"].strip()[-300:])
    try:
        ok = json.loads(res["stdout"]).get("ok")
    except (ValueError, AttributeError):
        return "output is not a JSON document"
    if ok is not True:
        return '"ok" is not true'
    digest = hashlib.sha256(res["stdout"]).hexdigest()
    if digest != reference.get(" ".join(cmd)):
        return "output digest %s differs from the reference" % digest[:16]
    return None


def split_trace(res: dict) -> dict | None:
    """Strip the tracer's last line from a traced child's stdout and
    return the layer metrics it carried."""
    body, sep, last = res["stdout"].rstrip(b"\n").rpartition(b"\n")
    marker = layers.MARKER.encode()
    if not last.startswith(marker):
        return None
    res["stdout"] = body + sep
    return json.loads(last[len(marker):])


class Run:
    """One benchmark run: the passes made, the failures met."""

    def __init__(self, workload: str):
        self.workload = workload
        self.commands = WORKLOADS[workload]
        self.reference = json.loads(REFERENCE.read_text())
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.info = None  # numpy version and module path, from set-up

    def time_left(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def command(self, cmd: list[str], traced: bool) -> dict | None:
        """One command in a fresh interpreter.  Returns its result, with
        its layer metrics if traced, or None if it failed."""
        prog = [str(HERE / "layers.py")] if traced else ["-m", "legendre_mw.cli"]
        res = run_child([sys.executable, *prog, *cmd], self.time_left())
        self.attempted += 1
        res["layers"] = split_trace(res) if traced and res["code"] == 0 else None
        why = gate(cmd, res, self.reference)
        if why is None and traced and res["layers"] is None:
            why = "traced run printed no layer metrics"
        if why is not None:
            self.failures.append("%s: %s" % (" ".join(cmd), why))
            return None
        return res

    def one_pass(self, traced: bool) -> dict | None:
        """Every command of the workload once.  Returns the pass totals,
        with the summed layer metrics if traced, or None if a command
        failed."""
        totals = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "layers": {}}
        good = True
        for cmd in self.commands:
            res = self.command(cmd, traced)
            if res is None:
                good = False
                continue
            totals["wall_s"] += res["wall_s"]
            totals["cpu_s"] += res["cpu_s"]
            totals["rss_mb"] = max(totals["rss_mb"], res["rss_mb"])
            for name, value in (res["layers"] or {}).items():
                if name == "ratfunc.poly_rows.max":
                    value = max(value, totals["layers"].get(name, 0))
                else:
                    value += totals["layers"].get(name, 0)
                totals["layers"][name] = value
        return totals if good else None

    def passes(self, seconds: float, traced: bool) -> list[dict]:
        """One pass, then more until the next would end past `seconds`
        from now.  Returns the passes that succeeded."""
        deadline = time.perf_counter() + seconds
        good = []
        while self.time_left() > 0:
            t0 = time.perf_counter()
            totals = self.one_pass(traced)
            if totals is not None:
                good.append(totals)
            last = time.perf_counter() - t0
            if time.perf_counter() + last > deadline:
                break
        return good

    def rounds(self, seconds: float) -> dict[str, list[dict]]:
        """The untraced commands in turn until the next would end past
        `seconds` from now; every command runs at least once.  Returns,
        per command, the results that passed the gate."""
        deadline = time.perf_counter() + seconds
        done = {" ".join(cmd): [] for cmd in self.commands}
        took = {}
        for i in itertools.count():
            cmd = self.commands[i % len(self.commands)]
            key = " ".join(cmd)
            if key in took and (self.time_left() <= 0
                                or time.perf_counter() + took[key] > deadline):
                break
            t0 = time.perf_counter()
            res = self.command(cmd, traced=False)
            took[key] = time.perf_counter() - t0
            if res is not None:
                done[key].append(res)
        return done

    def setup(self, reps: int) -> list[dict]:
        """Results of `reps` fresh interpreters that each import
        legendre_mw and build the workload's families.  The first call
        also makes one untimed start, which warms the file cache and, where
        Python writes bytecode, the bytecode cache."""
        code = ("import json, numpy, legendre_mw\n"
                "for p, f in %r: legendre_mw.make_family(p, f)\n"
                "print(json.dumps({'numpy': numpy.__version__,"
                " 'module': legendre_mw.__file__}))" % family_params(self.workload))
        results = []
        warm = self.info is None
        for i in range(reps + warm):
            res = run_child([sys.executable, "-c", code], self.time_left())
            if res["code"] != 0:
                raise SystemExit("set-up failed: " + res["stderr"].strip()[-300:])
            self.info = json.loads(res["stdout"])
            if i >= warm:
                results.append(res)
        if not Path(self.info["module"]).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit("legendre_mw was imported from %s, not from this checkout"
                             % self.info["module"])
        return results


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def machine(run: Run, seed: int, nproc: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:  # no git program
            pass
    return {"python": platform.python_version(), "numpy": run.info["numpy"],
            "nproc": nproc, "loadavg": os.getloadavg(),
            "commit": commit, "seed": seed}


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    run.setup(0)
    with Yardstick() as yard:
        t0 = time.perf_counter()
        setup = run.setup(SETUP_REPS)
        done = run.rounds(deadline - time.perf_counter())
        t1 = time.perf_counter()
    for res in setup + [r for rs in done.values() for r in rs]:
        res["scale"] = yard.scale(res["start"], res["start"] + res["wall_s"])
    report = {"setup_s": summary([r["wall_s"] * r["scale"] for r in setup]),
              "raw_setup_s": summary([r["wall_s"] for r in setup]),
              "yardstick": {"cpu_share": yard.cpu_s / (t1 - t0),
                            "sample_s": summary([c for _, c in yard.samples])}}
    metrics = {"setup_s": (report["setup_s"]["median"], "s")}
    if all(done.values()):
        # a pass is every command once: the sum of the commands' medians
        for key in ("wall_s", "cpu_s"):
            for name, scaled in ((key, True), ("raw_" + key, False)):
                report[name] = {cmd: summary([r[key] * (r["scale"] if scaled else 1.0)
                                              for r in rs]) for cmd, rs in done.items()}
                report[name]["pass"] = sum(report[name][cmd]["median"] for cmd in done)
            metrics[key] = (report[key]["pass"], "s")
        peak = max(r["rss_mb"] for rs in done.values() for r in rs)
        report["peak_rss_mb"] = {"max": peak, "n": sum(len(rs) for rs in done.values())}
        metrics["peak_rss_mb"] = (peak, "MB")
    return metrics, report


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    run.setup(0)
    budget_end = time.perf_counter() + seconds
    base = run.passes(0, traced=False)
    traced = run.passes(budget_end - time.perf_counter(), traced=True)
    if not base or not traced:
        return {}, {}
    counts = [{k: v for k, v in t["layers"].items() if k.endswith(".calls")} for t in traced]
    report = {"untraced_wall_s": base[0]["wall_s"],
              "traced_wall_s": summary([t["wall_s"] for t in traced]),
              "counts_repeat": all(c == counts[0] for c in counts)}
    values = {}
    for name in traced[0]["layers"]:
        runs = [t["layers"][name] for t in traced]
        # counts repeat exactly; times are the median over traced passes
        values[name] = statistics.median(runs) if name.endswith("_s") else runs[0]
    wall = report["traced_wall_s"]["median"]
    values["trace.untraced_wall_s"] = base[0]["wall_s"]
    values["trace.traced_wall_s"] = wall
    values["trace.overhead"] = wall / base[0]["wall_s"]
    return {k: (v, layer_unit(k)) for k, v in values.items()}, report


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return "rows" if name == "ratfunc.poly_rows.max" else "ratio"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="recorded with the result; the inputs are fixed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "legendre_mw" / "cli.py").is_file():
        print("error: run from the root of a legendre-mw checkout (no src/legendre_mw)",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    # Every child runs on one CPU: the host slows each CPU on its own, so
    # the yardstick has to run where the commands run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload)
    metrics, report = (measure_traced if args.trace else measure)(run, args.seconds)
    failed = len(run.failures)
    report.update(workload=args.workload, trace=args.trace,
                  commands=[" ".join(c) for c in run.commands],
                  failed_share=failed / run.attempted, failures=run.failures[:10],
                  machine=machine(run, args.seed, nproc))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
