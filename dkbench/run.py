"""Benchmark of displacement-kit: one workload, one seed, one JSON line.

    python3 dkbench/run.py --workload bulk_apply --seed 1 --seconds 25 --trace 0
    python3 dkbench/run.py --negative-control

Run from the root of a checkout; the package is imported from ``src/`` there.
BLAS is pinned to one thread before numpy loads, so on a 2-core host the
figures measure the program rather than the scheduler.

Untraced (``--trace 0``): the workload is set up three times in this
process, then whole passes run until ``--seconds`` have gone by, each in a
forked copy of the warmed process.  After each pass set-up repeats for 0.3 s,
and at least once; ``setup_s`` is the median of all set-ups.  A
pass times only the package calls (``pass_s`` is the median over passes) and
records the growth of peak resident memory over the pass (``peak_rss_mb``,
the median over passes), read right after each package call so that the
checks that follow cannot set it.

Traced (``--trace 1``): forked rounds run until ``--seconds`` have gone by.
A round sets up and runs an untraced pass, then wraps the package's public
functions (see ``spans``), sets up again and runs a traced pass.  Per-layer
figures are per traced set-up plus pass: counts from the first round, times
as the median over rounds; ``trace.overhead_s`` is the median of traced minus
untraced pass time.  Spans are written to ``.dkbench_out/`` at the end.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import importlib
import json
import pickle
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".dkbench_out"
#: passes per untraced run, at least, however short --seconds is
MIN_PASSES = 3
#: set-ups before the first pass
MIN_SETUPS = 3
#: set-up repeats for this long (and at least once) after each pass, so that
#: its samples spread over the run as the passes do
SETUP_SLICE_S = 0.3
IMPORT_SAMPLES = 3
MB = float(1 << 20)


def _load_package():
    """Import displacement_kit from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "displacement_kit" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {src / 'displacement_kit'}; run from a checkout")
    sys.path.insert(0, str(src))
    dk = importlib.import_module("displacement_kit")
    if Path(dk.__file__).resolve().parent != (src / "displacement_kit").resolve():
        raise SystemExit(f"error: displacement_kit imported from {dk.__file__}, not {src}")
    importlib.import_module("displacement_kit.cli")
    return dk


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/self/status")


def _release_free_heap() -> None:
    """Hand freed heap pages back to the OS so a child's RSS grows with its own work."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _die_with(parent: int) -> None:
    """Have the kernel kill this process when ``parent`` ends (PR_SET_PDEATHSIG)."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)
    except (OSError, AttributeError):
        pass
    if os.getppid() != parent:
        os._exit(1)


def in_child(fn):
    """Run ``fn()`` in a forked child and return its result; the child is always reaped."""
    _release_free_heap()
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            _die_with(parent)
            os.close(read_fd)
            try:
                payload = ("ok", fn())
            except BaseException:
                payload, code = ("error", traceback.format_exc()), 1
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            raw = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if not raw:
        raise RuntimeError("benchmark child ended without a result")
    status, value = pickle.loads(raw)
    if status != "ok":
        raise RuntimeError(f"benchmark child failed:\n{value}")
    return value


def run_pass(ops) -> dict:
    """One pass: time each package call, read the peak RSS, then check the output."""
    base_kb = _status_kb("VmRSS")
    peak_kb = base_kb
    busy = 0.0
    failed, wrong, extras = 0, [], {}
    for op in ops:
        t0 = perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, exc
        busy += perf_counter() - t0
        peak_kb = max(peak_kb, _status_kb("VmHWM"))
        if error is not None:
            ok, msg = False, f"raised {error!r}"
        else:
            ok, msg = op.check(out)
            if op.extras is not None:
                for key, value in op.extras(out).items():
                    extras[key] = extras.get(key, 0.0) + value
        del out
        if not ok:
            failed += 1
            if op.known_fault is None:
                wrong.append(f"{op.name}: {msg}")
    return {
        "pass_s": busy,
        "peak_rss_mb": (peak_kb - base_kb) * 1024 / MB,
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "extras": extras,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _workdir(workload: str, seed: int) -> str:
    return str(OUT_DIR / "work" / f"{workload}-{seed}")


def _timed_setup(dk, wl, data, times: list):
    t0 = perf_counter()
    state = wl.setup(dk, data)
    times.append(perf_counter() - t0)
    return state


def untraced(dk, wl, seed: int, seconds: float) -> tuple:
    data = wl.inputs(seed, quick=False, workdir=_workdir(wl.name, seed))
    setup_times = []
    for _ in range(MIN_SETUPS):
        state = _timed_setup(dk, wl, data, setup_times)
    refs = wl.prepare(dk, data, state)
    ops = wl.ops(dk, data, refs, state)
    passes = []
    t_start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - t_start < seconds:
        passes.append(in_child(lambda: run_pass(ops)))
        slice_end = perf_counter() + SETUP_SLICE_S
        while perf_counter() < slice_end:
            _timed_setup(dk, wl, data, setup_times)
    metrics = {
        "setup_s": {"value": _median(setup_times), "unit": "s"},
        "pass_s": {"value": _median(p["pass_s"] for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": _median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
    }
    info = {
        "setups": len(setup_times),
        "passes": len(passes),
        "pass_samples": ",".join(f"{p['pass_s']:.3f}" for p in passes),
    }
    return passes, metrics, info


def _traced_round(dk, wl, data, refs) -> list:
    """An untraced pass, then the package wrapped and a traced set-up and pass.

    The two passes run back to back in one child, so their difference (the
    tracing overhead) is taken at one host speed; the free heap is returned
    between them, so both pay the same first-touch page faults.
    """
    plain = run_pass(wl.ops(dk, data, refs, wl.setup(dk, data)))
    _release_free_heap()
    tracer = spans.Tracer()
    spans.rebind(dk, tracer.wrapper)
    result = run_pass(wl.ops(dk, data, refs, wl.setup(dk, data)))
    arrays = tracer.arrays()
    result["layers"] = spans.layer_metrics(arrays, tracer.counters)
    result["spans"] = arrays
    result["overhead_s"] = result["pass_s"] - plain["pass_s"]
    return [plain, result]


def import_seconds() -> float:
    """Median time for a fresh interpreter to import displacement_kit.cli."""
    code = (
        "import time; t = time.perf_counter(); import displacement_kit.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return _median(samples)


def traced(dk, wl, seed: int, seconds: float) -> tuple:
    data = wl.inputs(seed, quick=False, workdir=_workdir(wl.name, seed))
    refs = wl.prepare(dk, data, wl.setup(dk, data))
    passes, traced_rounds = [], []
    t_start = perf_counter()
    while not traced_rounds or perf_counter() - t_start < seconds:
        plain, result = in_child(lambda: _traced_round(dk, wl, data, refs))
        passes += [plain, result]
        traced_rounds.append(result)
    layers = [r["layers"] for r in traced_rounds]
    counts = {k: v for k, v in layers[0].items() if not k.endswith("self_s")}
    for other in layers[1:]:
        for key, value in counts.items():
            if other[key] != value:
                print(f"warning: {key} differs between traced rounds: {value} vs {other[key]}",
                      file=sys.stderr)
    metrics = {}
    for metric, _, stat in spans.LAYER_METRICS:
        value = counts[metric] if stat == "calls" else _median(l[metric] for l in layers)
        metrics[metric] = {"value": value, "unit": "count" if stat == "calls" else "s"}
    metrics["displacement_calculus.poly_apply.r_applies_per_call"] = {
        "value": counts["displacement_calculus.poly_apply.r_applies_per_call"],
        "unit": "applies/call",
    }
    for key in ("resolvent_yosida.series.r_applies", "iteration_lab.proximal_point.iterations"):
        metrics[key] = {"value": counts[key], "unit": "count"}
    metrics["cli.stdout_mb"] = {
        "value": traced_rounds[0]["extras"].get("cli.stdout_mb", 0.0), "unit": "MB"
    }
    metrics["cli.import_s"] = {"value": import_seconds(), "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": _median(r["overhead_s"] for r in traced_rounds), "unit": "s"
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans.save(OUT_DIR / f"trace-{wl.name}.npz", [r["spans"] for r in traced_rounds])
    info = {"traced_rounds": len(traced_rounds)}
    return passes, metrics, info


def negative_control(dk, seed: int) -> bool:
    """Run each workload at a small size and show that every check rejects
    an output perturbed by a relative 1e-6."""

    def perturbing(span, fn):
        if span != "displacement_calculus.PolynomialOperator.apply":
            return fn
        rng = np.random.default_rng(seed)

        def wrong(self, x):
            out = fn(self, x)
            scale = max(float(np.max(np.abs(out))), float(np.max(np.abs(np.asarray(x)))))
            return workloads.perturb_array(out, scale, rng)

        return wrong

    all_ok = True
    rng = np.random.default_rng(seed)
    for wl in workloads.WORKLOADS.values():
        data = wl.inputs(seed, quick=True, workdir=_workdir(wl.name, seed) + "-quick")
        state = wl.setup(dk, data)
        ops = wl.ops(dk, data, wl.prepare(dk, data, state), state)
        tally = {"ops": 0, "accepted": 0, "rejected": 0, "missed": 0, "faults": 0}
        for op in ops:
            tally["ops"] += 1
            try:
                out = op.call()
                ok, msg = op.check(out)
            except Exception as exc:
                out, ok, msg = None, False, f"raised {exc!r}"
            if op.known_fault is not None:
                tally["faults"] += 1
                print(f"  {wl.name}: {op.name} fails as known ({msg})")
                continue
            if not ok:
                all_ok = False
                print(f"  {wl.name}: {op.name} REJECTS THE TRUE OUTPUT: {msg}")
                continue
            tally["accepted"] += 1
            variants = op.perturb(out, rng) if op.perturb else []
            if op.inject:
                with spans.patched(dk, perturbing):
                    variants.append(op.call())
            if not variants:
                all_ok = False
                print(f"  {wl.name}: {op.name} has no negative control")
            for wrong in variants:
                ok, _ = op.check(wrong)
                if ok:
                    all_ok = False
                    tally["missed"] += 1
                    print(f"  {wl.name}: {op.name} ACCEPTS A PERTURBED OUTPUT")
                else:
                    tally["rejected"] += 1
        print(f"{wl.name}: {json.dumps(tally)}")
    return all_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="run every workload small and check that perturbed outputs fail")
    args = parser.parse_args(argv)

    dk = _load_package()
    if args.negative_control:
        ok = negative_control(dk, args.seed)
        print("negative control:", "every check rejected every perturbed output" if ok else "FAILED")
        return 0 if ok else 1

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds is None:
        parser.error("--seconds is required with --workload")
    wl = workloads.WORKLOADS[args.workload]
    run = traced if args.trace else untraced
    rounds, metrics, info = run(dk, wl, args.seed, args.seconds)
    wrong = [w for r in rounds for w in r["wrong"]]
    for line in sorted(set(wrong)):
        print(f"wrong output: {line}", file=sys.stderr)
    print(f"{wl.name} seed={args.seed} " + " ".join(f"{k}={v}" for k, v in info.items()),
          file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
