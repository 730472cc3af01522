"""Pipeline benchmark: build -> solve -> decode under two workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload energy --seed 0 --seconds 40 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass
over the pool and reports per-layer self times and work counters, and
writes the spans to ``.bench_out/<workload>-seed<seed>.json``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import os  # noqa: E402

# The program runs on the one client thread: no BLAS helper threads
# compete for the machine's few cores.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_p50_s": "s",
    "requests_per_s": "1/s",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("energy", "whatif"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: repro imported from outside the checkout: "
                 f"{repro.__file__}")


def code_digest() -> str:
    """Hash of the program and benchmark sources."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    h.update((HERE / "references.json").read_bytes())
    return h.hexdigest()


def environment() -> dict[str, object]:
    """Versions the deterministic counters depend on (scipy bundles
    HiGHS), plus the core count."""
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
    }


def setup(workload, seed: int, references: dict[str, float]):
    """Generate inputs and run one untimed warm-up request."""
    from harness import check

    state = workload.generate(seed)
    workload.start_pass(state)
    result = workload.request(state, state.warmup)
    ok, reason = check(workload, state, state.warmup, result,
                       references.get(state.warmup.key))
    if not ok:
        raise RuntimeError(f"warm-up {state.warmup.key}: {reason}")
    return state


def deterministic_part(tracer, records) -> dict:
    """The counters that must repeat exactly for one code and seed."""
    from layers import COUNTERS

    return {
        "totals": {
            f"{layer}.{key}": tracer.counters[layer][key]
            for layer, keys in COUNTERS.items() for key in keys
        },
        "requests": {r.key: r.counters for r in records},
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # Native solver output must not land after the result line.
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    import_program()
    import_s = time.perf_counter() - _START

    sys.path.insert(0, str(HERE))
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    references = json.loads((HERE / "references.json").read_text())
    references = references[workload.name]

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = setup(workload, args.seed, references)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    if not args.trace:
        records, passes = harness.run_timed(
            workload, state, references, args.seconds
        )
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = harness.end_to_end(records, setup_s, rss)
        units = END_TO_END_UNITS
        nondet = harness.nondeterministic(records)
        if nondet:
            print(f"perfbench: nondeterministic counters: {nondet}",
                  file=sys.stderr)
        print(f"perfbench: {workload.name} seed {args.seed}: p50 over "
              f"{len(records)} requests in {passes} pass(es)", file=sys.stderr)
    else:
        from spans import Tracer

        untraced = harness.run_pass(workload, state, references)
        tracer = Tracer()
        traced = harness.run_pass(workload, state, references, tracer)
        # Each pass starts from a fresh cache, so this is the pass's own.
        metrics, absent = harness.per_layer(
            workload, tracer, traced, untraced,
            workload.cache_partial_reuse(state),
        )
        records = untraced + traced
        units = {name: per_layer_unit(name) for name in metrics}
        if absent or tracer.missing:
            print(f"perfbench: ABSENT layers on {workload.name}: {absent}; "
                  f"missing wrap targets: {tracer.missing}", file=sys.stderr)
        metrics["trace.nondeterministic"] += write_trace(
            workload.name, args.seed, deterministic_part(tracer, traced),
            tracer, absent,
        )

    failed = [r for r in records if not r.ok]
    for r in failed:
        print(f"perfbench: FAILED {r.key}: {r.reason}", file=sys.stderr)
    line = json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    })
    result_out.write(line + "\n")
    result_out.flush()
    return 0


def write_trace(
    workload: str, seed: int, counters: dict, tracer, absent: list[str],
) -> int:
    """Write this traced run's spans and counters; return the number of
    counters that differ from an earlier traced run of the same code,
    versions and seed, if one was written."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.json"
    digest = code_digest()
    env = environment()
    mismatches = 0
    if path.exists():
        previous = json.loads(path.read_text())
        if previous.get("digest") == digest and previous.get("env") == env:
            before = previous["deterministic"]
            for section in ("totals", "requests"):
                for key, value in counters[section].items():
                    if before[section].get(key) != value:
                        mismatches += 1
                        print(f"perfbench: NONDETERMINISTIC {section} {key}: "
                              f"{before[section].get(key)} -> {value}",
                              file=sys.stderr)
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "digest": digest,
        "env": env,
        "absent": absent,
        "deterministic": counters,
        **tracer.to_json(),
    }))
    return mismatches


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
