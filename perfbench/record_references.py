"""Record the reference objective of every pool request.

Each reference is a plain cold solve with default options: the request
itself for ``energy``, and ``cold_resolve`` of the edited
scenario for ``whatif`` (the incremental path must match it).  Run from
the root of a checkout, then commit ``perfbench/references.json``::

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    import repro
    from repro.milp.solution import SolveStatus

    references: dict[str, dict[str, float]] = {}
    for workload in WORKLOADS.values():
        state = workload.generate(0)
        table = references[workload.name] = {}
        for item in [*state.items, state.warmup]:
            key = item.key
            result, reqs, channel = workload.reference_solve(state, item)
            if result.status is not SolveStatus.OPTIMAL:
                raise SystemExit(f"{key}: {result.status.name}")
            report = repro.validate(result.architecture, reqs, channel)
            if not report.ok:
                raise SystemExit(f"{key}: {report.violations[:3]}")
            table[key] = result.objective_value
            print(f"{workload.name} {key} {result.objective_value!r} "
                  f"nodes={result.solution.node_count}", file=sys.stderr)
    path = HERE / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
