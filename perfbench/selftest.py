"""Self-test of the benchmark at tiny size (an sl2-only ladder and family b).

    python3 perfbench/selftest.py

Runs generation, the output checks, the tracer and the report in a few
seconds, and exits 0 when all of the following hold:

* an honest run passes every check and fills every metric named in
  BENCHMARK.json;
* a deliberately corrupted job output is counted as failed, both against
  the committed reference digest and, with no reference, by the
  independent check alone;
* two traced runs of one seed give identical counts.
"""

from __future__ import annotations

import json
import sys

import layers
import run

SEED = 0
CORRUPTED = 0  # index of "derive sl2" in the tiny job list


def corrupt(index: int, stdout: bytes) -> bytes:
    """Add 1 to the first entry of the first basis matrix."""
    if index != CORRUPTED:
        return stdout
    report = json.loads(stdout)
    entry = report["basis"][0]["entries"][0][0]
    report["basis"][0]["entries"][0][0] = str(int(entry) + 1)
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    honest = run.measure("tiny", SEED, 0, trace=False)
    expect(honest["failed"] == 0, f"honest run failed: {honest['failures']}")
    expect(honest["attempted"] == 4, f"attempted {honest['attempted']}, not 4")
    names = set(run.metrics_of(honest, trace=False))
    expect(names == {m["name"] for m in spec["end_to_end"]},
           f"end-to-end metrics {sorted(names)} differ from BENCHMARK.json")
    print(run.row_line(honest))

    for refs, label in ((None, "committed reference"), ({}, "independent check")):
        bad = run.measure("tiny", SEED, 0, trace=False, corrupt=corrupt,
                          references=refs)
        expect(bad["failed"] == 1,
               f"corrupted output not counted as failed by the {label}: "
               f"{bad['failures']}")
        expect("derive sl2" in bad["failures"][0], bad["failures"][0])
        print(f"corrupted output failed ({label}): {bad['failures'][0]}")

    first = run.measure("tiny", SEED, 0, trace=True)
    second = run.measure("tiny", SEED, 0, trace=True)
    expect(first["failed"] == 0 and second["failed"] == 0, "traced run failed")
    expect(not first["missing"], f"functions not traced: {first['missing']}")
    names = set(run.metrics_of(first, trace=True))
    expect(names == {m["name"] for m in spec["per_layer"]},
           f"per-layer metrics differ from BENCHMARK.json: "
           f"{sorted(names ^ {m['name'] for m in spec['per_layer']})}")
    for name in layers.COUNTS:
        expect(first["per_layer"][name] == second["per_layer"][name],
               f"{name} differs between traced runs: "
               f"{first['per_layer'][name]} vs {second['per_layer'][name]}")
    expect(first["per_layer"]["kernels.rref_calls"] > 0, "rref_int never traced")
    expect(first["per_layer"]["polynomials.groebner_calls"] > 0,
           "groebner never traced")
    print("traced counts repeat:",
          {name: first["per_layer"][name] for name in layers.COUNTS})
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
