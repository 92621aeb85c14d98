"""Per-layer metrics from the spans of a traced pass.

A span's self time is its duration minus the durations of its child
spans. ``<layer>.self_s`` sums self time over every span of the layer
(``linalg.Matrix.from_rows`` is reported apart as ``linalg.from_rows_s``).
A ``<layer>.<function>_s`` metric is the inclusive time of the outermost
calls of that function. ``trace.unattributed_s`` is job wall time outside
``cli.main`` (interpreter start, imports, tracer set-up, writing spans).
"""

from __future__ import annotations

SELF_LAYERS = (
    "cli", "reproduce", "sl2", "hilbert", "derivations", "polynomials",
    "algebra", "linalg",
)

SOLVERS = frozenset(
    f"derivations.{name}"
    for name in (
        "derivation_space", "centroid", "abg_space", "quasiderivation_witness",
        "kernel_phi", "stabilized_space",
    )
)

ROW_KEYS = (
    "cor5.10", "ex4.2", "ex4.6", "prop2.1", "prop4.1", "rem3.7", "thm1.3",
    "thm1.4", "thm1.6", "thm5.1", "thm5.11", "thm5.12", "thm5.2", "thm5.3",
)

# Inclusive timings: metric -> the span names whose outermost calls count.
INCLUSIVE = {
    "algebra.validate_lie_s": ("algebra.validate_lie",),
    "algebra.is_automorphism_s": ("algebra.is_automorphism",),
    "polynomials.groebner_s": ("polynomials.groebner",),
    "polynomials.remainder_s": ("polynomials.remainder",),
    "polynomials.member_s": ("polynomials.member", "polynomials.contains"),
    "polynomials.prime_check_s": ("polynomials.triangular_prime_check",),
    "hilbert.graded_dims_s": ("hilbert.graded_dims",),
}

# Call counts: metric -> span name.
CALLS = {
    "algebra.validate_lie_calls": "algebra.validate_lie",
    "linalg.kernel_calls": "linalg.kernel_basis",
    "kernels.rref_calls": "kernels.rref_int",
    "polynomials.groebner_calls": "polynomials.groebner",
    "polynomials.remainder_calls": "polynomials.remainder",
}

# Counts that must repeat exactly between two traced runs of one seed.
COUNTS = (
    "algebra.validate_lie_calls", "algebra.bracket_calls",
    "derivations.solves", "derivations.system_rows",
    "derivations.system_cols", "derivations.system_nnz",
    "linalg.kernel_calls", "kernels.rref_calls", "kernels.rref_cells",
    "kernels.rref_nnz", "kernels.rref_max_bits", "polynomials.groebner_calls",
    "polynomials.groebner_reuse_ratio", "polynomials.remainder_calls",
    "polynomials.remainder_zero_ratio", "trace.spans",
)

UNITS = {}
for _layer in SELF_LAYERS:
    UNITS[f"{_layer}.self_s"] = "s"
for _name in INCLUSIVE:
    UNITS[_name] = "s"
for _name in COUNTS:
    UNITS[_name] = "count"
UNITS.update({
    "algebra.bracket_s": "s",
    "linalg.from_rows_s": "s",
    "kernels.rref_s": "s",
    "kernels.rref_max_bits": "bits",
    "polynomials.groebner_self_s": "s",
    "polynomials.groebner_reuse_ratio": "ratio",
    "polynomials.remainder_zero_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.accounting_s": "s",
    "trace.overhead_s": "s",
})
for _key in ROW_KEYS:
    UNITS[f"reproduce.row_s.{_key}"] = "s"
METRICS = tuple(UNITS)


def job_metrics(spans: list, job_wall: float) -> dict:
    """Raw sums for one traced job; ``pass_metrics`` adds jobs together."""
    out = {name: 0 for name in METRICS if name != "trace.overhead_s"}
    out.update({"_groebner_reused": 0, "_spair": 0, "_spair_zero": 0})
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    in_derivations = [False] * n
    root_time = 0.0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        layer = name.split(".", 1)[0]
        in_derivations[i] = layer == "derivations" or (
            parent >= 0 and in_derivations[parent]
        )
        if name == "trace.accounting":
            out["trace.accounting_s"] += dur
            continue
        out["trace.spans"] += 1
        if parent < 0:
            root_time += dur
        if name == "linalg.Matrix.from_rows":
            out["linalg.from_rows_s"] += own
        elif layer in SELF_LAYERS:
            out[f"{layer}.self_s"] += own
        for metric, names in INCLUSIVE.items():
            if name in names and not _has_ancestor(spans, parent, names):
                out[metric] += dur
        for metric, target in CALLS.items():
            if name == target:
                out[metric] += 1
        if name == "algebra.bracket" and parent >= 0 and in_derivations[parent]:
            out["algebra.bracket_s"] += dur
            out["algebra.bracket_calls"] += 1
        elif name in SOLVERS:
            out["derivations.solves"] += 1
        elif name == "kernels.rref_int":
            out["kernels.rref_s"] += dur
            out["kernels.rref_cells"] += attrs["cells"]
            out["kernels.rref_nnz"] += attrs["nnz"]
            out["kernels.rref_max_bits"] = max(out["kernels.rref_max_bits"], attrs["bits"])
        elif name in ("linalg.kernel_basis", "linalg.solve") and attrs:
            if attrs["rows"] * attrs["cols"] > (
                out["derivations.system_rows"] * out["derivations.system_cols"]
            ):
                out["derivations.system_rows"] = attrs["rows"]
                out["derivations.system_cols"] = attrs["cols"]
                out["derivations.system_nnz"] = attrs["nnz"]
        elif name == "polynomials.groebner":
            out["polynomials.groebner_self_s"] += own
            out["_groebner_reused"] += attrs["reused"]
        elif name == "polynomials.remainder" and attrs["spair"]:
            out["_spair"] += 1
            out["_spair_zero"] += attrs["zero"]
        elif name.startswith("reproduce.row."):
            key = name[len("reproduce.row."):]
            if f"reproduce.row_s.{key}" in out:
                out[f"reproduce.row_s.{key}"] += dur
    out["trace.unattributed_s"] = job_wall - root_time
    return out


def _has_ancestor(spans, index, names) -> bool:
    while index >= 0:
        if spans[index][0] in names:
            return True
        index = spans[index][3]
    return False


_MAXIMA = ("kernels.rref_max_bits",)
_SYSTEM = ("derivations.system_rows", "derivations.system_cols",
           "derivations.system_nnz")


def pass_metrics(jobs: list) -> dict:
    """Combine the raw sums of a pass's jobs into the reported metrics."""
    total = {}
    for job in jobs:
        for name, value in job.items():
            if name in _MAXIMA:
                total[name] = max(total.get(name, 0), value)
            elif name in _SYSTEM:
                continue
            else:
                total[name] = total.get(name, 0) + value
    largest = max(
        jobs,
        key=lambda j: (j.get("derivations.system_rows", 0)
                       * j.get("derivations.system_cols", 0)),
        default={},
    )
    for name in _SYSTEM:
        total[name] = largest.get(name, 0)
    calls = total.get("polynomials.groebner_calls", 0)
    total["polynomials.groebner_reuse_ratio"] = (
        total.pop("_groebner_reused", 0) / calls if calls else 0.0
    )
    spair = total.pop("_spair", 0)
    zero = total.pop("_spair_zero", 0)
    total["polynomials.remainder_zero_ratio"] = zero / spair if spair else 0.0
    return total
