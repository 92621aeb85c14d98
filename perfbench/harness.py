"""Run one gderive CLI job with the library's functions wrapped in spans.

    python3 perfbench/harness.py SPANS_FILE JOB_ID -- <gderive arguments>

The library is imported unchanged; every public function of each layer
module (plus the few named in ``EXTRA``) is replaced by a wrapper in its
defining module, and every alias of it that another ``gderive`` module
imported by name (``derivations.bracket``, ``linalg.rref_int``,
``cli.derivation_space`` ...) is rebound to the same wrapper. A span is
[name, start, end, parent, attrs]; spans stay in memory and are written to
SPANS_FILE as JSON when the job ends. Stdout and the exit code are the
CLI's own.

Counting that the benchmark adds (input sizes, bit lengths, memo reuse)
runs in a ``trace.accounting`` span beside the measured call, so it is
excluded from every layer's self time.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

LAYERS = (
    "cli", "reproduce", "sl2", "hilbert", "derivations", "polynomials",
    "algebra", "linalg", "_kernels",
)

# Functions wrapped beyond the public module-level ones: the two
# constructors the linear layer coerces through, and the S-polynomial,
# so that remainders of S-pairs can be told from interreduction.
EXTRA = (
    ("linalg", "Matrix.from_rows"),
    ("linalg", "Subspace.span"),
    ("polynomials", "_spoly"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.last_spoly = None
        self.groebner_seen = {}
        self.missing = []

    def wrap(self, name, fn, account=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if account is not None:
                start = perf_counter()
                span[4] = account(parent, args, result)
                spans.append(["trace.accounting", start, perf_counter(), parent, None])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- accounting hooks: return the span's attrs ------------------------

    def _parent_layer(self, parent):
        return self.spans[parent][0].split(".", 1)[0] if parent >= 0 else ""

    def account_rref(self, parent, args, result):
        rows = args[0]
        cells = nnz = bits = 0
        for row in rows:
            cells += len(row)
            for a in row:
                if a:
                    nnz += 1
                    b = a.bit_length() if a > 0 else (-a).bit_length()
                    if b > bits:
                        bits = b
        return {"cells": cells, "nnz": nnz, "bits": bits}

    def account_system(self, parent, args, result):
        if self._parent_layer(parent) != "derivations":
            return None
        m = args[0]
        nnz = sum(1 for row in m.entries for a in row if a)
        return {"rows": m.rows, "cols": m.cols, "nnz": nnz}

    def account_spoly(self, parent, args, result):
        self.last_spoly = result
        return None

    def account_remainder(self, parent, args, result):
        spair = args[0] is self.last_spoly
        if spair:
            self.last_spoly = None
        return {"spair": spair, "zero": bool(result.is_zero)}

    def account_groebner(self, parent, args, result):
        seen = self.groebner_seen.setdefault(args[0], [])
        reused = any(r is result for r in seen)
        if not reused:
            seen.append(result)
        return {"reused": reused}

    # -- installation ------------------------------------------------------

    def install(self):
        import gderive._kernels
        import gderive.cli
        import gderive.reproduce

        modules = {
            layer: sys.modules[f"gderive.{layer}"] for layer in LAYERS
        }
        accounts = {
            "_kernels.rref_int": self.account_rref,
            "linalg.kernel_basis": self.account_system,
            "linalg.solve": self.account_system,
            "polynomials._spoly": self.account_spoly,
            "polynomials.remainder": self.account_remainder,
            "polynomials.groebner": self.account_groebner,
        }
        replaced = {}
        for layer, module in modules.items():
            label = layer.lstrip("_")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                defined_here = getattr(fn, "__module__", None) == module.__name__
                if not (defined_here or (layer == "_kernels" and attr == "rref_int")):
                    continue
                key = f"{layer}.{attr}"
                wrapper = self.wrap(f"{label}.{attr}", fn, accounts.get(key))
                setattr(module, attr, wrapper)
                replaced[id(fn)] = (fn, wrapper)
        for layer, path in EXTRA:
            module = modules[layer]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = owner.__dict__.get(attr) if owner_name else vars(module).get(attr)
            if fn is None:
                self.missing.append(f"{layer}.{path}")
                continue
            static = isinstance(fn, staticmethod)
            raw = fn.__func__ if static else fn
            wrapper = self.wrap(f"{layer}.{path}", raw, accounts.get(f"{layer}.{path}"))
            setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
            replaced[id(raw)] = (raw, wrapper)
        # Rebind every alias imported by name into another gderive module.
        for name, module in list(sys.modules.items()):
            if not (name == "gderive" or name.startswith("gderive.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        # Each row of the reproduce table gets its own span.
        runners = getattr(modules["reproduce"], "_RUNNERS", None)
        if isinstance(runners, dict):
            for key, (title, runner) in list(runners.items()):
                runners[key] = (title, self.wrap(f"reproduce.row.{key}", runner))
        else:
            self.missing.append("reproduce._RUNNERS")
        return modules["cli"]


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_file, job_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    cli = tracer.install()
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(
                {"job": job_id, "spans": tracer.spans, "missing": tracer.missing},
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
