"""Seeded inputs and job lists for the three benchmark workloads.

Every algebra is built here from structure constants and written as the
JSON the CLI reads, so no input comes from the library under test. A job
is a plain dict: the CLI arguments (with ``@name`` standing for an input
file), the input documents, and what the independent check expects.

Why these workloads (the layer each one loads, and the one it leaves idle):

* ``ladder``: derive, centroid and abg jobs on sl2, h_4, gl_3, gl_4 and
  twisted gl_4, plus one ``--kind plus`` job on twisted gl_3. A few large,
  sparse linear systems (twisted gl_4 is 4096 x 256), so the work lands in
  ``algebra``, ``derivations``, ``linalg`` and ``_kernels``; ``polynomials``
  sits idle.
* ``varieties``: ``sl2 --family b/c/ab`` with symbolic parameters, plus
  ``groebner`` on seeded dense quadric ideals in three variables. The sl2
  ideals are sparse with 10-11 variables and many pairs (pair selection and
  memo reuse dominate); the dense ideals have few pairs and heavy
  coefficient growth (division dominates). The linear layers sit idle.
* ``paper``: one ``reproduce`` process over all 14 rows. Hundreds of tiny
  solves and rank computations, so per-call overhead and in-process memo
  reuse matter more than asymptotics.

BENCHMARK.json lists ``ladder`` and ``paper``. ``varieties`` runs by hand:
with three workloads the time budget allows only 30-second runs, too short
for steady figures on a noisy host (see README.md).
"""

from __future__ import annotations

import random

WORKLOADS = ("ladder", "varieties", "paper")

# The largest job of each workload, reported as largest_job_s.
LARGEST_JOB = {
    "ladder": "derive twisted gl4",
    "varieties": "sl2 family ab",
    "paper": "reproduce",
    "tiny": "derive sl2",
}

# Passes per round. A timing is the median over rounds of the round's mean
# pass time. The host's speed drifts in phases of 10-20 s, so a sample
# shorter than a phase is fast or slow as a whole and the median of such
# samples flips between the two; rounds of 10-15 s average over a phase.
ROUND_PASSES = {"ladder": 1, "varieties": 3, "paper": 4, "tiny": 1}

# ---------------------------------------------------------------------------
# structure constants: {(a, b): {k: c}} for a < b, 0-based, sparse


def sl2_structure() -> dict:
    """Basis (e, h, f): [e,h] = -2e, [e,f] = h, [h,f] = -2f."""
    return {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}}


def heisenberg_structure(k: int) -> dict:
    """h_k on x_1..x_k, y_1..y_k, z with [x_i, y_i] = z."""
    return {(i, k + i): {2 * k: 1} for i in range(k)}


def gl_structure(n: int) -> dict:
    """gl_n on E_ij (flat index i*n + j): [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    structure = {}
    dim = n * n
    for a in range(dim):
        i, j = divmod(a, n)
        for b in range(a + 1, dim):
            k, l = divmod(b, n)
            out = {}
            if j == k:
                out[i * n + l] = out.get(i * n + l, 0) + 1
            if l == i:
                out[k * n + j] = out.get(k * n + j, 0) - 1
            out = {m: c for m, c in out.items() if c}
            if out:
                structure[(a, b)] = out
    return structure


def algebra_json(name: str, dim: int, structure: dict) -> dict:
    return {
        "name": name,
        "dim": dim,
        "brackets": [
            {
                "left": a + 1,
                "right": b + 1,
                "result": [[str(c), k + 1] for k, c in sorted(vec.items())],
            }
            for (a, b), vec in sorted(structure.items())
        ],
    }


def matrix_json(m) -> dict:
    return {
        "rows": len(m),
        "cols": len(m[0]) if m else 0,
        "entries": [[str(a) for a in row] for row in m],
    }


def identity(n: int) -> list:
    return [[int(r == c) for c in range(n)] for r in range(n)]


def unipotent(rng: random.Random, n: int) -> list:
    """Upper unitriangular integer P with every entry above the diagonal
    in {-1, 1}: the sparsity pattern, and so the cost, is the same for
    every seed."""
    return [
        [1 if r == c else (rng.choice((-1, 1)) if c > r else 0) for c in range(n)]
        for r in range(n)
    ]


def inverse_unipotent(p: list) -> list:
    """Exact inverse of an upper unitriangular integer matrix."""
    n = len(p)
    inv = identity(n)
    for c in range(n):
        for r in range(c - 1, -1, -1):
            inv[r][c] = -sum(p[r][k] * inv[k][c] for k in range(r + 1, c + 1))
    return inv


def conjugation(p: list) -> list:
    """Ad P on gl_n: column (k,l) holds the coordinates of P E_kl P^-1."""
    n = len(p)
    q = inverse_unipotent(p)
    return [
        [p[i][k] * q[l][j] for k in range(n) for l in range(n)]
        for i in range(n)
        for j in range(n)
    ]


# ---------------------------------------------------------------------------
# polynomials for the dense quadric ideals

QUADRIC_VARS = ("x", "y", "z")
QUADRIC_COEFFS = tuple(c for c in range(-9, 10) if c)
QUADRIC_MONOMIALS = tuple(
    (a, b, c)
    for a in range(3)
    for b in range(3)
    for c in range(3)
    if a + b + c <= 2
)


def _monomial_text(exps) -> str:
    parts = []
    for name, e in zip(QUADRIC_VARS, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_text(terms: dict) -> str:
    """Text in the CLI's polynomial syntax, highest lex term first."""
    pieces = []
    for exps in sorted(terms, reverse=True):
        c = terms[exps]
        mono = _monomial_text(exps)
        body = (f"{abs(c)}*{mono}" if abs(c) != 1 else mono) if mono else str(abs(c))
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def dense_quadric_ideal(rng: random.Random) -> dict:
    """Three quadrics in x, y, z using all ten monomials: few S-pairs,
    heavy coefficient growth. Coefficients up to 9 in size keep the ideals
    generic (eight points, lex basis of degrees 7, 7, 8), so the cost
    varies little from seed to seed; with coefficients of size 1 to 3 some
    ideals degenerate and one job's time spreads tenfold across seeds."""
    gens = []
    for _ in range(3):
        terms = {m: rng.choice(QUADRIC_COEFFS) for m in QUADRIC_MONOMIALS}
        gens.append(poly_text(terms))
    return {"vars": list(QUADRIC_VARS), "gens": gens}


# ---------------------------------------------------------------------------
# jobs


def _space_job(name, argv, files, structure, dim, kind, sigma=None,
               abg=None, expected_dim=None):
    return {
        "name": name,
        "argv": argv,
        "files": files,
        "check": {
            "type": "space",
            "dim": dim,
            "structure": [[a, b, sorted(vec.items())] for (a, b), vec in
                          sorted(structure.items())],
            "kind": kind,
            "sigma": sigma,
            "abg": abg,
            "expected_dim": expected_dim,
        },
    }


# (alpha, beta, gamma) of the abg jobs: beta != gamma, so the solver runs
# over all ordered basis pairs.
ABG = (0, 1, -1)


def _untwisted_jobs(label, structure, dim, expected_der, kinds):
    alg = algebra_json(label, dim, structure)
    jobs = {
        "derive": lambda: _space_job(
            f"derive {label}",
            ["derive", "--algebra", "@alg", "--sigma", "@sigma"],
            {"alg": alg, "sigma": matrix_json(identity(dim))},
            structure, dim, "plain", sigma=identity(dim),
            expected_dim=expected_der,
        ),
        "centroid": lambda: _space_job(
            f"centroid {label}",
            ["centroid", "--algebra", "@alg"],
            {"alg": alg},
            structure, dim, "centroid",
        ),
        "abg": lambda: _space_job(
            f"abg {label}",
            ["abg", "--algebra", "@alg", "--alpha", str(ABG[0]),
             "--beta", str(ABG[1]), "--gamma", str(ABG[2])],
            {"alg": alg},
            structure, dim, "abg", abg=list(ABG),
        ),
    }
    return [jobs[kind]() for kind in kinds]


def _twisted_job(name, n, p, kind):
    structure = gl_structure(n)
    sigma = conjugation(p)
    argv = ["derive", "--algebra", "@alg", "--sigma", "@sigma"]
    if kind == "plus":
        argv += ["--kind", "plus"]
    return _space_job(
        name, argv,
        {"alg": algebra_json(f"gl{n}", n * n, structure),
         "sigma": matrix_json(sigma)},
        structure, n * n, kind, sigma=sigma,
    )


def ladder_jobs(seed: int, tiny: bool = False) -> list:
    """Untwisted dimensions are checked against dim Der(sl2) = 3,
    dim Der(h_k) = 2k^2 + 3k + 1 and dim Der(gl_n) = n^2. On gl_4 only
    derive runs: its centroid and abg jobs would add 10 s to a pass and
    load the same layers as the twisted gl_4 job."""
    rng = random.Random(seed)
    p4 = unipotent(rng, 4)
    p3 = unipotent(rng, 3)
    every = ("derive", "centroid", "abg")
    jobs = _untwisted_jobs("sl2", sl2_structure(), 3, 3, every)
    if tiny:
        return jobs
    k = 4
    jobs += _untwisted_jobs(
        "h4", heisenberg_structure(k), 2 * k + 1, 2 * k * k + 3 * k + 1, every
    )
    jobs += _untwisted_jobs("gl3", gl_structure(3), 9, 9, every)
    jobs += _untwisted_jobs("gl4", gl_structure(4), 16, 16, ("derive",))
    jobs.append(_twisted_job("derive twisted gl4", 4, p4, "plain"))
    jobs.append(_twisted_job("derive plus twisted gl3", 3, p3, "plus"))
    return jobs


def varieties_jobs(seed: int, tiny: bool = False) -> list:
    families = ("b",) if tiny else ("b", "c", "ab")
    jobs = [
        {
            "name": f"sl2 family {tag}",
            "argv": ["sl2", "--family", tag],
            "files": {},
            "check": {"type": "sl2", "family": tag},
        }
        for tag in families
    ]
    if tiny:
        return jobs
    rng = random.Random(seed)
    for index in range(3):
        ideal = dense_quadric_ideal(rng)
        jobs.append({
            "name": f"groebner quadrics {index}",
            "argv": ["groebner", "--ideal", "@ideal"],
            "files": {"ideal": ideal},
            "check": {"type": "groebner", "ideal": ideal},
        })
    return jobs


def paper_jobs(seed: int, tiny: bool = False) -> list:
    return [{
        "name": "reproduce",
        "argv": ["reproduce"],
        "files": {},
        "check": {"type": "reproduce", "rows": 14},
    }]


def jobs_for(workload: str, seed: int) -> list:
    """The job list of a workload; ``tiny`` is the self-test's sl2-only
    ladder plus family b."""
    if workload == "tiny":
        return ladder_jobs(seed, tiny=True) + varieties_jobs(seed, tiny=True)
    return {
        "ladder": ladder_jobs,
        "varieties": varieties_jobs,
        "paper": paper_jobs,
    }[workload](seed)

