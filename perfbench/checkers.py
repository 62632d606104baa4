"""Output checkers for the benchmark workloads.

Each checker reads the text a ``splitpile`` command printed and returns a
list of problems; an empty list means the output is correct.  Nothing here
imports ``splitpile``: the counts, the burning test, the parallel toppling
simulation and the verify task list are written out again from the
definitions, so a fault in the program cannot hide itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

CSV_HEADER = "config,height,topple_cti,wtopple_cti"

#: The q,t-polynomial of S(2,2) as printed in the paper, {(q, t): coefficient}.
PAPER_POLY_22 = {
    (5, 0): 1, (0, 5): 1, (4, 1): 1, (1, 4): 1, (3, 2): 1, (2, 3): 1,
    (4, 0): 1, (0, 4): 1, (3, 1): 2, (1, 3): 2, (2, 2): 2, (3, 0): 2,
    (0, 3): 2, (2, 1): 3, (1, 2): 3, (2, 0): 1, (0, 2): 1, (1, 1): 2,
    (1, 0): 1, (0, 1): 1,
}


def recurrent_count(n: int, d: int) -> int:
    """Sorted recurrent configurations on S(n, d): C(2n+d, n) C(n+d, n) / (n+1)."""
    return math.comb(2 * n + d, n) * math.comb(n + d, n) // (n + 1)


def itc_sequence_count(n: int, d: int) -> int:
    """ITC toppling sequences on S(n, d), the terms of ``poly --method itc-sum``."""
    return sum(math.comb(d + j, d) * math.comb(n - 1, j - 1) for j in range(1, n + 1))


def composition_pair_count(n: int, d: int) -> int:
    """(composition of n into k parts, weak composition of d into k+1 parts)
    pairs, the terms of ``poly --method egge``."""
    return sum(math.comb(n - 1, k - 1) * math.comb(d + k, d) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# sandpile rules, written from the graph's definition
# ---------------------------------------------------------------------------

def is_recurrent(n: int, d: int, clique: tuple, indep: tuple) -> bool:
    """Dhar's burning test on S(n, d) for any stable configuration.

    The sink fires first; a vertex burns once the grains it holds plus one
    per burnt neighbour reach its degree.  Clique vertices (degree n+d)
    neighbour the sink and every other vertex; independent vertices
    (degree n+1) neighbour the sink and the clique.  No ordering of the
    entries is assumed.
    """
    k_left = list(range(n))
    i_left = list(range(d))
    burnt_k = burnt_i = 0
    while k_left or i_left:
        fire_k = [v for v in k_left if clique[v] + 1 + burnt_k + burnt_i >= n + d]
        fire_i = [v for v in i_left if indep[v] + 1 + burnt_k >= n + 1]
        if not fire_k and not fire_i:
            return False
        k_left = [v for v in k_left if v not in fire_k]
        i_left = [v for v in i_left if v not in fire_i]
        burnt_k += len(fire_k)
        burnt_i += len(fire_i)
    return True


def cti_block_sizes(n: int, d: int, clique: tuple, indep: tuple) -> tuple:
    """Block sizes (p1, q1, ..., pt, qt) of CTI toppling, by simulation.

    The sink topples, then each round topples every unstable clique vertex
    at once and then every unstable independent vertex at once, until a
    round topples nothing.  Returns None if the run does not come back to
    the starting configuration.
    """
    a = [x + 1 for x in clique]
    b = [x + 1 for x in indep]
    sizes = []
    for _ in range(n + d + 1):
        hot = [i for i in range(n) if a[i] >= n + d]
        for i in range(n):
            a[i] += len(hot) - (n + d + 1 if i in hot else 0)
        b = [x + len(hot) for x in b]
        hot_i = [j for j in range(d) if b[j] >= n + 1]
        for j in hot_i:
            b[j] -= n + 1
        a = [x + len(hot_i) for x in a]
        if not hot and not hot_i:
            break
        sizes += [len(hot), len(hot_i)]
    if tuple(a) != tuple(clique) or tuple(b) != tuple(indep):
        return None
    return tuple(sizes)


def _parse_config(text: str, n: int, d: int):
    left, _, right = text.partition(";")
    clique = tuple(int(x) for x in left.split(",") if x)
    indep = tuple(int(x) for x in right.split(",") if x)
    if len(clique) != n or len(indep) != d:
        raise ValueError(f"{text!r} does not fit S({n},{d})")
    return clique, indep


# ---------------------------------------------------------------------------
# enum-stream: ``enumerate recurrent --format csv``
# ---------------------------------------------------------------------------

def check_enum_csv(text: str, n: int, d: int, rng: random.Random, sample: int = 500) -> list[str]:
    """Every sorted recurrent configuration once, in decreasing order, with
    its height, CTI block sizes and wtopple; ``sample`` rows chosen by
    ``rng`` are re-simulated under parallel toppling."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"header is {lines[:1]!r}, expected {CSV_HEADER!r}"]
    problems: list[str] = []
    expected = recurrent_count(n, d)
    if len(lines) - 1 != expected:
        problems.append(f"{len(lines) - 1} rows, expected {expected}")
    rows = []
    previous = None
    for lineno, row in enumerate(csv.reader(io.StringIO("\n".join(lines[1:]))), start=2):
        try:
            config, height, sizes_text, wtopple = row
            clique, indep = _parse_config(config, n, d)
            sizes = tuple(int(x) for x in sizes_text.split())
            height, wtopple = int(height), int(wtopple)
        except ValueError as exc:
            problems.append(f"line {lineno}: cannot parse {row!r}: {exc}")
            continue
        key = clique + indep
        if previous is not None and not key < previous:
            problems.append(f"line {lineno}: {config} does not come strictly after the row above")
        previous = key
        if any(x < y for x, y in zip(clique, clique[1:])) or any(
            x < y for x, y in zip(indep, indep[1:])
        ):
            problems.append(f"line {lineno}: {config} is not sorted")
        elif min(key) < 0 or max(clique) >= n + d or (d and max(indep) >= n + 1):
            problems.append(f"line {lineno}: {config} is not stable and non-negative")
        elif not is_recurrent(n, d, clique, indep):
            problems.append(f"line {lineno}: {config} is not recurrent")
        if height != sum(key):
            problems.append(f"line {lineno}: height {height} but {sum(key)} grains")
        pairs = list(zip(sizes[0::2], sizes[1::2]))
        if len(sizes) % 2 or sum(sizes) != n + d:
            problems.append(f"line {lineno}: block sizes {sizes} do not cover {n + d} vertices")
        elif wtopple != sum(i * (p + q) for i, (p, q) in enumerate(pairs, start=1)):
            problems.append(f"line {lineno}: wtopple {wtopple} does not match sizes {sizes}")
        rows.append((lineno, clique, indep, sizes))
        if len(problems) > 20:
            return problems
    for lineno, clique, indep, sizes in rng.sample(rows, min(sample, len(rows))):
        simulated = cti_block_sizes(n, d, clique, indep)
        if simulated != sizes:
            problems.append(f"line {lineno}: CTI sizes {sizes}, simulation gives {simulated}")
    return problems


# ---------------------------------------------------------------------------
# qt-sums: ``poly --method itc-sum`` and ``poly --method egge``
# ---------------------------------------------------------------------------

def parse_poly(text: str) -> dict:
    """{(q, t): c} from the one-line JSON ``poly`` prints."""
    lines = text.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one line, got {len(lines)}")
    terms = {}
    for term in json.loads(lines[0])["terms"]:
        key = (int(term["q"]), int(term["t"]))
        if key in terms or int(term["c"]) == 0:
            raise ValueError(f"repeated or zero term {term}")
        terms[key] = int(term["c"])
    return terms


def check_polys(outputs: dict[str, str], n: int, d: int) -> list[str]:
    """All methods print the same polynomial; it counts the sorted recurrent
    configurations at q = t = 1 and is symmetric under q <-> t."""
    polys = {}
    problems = []
    for method, text in outputs.items():
        try:
            polys[method] = parse_poly(text)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{method}: unreadable polynomial: {exc}")
    if problems:
        return problems
    (first, reference), *others = polys.items()
    for method, poly in others:
        if poly != reference:
            diff = sorted(k for k in reference.keys() | poly.keys() if reference.get(k) != poly.get(k))
            problems.append(f"{method} differs from {first} at (q,t) exponents {diff[:5]}")
    for method, poly in polys.items():
        if sum(poly.values()) != recurrent_count(n, d):
            problems.append(f"{method}: value at (1,1) is {sum(poly.values())}, expected {recurrent_count(n, d)}")
        if any(poly.get((t, q)) != c for (q, t), c in poly.items()):
            problems.append(f"{method}: not symmetric under q <-> t")
    return problems


def check_paper_poly(text: str) -> list[str]:
    """The S(2,2) polynomial, term for term as printed in the paper."""
    try:
        poly = parse_poly(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable polynomial: {exc}"]
    if poly != PAPER_POLY_22:
        return [f"S(2,2) polynomial {sorted(poly.items())} differs from the paper"]
    return []


# ---------------------------------------------------------------------------
# verify-all: ``verify all --max-n N --max-d D``
# ---------------------------------------------------------------------------

#: Every per-shape check of ``verify all``, with the (n, d) cap it runs under.
SHAPE_CHECKS = {
    "phi_roundtrip": None,
    "mirror_involution": None,
    "word_polyomino_validity": (4, 3),
    "config_polyomino_route": None,
    "area_equals_level": None,
    "bounce_equals_wtopple": None,
    "peaks_coincide": None,
    "bounce_formulations_agree": None,
    "polyomino_statistics": None,
    "itc_sequence_description": None,
    "recurrent_count": None,
    "itc_identity_chain": None,
    "abelian_stabilization": (4, 3),
    "burning_returns_start": None,
    "operator_laws": (4, 4),
    "weight_laws": (4, 4),
    "class_partition": (4, 3),
    "qt_cti_equals_itc": None,
    "qt_cti_equals_schroder": None,
    "bistatistic_bijection_exists": None,
    "fiber_intervals": (4, 3),
    "sequence_counts": None,
}


def verify_all_reports(max_n: int, max_d: int) -> set:
    """The (check, params) pairs ``verify all`` must report over the range."""
    expected = set()
    for check, cap in SHAPE_CHECKS.items():
        top_n, top_d = (max_n, max_d) if cap is None else (min(max_n, cap[0]), min(max_d, cap[1]))
        for n in range(1, top_n + 1):
            for d in range(top_d + 1):
                expected.add((check, (("d", d), ("n", n))))
    expected.add(("hexagon_multinomial", (("limit", 4),)))
    expected.add(("cell_exchange", (("limit", 8),)))
    for n in range(1, min(max_n, 5) + 1):
        expected.add(("partition_sum_identity", (("n", n),)))
    return expected


def check_verify(stdout: str, stderr: str, exit_code: int, max_n: int, max_d: int) -> list[str]:
    """Exit status 0, every report passes, and exactly the expected reports."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit status {exit_code}")
    seen = []
    for lineno, line in enumerate(stdout.splitlines(), start=1):
        try:
            report = json.loads(line)
            key = (report["check"], tuple(sorted(report["params"].items())))
        except (ValueError, KeyError, AttributeError) as exc:
            problems.append(f"line {lineno}: unreadable report: {exc}")
            continue
        if report.get("status") != "pass":
            problems.append(f"line {lineno}: {key} has status {report.get('status')!r}")
        seen.append(key)
    if len(set(seen)) != len(seen):
        problems.append(f"{len(seen) - len(set(seen))} repeated reports")
    expected = verify_all_reports(max_n, max_d)
    missing, extra = expected - set(seen), set(seen) - expected
    if missing:
        problems.append(f"{len(missing)} reports missing, e.g. {sorted(missing)[:3]}")
    if extra:
        problems.append(f"{len(extra)} unexpected reports, e.g. {sorted(extra)[:3]}")
    summary = f"{len(expected)}/{len(expected)} checks passed"
    if summary not in stderr.splitlines():
        problems.append(f"stderr lacks {summary!r}: {stderr.strip()[-200:]!r}")
    return problems
