"""Seeded scenario generators, one per workload.

A workload is an endless sequence of *blocks*.  Block ``b`` of workload
``w`` under seed ``s`` is drawn from ``random.Random(f"{w}:{s}:{b}")`` and
holds one scenario per *slot* of the workload, always in the same slot
order.  So every block has the same mix of kinds and sizes, and a run that
stops at a block boundary has run exactly that mix, however fast the
program is.

A scenario is a dict::

    {"slot": "...", "text": "<scenario JSON>" | None,
     "builtin": "<name>" (built-ins only, run by name; text is None),
     "expect": {"exit": 0 | 3, "error": None | "<exception name>", ...}}

``text`` is the exact file the program receives (canonical JSON: sorted
keys, two-space indent, trailing newline), so the same seed gives the same
bytes.  ``expect`` holds what the correctness gate checks besides digests
(see gate.py); the program never sees it.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

# the pinned deep-chain test ideal: a long Frobenius chain in three variables
DEEP_CHAIN = {
    "kind": "testideal",
    "n": 3,
    "gens": [[4, 0, 2], [0, 4, 1], [2, 1, 3]],
    "lambda": "11/2",
    "p": 2,
}

BUILTINS = (
    "counterexample.json",
    "envelope_edge.json",
    "ma_star.json",
    "skeleton_pi.json",
    "testideal_basic.json",
)

# expected values of every boolean the toric-counterexample scenario reports
COUNTEREXAMPLE_FLAGS = {
    "skeletons_equal_unit_triangle": True,
    "sum_with_f_prime_is_concave": True,
    "sum_with_f_prime_equals_min_form": True,
    "sum_with_f_is_concave": False,
    "ma_is_unit_atom_at_1_0": True,
    "restrictions_to_skeleton_agree": True,
    "functions_differ": True,
}


def canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rand_q(rng: random.Random, span: int, den: int) -> Fraction:
    d = rng.randint(1, den)
    return Fraction(rng.randint(-span * d, span * d), d)


def _rand_len(rng: random.Random, den: int = 6) -> Fraction:
    d = rng.randint(1, den)
    return Fraction(rng.randint(d, 3 * d), d)


def _scenario(slot, payload, exit_code=0, error=None, **checks):
    return {
        "slot": slot,
        "text": canonical(payload),
        "expect": {"exit": exit_code, "error": error, **checks},
    }


# ---------------------------------------------------------------------------
# Metrized graphs
# ---------------------------------------------------------------------------


def _grid(rng, k):
    verts = [f"g{r}_{c}" for r in range(k) for c in range(k)]
    edges = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                edges.append((f"g{r}_{c}", f"g{r}_{c + 1}"))
            if r + 1 < k:
                edges.append((f"g{r}_{c}", f"g{r + 1}_{c}"))
    return verts, [(a, b, _rand_len(rng), rng.randint(1, 3)) for a, b in edges]


def _tree_or_cycle(rng, n, extra):
    """Random spanning tree on n vertices plus `extra` chords (cycles)."""
    verts = [f"v{i}" for i in range(n)]
    pairs = [(verts[rng.randrange(i)], verts[i]) for i in range(1, n)]
    for _ in range(extra):
        a, b = rng.sample(verts, 2)
        pairs.append((a, b))
    return verts, [(a, b, _rand_len(rng), rng.randint(1, 3)) for a, b in pairs]


def _graph_json(verts, edges, theta):
    return {
        "vertices": verts,
        "edges": [{"a": a, "b": b, "len": _q(ln), "w": w} for a, b, ln, w in edges],
        "theta": {v: _q(d) for v, d in zip(verts, theta)},
    }


def _theta(rng, n, total_sign):
    """Rational degrees with total > 0 (total_sign = 1) or < 0 (-1)."""
    degs = [_rand_q(rng, 2, 4) for _ in range(n)]
    total = sum(degs)
    target = Fraction(rng.randint(1, 8), rng.randint(1, 4)) * total_sign
    degs[rng.randrange(n)] += target - total
    return degs


def _plf(rng, verts, edges, n_breaks):
    """PL function with `n_breaks` interior breakpoints on random edges."""
    values = {v: _q(_rand_q(rng, 3, 4)) for v in verts}
    per_edge = {}
    for _ in range(n_breaks):
        per_edge.setdefault(rng.randrange(len(edges)), set()).add(rng.randint(1, 7))
    breaks = []
    for e in sorted(per_edge):
        length = edges[e][2]
        for k in sorted(per_edge[e]):
            breaks.append(
                {"edge": e, "offset": _q(length * k / 8), "value": _q(_rand_q(rng, 3, 4))}
            )
    return {"vertex_values": values, "breakpoints": breaks}


def _measure(rng, verts, edges, total, n_atoms):
    """Nonnegative atoms of the given total mass on vertices and interior
    edge points."""
    weights = [rng.randint(1, 5) for _ in range(n_atoms)]
    points, seen = [], set()
    while len(points) < n_atoms:
        if rng.random() < 0.5:
            key = ("v", rng.choice(verts))
            point = {"vertex": key[1]}
        else:
            e = rng.randrange(len(edges))
            k = rng.randint(1, 3)
            key = ("e", e, k)
            point = {"edge": e, "offset": _q(edges[e][2] * k / 4)}
        if key not in seen:
            seen.add(key)
            points.append(point)
    scale = total / sum(weights)
    return {"atoms": [{"point": p, "mass": _q(w * scale)} for p, w in zip(points, weights)]}


def _random_graph(rng, shape, size):
    if shape == "grid":
        return _grid(rng, size)
    return _tree_or_cycle(rng, size, 0 if shape == "tree" else rng.randint(1, 3))


def _curve_envelope(rng, slot, shape, size, n_breaks, infeasible=False):
    verts, edges = _random_graph(rng, shape, size)
    theta = _theta(rng, len(verts), -1 if infeasible else 1)
    payload = {
        "kind": "curve-envelope",
        "graph": _graph_json(verts, edges, theta),
        "f": _plf(rng, verts, edges, n_breaks),
    }
    if infeasible:
        return _scenario(slot, payload, 3, "EnvelopeInfeasible")
    return _scenario(slot, payload)


def _curve_energy(rng, slot, shape, size, n_breaks):
    verts, edges = _random_graph(rng, shape, size)
    payload = {
        "kind": "curve-energy",
        "graph": _graph_json(verts, edges, _theta(rng, len(verts), 1)),
        "f": _plf(rng, verts, edges, n_breaks),
        "g": _plf(rng, verts, edges, n_breaks),
    }
    return _scenario(slot, payload)


def _curve_orthogonality(rng, slot, shape, size, n_breaks):
    verts, edges = _random_graph(rng, shape, size)
    payload = {
        "kind": "curve-orthogonality",
        "graph": _graph_json(verts, edges, _theta(rng, len(verts), 1)),
        "f": _plf(rng, verts, edges, n_breaks),
    }
    return _scenario(slot, payload, flags={"residual_is_zero": True})


def _curve_solve_ma(rng, slot, shape, size, n_atoms):
    verts, edges = _random_graph(rng, shape, size)
    theta = _theta(rng, len(verts), 1)
    payload = {
        "kind": "curve-solve-ma",
        "graph": _graph_json(verts, edges, theta),
        "measure": _measure(rng, verts, edges, sum(theta), n_atoms),
        "anchor": rng.choice(verts),
    }
    return _scenario(slot, payload)


def curve_block(rng: random.Random) -> list:
    """The curve slots of a curve-cli-mix block: fourteen slots of fixed
    kind, shape and size, so that blocks differ in their rationals and tree
    shapes, not in their sizes.  One is an infeasible envelope.  The three
    4x4 grid envelopes sit in the middle of a block's cost order, so the
    median scenario time falls among samples of one kind."""
    return [
        _curve_envelope(rng, "env-tree", "tree", 10, 2),
        _curve_envelope(rng, "env-cycle", "cycle", 9, 2),
        _curve_envelope(rng, "env-tree-fine", "tree", 5, 8),
        _curve_envelope(rng, "env-grid4", "grid", 4, 2),
        _curve_envelope(rng, "env-grid4b", "grid", 4, 2),
        _curve_envelope(rng, "env-grid4c", "grid", 4, 2),
        _curve_envelope(rng, "env-grid5", "grid", 5, 1),
        _curve_envelope(rng, "env-grid6", "grid", 6, 1),
        _curve_envelope(rng, "env-infeasible", "cycle", 8, 2, infeasible=True),
        _curve_energy(rng, "energy", "tree", 8, 2),
        _curve_orthogonality(rng, "orthogonality", "cycle", 10, 2),
        _curve_solve_ma(rng, "ma-cycle", "cycle", 14, 5),
        _curve_solve_ma(rng, "ma-grid5", "grid", 5, 4),
        _curve_solve_ma(rng, "ma-grid7", "grid", 7, 4),
    ]


# ---------------------------------------------------------------------------
# Test ideals
# ---------------------------------------------------------------------------


# Largest query box (product over coordinates of lambda * max exponent + 1)
# a random ideal may have.  The membership-query cost of a test ideal grows
# with this box; the cap keeps one random scenario from dominating a run.
MAX_QUERY_BOX = 3_000


def _ideal_payload(rng, n, p, max_lam, max_exp):
    while True:
        g = rng.randint(2, 4)
        gens = set()
        while len(gens) < g:
            gens.add(tuple(rng.randint(0, max_exp) for _ in range(n)))
        den = rng.randint(1, 6)
        lam = Fraction(rng.randint(1, max_lam * den), den)
        box = 1
        for i in range(n):
            box *= lam * max(u[i] for u in gens) + 1
        if box <= MAX_QUERY_BOX:
            break
    return {"kind": "testideal", "n": n, "gens": [list(u) for u in sorted(gens)],
            "lambda": _q(lam), "p": p}


def _ideal(rng, slot, n, p, max_lam, max_exp):
    payload = _ideal_payload(rng, n, p, max_lam, max_exp)
    return _scenario(slot, payload, flags={"newton_agrees": True})


def _renamed_deep_chain(rng, slot):
    """The deep chain with x and y swapped or not (seeded): the same ideal
    up to renaming.  Both orders cost about the same; the third variable
    stays last, because moving it changes the query cost by up to 40%."""
    perm = rng.choice(((0, 1, 2), (1, 0, 2)))
    payload = dict(DEEP_CHAIN, gens=[[u[i] for i in perm] for u in DEEP_CHAIN["gens"]])
    return _scenario(slot, payload, flags={"newton_agrees": True})


def _varied_deep_chain(rng, slot):
    """The deep chain's generators with the variables in a seeded order and
    a seeded lambda in {5, 11/2, 6}: eighteen ideals whose costs spread
    over about 0.5x to 1.3x the pinned chain's."""
    perm = rng.choice(list(itertools.permutations(range(3))))
    payload = dict(DEEP_CHAIN, gens=[[u[i] for i in perm] for u in DEEP_CHAIN["gens"]])
    payload["lambda"] = rng.choice(("5", "11/2", "6"))
    return _scenario(slot, payload, flags={"newton_agrees": True})


def testideal_block(rng: random.Random) -> list:
    """One testideal-mix block: eight small ideals in two variables (two
    per prime; exponents <= 4, lambda <= 2), four larger ones in three (one
    per prime; exponents <= 6, lambda <= 6), the pinned deep chain, a
    renamed copy of it and two varied deep chains.  The four deep chains
    are a quarter of the samples, so p90 lies well inside their group:
    nearer its edge, p90 jumps whenever the machine's speed changes for a
    part of a run."""
    out = [_ideal(rng, f"n2-p{p}{k}", 2, p, 2, 4) for p in (2, 3, 5, 7) for k in "ab"]
    out += [_ideal(rng, f"n3-p{p}", 3, p, 6, 6) for p in (2, 3, 5, 7)]
    out.append(_scenario("deep-chain", DEEP_CHAIN, flags={"newton_agrees": True}))
    out.append(_renamed_deep_chain(rng, "deep-chain-renamed"))
    out += [_varied_deep_chain(rng, f"deep-chain-varied-{k}") for k in "ab"]
    return out


# ---------------------------------------------------------------------------
# Toric files on the pinned complexes, and CLI runs (for curve-cli-mix)
# ---------------------------------------------------------------------------

# the two pinned complexes of skelpot.fixtures, as (points, rays) per cell
PI_CELLS = (
    (((0, 0), (1, 0), (0, 1)), ()),
    (((0, 1), (1, 0)), ((1, 0),)),
    (((1, 0),), ((-1, -1), (1, 0))),
    (((0, 1),), ((1, 0), (0, 1))),
    (((0, 1),), ((-1, -1), (0, 1))),
    (((0, 0), (0, 1)), ((-1, -1),)),
    (((0, 0), (1, 0)), ((-1, -1),)),
)
PI_PRIME_CELLS = (
    (((0, 0), (1, 0), (0, 1)), ()),
    (((1, 0),), ((1, 0), (0, 1))),
    (((1, 0),), ((-1, -1), (1, 0))),
    (((1, 0), (0, 1)), ((0, 1),)),
    (((0, 1),), ((-1, -1), (0, 1))),
    (((0, 0), (0, 1)), ((-1, -1),)),
    (((0, 0), (1, 0)), ((-1, -1),)),
)
# f + psi on Pi (not concave) and f' + psi on Pi' (concave), one affine
# piece (grad, const) per cell, as the fixture's add_support gives them
PI_NONCONCAVE = (
    ((1, 0), 0), ((0, -1), 1), ((0, 1), 1), ((0, 0), 0),
    ((1, 0), 0), ((1, 0), 0), ((1, 0), 0),
)
PI_PRIME_CONCAVE = (
    ((1, 0), 0), ((0, 0), 1), ((0, 1), 1), ((1, 0), 0),
    ((1, 0), 0), ((1, 0), 0), ((1, 0), 0),
)
_UNIMODULAR = (((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)), ((-1, 0), (0, -1)))


def _apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _placed_complex(rng, cells):
    """A pinned complex moved by a unimodular map and an integer shift,
    with its cells and generators in a seeded order.  Returns the JSON
    complex, the cell permutation, the map and the shift."""
    m = rng.choice(_UNIMODULAR)
    shift = (rng.randint(-1, 1), rng.randint(-1, 1))
    order = list(range(len(cells)))
    rng.shuffle(order)
    out = []
    for i in order:
        pts, rays = cells[i]
        pts = [tuple(a + s for a, s in zip(_apply(m, p), shift)) for p in pts]
        rays = [_apply(m, r) for r in rays]
        rng.shuffle(pts)
        rng.shuffle(rays)
        out.append({
            "points": [[_q(Fraction(x)) for x in p] for p in pts],
            "rays": [[_q(Fraction(x)) for x in r] for r in rays],
        })
    return {"dim": 2, "cells": out}, order, m, shift


def _pull_back(m, shift, grad, const):
    """Pieces of h(x) = <grad, M^-1 (x - shift)> + const as (grad', const')."""
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    inv = ((m[1][1] * det, -m[0][1] * det), (-m[1][0] * det, m[0][0] * det))
    g2 = (
        grad[0] * inv[0][0] + grad[1] * inv[1][0],
        grad[0] * inv[0][1] + grad[1] * inv[1][1],
    )
    return g2, const - g2[0] * shift[0] - g2[1] * shift[1]


def _triangle(m, shift):
    """The skeleton of either pinned complex (the unit triangle), moved."""
    return [
        [_q(Fraction(a + s)) for a, s in zip(_apply(m, p), shift)]
        for p in ((0, 0), (1, 0), (0, 1))
    ]


def toric_skeleton_file(rng, slot):
    cplx, _, m, shift = _placed_complex(rng, rng.choice((PI_CELLS, PI_PRIME_CELLS)))
    payload = {"kind": "toric-skeleton", "complex": cplx}
    return _scenario(slot, payload, skeleton=_triangle(m, shift))


def toric_concavity_file(rng, slot):
    concave = rng.random() < 0.5
    cells, pieces = (PI_PRIME_CELLS, PI_PRIME_CONCAVE) if concave else (PI_CELLS, PI_NONCONCAVE)
    cplx, order, m, shift = _placed_complex(rng, cells)
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    affine = ((_rand_q(rng, 2, 3), _rand_q(rng, 2, 3)), _rand_q(rng, 2, 3))
    rows = []
    for i in order:
        (gx, gy), c = pieces[i]
        grad = (scale * gx + affine[0][0], scale * gy + affine[0][1])
        g2, c2 = _pull_back(m, shift, grad, scale * c + affine[1])
        rows.append({"grad": [_q(g2[0]), _q(g2[1])], "const": _q(c2)})
    payload = {"kind": "toric-concavity", "complex": cplx, "function": {"pieces": rows}}
    return _scenario(slot, payload, concave=concave)


def toric_retract_file(rng, slot):
    cplx, _, m, shift = _placed_complex(rng, rng.choice((PI_CELLS, PI_PRIME_CELLS)))
    points = [
        [_q(_rand_q(rng, 3, 4)), _q(_rand_q(rng, 3, 4))] for _ in range(rng.randint(5, 25))
    ]
    payload = {"kind": "toric-retract", "complex": cplx, "points": points}
    return _scenario(slot, payload, on_triangle=_triangle(m, shift))


_BUILTIN_FLAGS = {
    "counterexample.json": COUNTEREXAMPLE_FLAGS,
    "testideal_basic.json": {"newton_agrees": True},
}


def builtin_scenario(name: str):
    """A built-in, run by name; it has no scenario file of its own."""
    flags = _BUILTIN_FLAGS.get(name)
    expect = {"exit": 0, "error": None, **({"flags": flags} if flags else {})}
    return {"slot": name, "text": None, "builtin": name, "expect": expect}


def counterexample_file(rng, slot):
    """The counterexample as a scenario file; its outputs are the built-in's."""
    payload = {"kind": "toric-counterexample", "comment": f"copy {rng.randrange(10**6)}"}
    return _scenario(slot, payload, flags=COUNTEREXAMPLE_FLAGS,
                     digests_of="builtin:counterexample.json")


def infeasible_envelope_file(rng, slot):
    return _curve_envelope(rng, slot, "tree", rng.randint(3, 6), rng.randint(0, 2), infeasible=True)


def cli_slots(rng: random.Random) -> list:
    """The CLI part of a curve-cli-mix block: every built-in (run by name),
    the counterexample from a file, seeded toric files on the pinned
    complexes, and one infeasible envelope (exit code 3)."""
    out = [builtin_scenario(name) for name in BUILTINS]
    out += [
        counterexample_file(rng, "counterexample-file"),
        toric_retract_file(rng, "retract-a"),
        toric_retract_file(rng, "retract-b"),
        toric_concavity_file(rng, "concavity-a"),
        toric_concavity_file(rng, "concavity-b"),
        toric_skeleton_file(rng, "skeleton"),
        infeasible_envelope_file(rng, "envelope-infeasible"),
    ]
    return out


def curve_cli_block(rng: random.Random) -> list:
    """One curve-cli-mix block: the curve slots, then the CLI slots."""
    return curve_block(rng) + cli_slots(rng)


_BLOCKS = {"curve-cli-mix": curve_cli_block, "testideal-mix": testideal_block}
WORKLOADS = tuple(_BLOCKS)

# the block whose output digests golden.json records, for every workload
GOLDEN_SEED = 0


def block(workload: str, seed: int, index: int) -> list:
    """Scenarios of block `index` of `workload` under `seed`."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return _BLOCKS[workload](rng)
