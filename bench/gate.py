"""Correctness gate: every scenario's outcome against what is known of it.

Checks, in order:

* the outcome: exception name (in process) or exit code (cold CLI) as the
  generator expects;
* digests: the SHA-256 of ``result.json`` and of each SVG, for every
  scenario that golden.json records (the golden blocks, the built-ins and
  the pinned deep chain), compared byte for byte;
* the program's two-route flags, independently of the digests:
  ``newton_agrees``, ``residual_is_zero`` and every boolean of
  ``toric-counterexample`` must have their expected values;
* cheap independent facts: an envelope lies below its input at every
  vertex, a solve_ma potential is 0 at its anchor, retraction images lie
  on the (moved) unit triangle, the skeleton is that triangle, and the
  concavity verdict is the one the construction implies.

A failed check is recorded and counted; it never stops the run.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scenario_key(sc) -> str:
    """Key of a scenario in golden.json: its built-in name or text digest."""
    if sc.get("builtin"):
        return f"builtin:{sc['builtin']}"
    return f"sha256:{sha256(sc['text'])}"


def output_digests(result_text: str, figures: dict) -> dict:
    out = {"result.json": sha256(result_text)}
    for name in sorted(figures):
        out[name] = sha256(figures[name])
    return out


def _in_triangle(point, tri) -> bool:
    (ax, ay), (bx, by), (cx, cy) = tri
    px, py = point
    det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
    s = ((px - ax) * (cy - ay) - (cx - ax) * (py - ay)) / det
    t = ((bx - ax) * (py - ay) - (px - ax) * (by - ay)) / det
    return s >= 0 and t >= 0 and s + t <= 1


def _fracs(rows):
    return [tuple(Fraction(x) for x in row) for row in rows]


class Gate:
    def __init__(self, golden: dict):
        self.golden = golden
        self.checked_digests = 0
        self.failed = 0  # scenarios that failed a check
        self.failures = []  # (scenario name, problem)

    def check(self, sc, outcome) -> bool:
        """outcome: {"exit": int | None, "error": str | None,
        "result": str | None, "figures": {name: text}, "stderr": str}."""
        try:
            problems = self._problems(sc, outcome)
        except Exception as ex:  # noqa: BLE001 - a broken output must not stop the run
            problems = [f"gate could not read the output: {type(ex).__name__}: {ex}"]
        for problem in problems:
            self.failures.append((sc["slot"], problem))
        self.failed += bool(problems)
        return not problems

    def _problems(self, sc, outcome):
        expect = sc["expect"]
        if outcome["exit"] is not None:  # a skelpot.cli.main call
            if outcome["exit"] != expect["exit"]:
                return [f"exit code {outcome['exit']}, expected {expect['exit']}: {outcome['stderr'][:200]}"]
        elif outcome["error"] != expect["error"]:
            return [f"raised {outcome['error']}, expected {expect['error']}: {outcome['stderr'][:200]}"]
        if expect["exit"] != 0:
            if outcome["exit"] is not None:
                err = json.loads(outcome["stderr"])["error"]
                if err["exit_code"] != expect["exit"]:
                    return [f"error JSON says exit {err['exit_code']}"]
            return []
        problems = []
        key = expect.get("digests_of") or scenario_key(sc)
        want = self.golden.get(key)
        if want is not None:
            self.checked_digests += 1
            got = output_digests(outcome["result"], outcome["figures"])
            if got != want:
                bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
                problems.append(f"digest mismatch in {', '.join(bad)}")
        result = json.loads(outcome["result"])
        for flag, value in expect.get("flags", {}).items():
            if result.get(flag) != value:
                problems.append(f"{flag} is {result.get(flag)!r}, expected {value!r}")
        if "concave" in expect and result["concave"] != expect["concave"]:
            problems.append(f"concave is {result['concave']}, expected {expect['concave']}")
        if "on_triangle" in expect:
            tri = _fracs(expect["on_triangle"])
            for image in _fracs(result["images"]):
                if not _in_triangle(image, tri):
                    problems.append(f"retraction image {image} is off the skeleton")
                    break
        if "skeleton" in expect:
            cells = result["skeleton"]
            if len(cells) != 1 or cells[0]["rays"] or set(_fracs(cells[0]["points"])) != set(
                _fracs(expect["skeleton"])
            ):
                problems.append("skeleton is not the moved unit triangle")
        problems += self._curve_facts(sc, result)
        return problems

    @staticmethod
    def _curve_facts(sc, result):
        kind = result["kind"]
        if sc["text"] is None or kind not in ("curve-envelope", "curve-solve-ma"):
            return []
        payload = json.loads(sc["text"])
        if kind == "curve-envelope":
            f = payload["f"]["vertex_values"]
            env = result["envelope"]["vertex_values"]
            if any(Fraction(env[v]) > Fraction(f[v]) for v in f):
                return ["envelope exceeds its input at a vertex"]
            return []
        if Fraction(result["potential"]["vertex_values"][payload["anchor"]]) != 0:
            return ["solve_ma potential is not 0 at its anchor"]
        return []
