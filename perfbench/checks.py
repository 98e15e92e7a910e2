"""Output checks for one pass.

Every command's output is checked by what the benchmark knows without
the program: coloring counts from linear algebra (braids.py), the
cocycle condition evaluated from its definition, published values, the
paper's identities between flavors as byte equality of stdout, and, for
the default seed, sha256 digests recorded from an earlier run.
"""

import hashlib
import json
from collections import Counter

import braids
import cochains


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _expected_regions(data):
    if data.get("crossings"):
        return len(data["crossings"]) + 2
    return len(data.get("free_loops", ())) + 1


def _weights(ms):
    return Counter({tuple(v): m for v, m in ms})


def check_output(check, out):
    """Problems with one command's parsed output under one check."""
    kind = check[0]
    if kind == "passed":
        return [] if out.get("passed") is True else ["check did not pass"]
    if kind == "regions":
        want = _expected_regions(check[1])
        if out["count"] != want:
            return [f"{out['count']} regions, expected {want}"]
        return []
    if kind == "indices":
        want = _expected_regions(check[1])
        totals = out["totals"]
        if len(totals) != want or totals[out["exterior"]] != 0:
            return ["index table has the wrong shape"]
        if out["checkerboard"] != [t % 2 for t in totals]:
            return ["checkerboard is not the index parity"]
        return []
    if kind == "rmove":
        base, added = check[1], check[2]
        problems = []
        if len(out["crossings"]) != len(base.get("crossings", ())) + added:
            problems.append("rewrite added the wrong number of crossings")
        for n in (3, 4):
            if (braids.count_affine_colorings(out, n, -1)
                    != braids.count_affine_colorings(base, n, -1)):
                problems.append(f"D{n} coloring count changed under the move")
        return problems
    if kind == "colorings":
        cols = out["colorings"]
        if out["count"] != check[1] or len(cols) != check[1]:
            return [f"{out['count']} colorings, expected {check[1]}"]
        if any(a >= b for a, b in zip(cols, cols[1:])):
            return ["colorings are not sorted and distinct"]
        return []
    if kind == "total":
        if out["total"] != check[1]:
            return [f"total {out['total']}, expected {check[1]} colorings"]
        if sum(m for _, m in out["weights"]) != out["total"]:
            return ["multiplicities do not add up to the total"]
        return []
    if kind == "refined":
        parts = Counter()
        for part in out["refined"]:
            parts.update(_weights(part["weights"]))
        if parts != _weights(out["weights"]):
            return ["refined parts do not add up to the whole"]
        return []
    if kind == "contains":
        if out.get("contains") != check[1]:
            return [f"contains {out.get('contains')}, expected {check[1]}"]
        return []
    if kind == "cohomology":
        op, action, n, degree, spec, expect = check[1:]
        problems = []
        if out["cocycle_count"] != len(out["cocycles"]):
            problems.append("cocycle_count disagrees with the list")
        for what in ("cocycles", "coboundaries"):
            for i, values in enumerate(out[what]):
                wit = cochains.cocycle_witness(op, action, n, degree, spec,
                                               [v[0] for v in values])
                if wit is not None:
                    problems.append(f"{what}[{i}] breaks equation {wit}")
                    break
        if n and any(f < 2 or n % f for f in out["torsion"]):
            problems.append(f"torsion {out['torsion']} does not divide {n}")
        if expect is not None and out["torsion"] != expect:
            problems.append(f"torsion {out['torsion']}, expected {expect}")
        return problems
    raise ValueError(f"unknown check {kind!r}")


def check_pass(commands, results, digests, check_all_digests):
    """Check one pass.  Returns (problems, budget_hits): problems maps a
    command id to what is wrong with it; budget_hits lists the commands
    stopped by their budget, which fail without being wrong."""
    problems = {}
    budget_hits = []
    outputs = {}
    parsed = {}
    for cmd, res in zip(commands, results):
        cid = cmd["id"]
        if res["status"] == "budget":
            budget_hits.append(cid)
            continue
        if res["status"] != "ok" or res["code"] != 0:
            problems[cid] = [f"status {res['status']}, exit {res['code']}: "
                             f"{res['err'][-400:]}"]
            continue
        try:
            parsed[cid] = json.loads(res["out"])
        except json.JSONDecodeError:
            problems[cid] = ["stdout is not JSON"]
            continue
        outputs[cid] = res["out"]
    for cmd, res in zip(commands, results):
        cid = cmd["id"]
        if cid not in parsed:
            continue
        found = []
        want = digests.get(cid)
        if want and (check_all_digests or cmd["fixed"]) \
                and digest(res["out"]) != want:
            found.append("output differs from the recorded digest")
        for check in cmd["checks"]:
            if check[0] == "same":
                # an identity of the paper: both commands print the same bytes
                other = outputs.get(check[1])
                if other is not None and other != res["out"]:
                    found.append(f"output differs from {check[1]}")
                continue
            try:
                found += check_output(check, parsed[cid])
            except (KeyError, TypeError, IndexError) as exc:
                found.append(f"malformed output for {check[0]}: {exc!r}")
        if found:
            problems[cid] = found
    return problems, budget_hits
