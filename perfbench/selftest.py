"""Self-tests of the benchmark itself (not of cfsdim).

    python3 perfbench/selftest.py

- the checker accepts every stored reference and rejects perturbed answers;
- the query stream is a function of the seed: the same seed gives the same
  stream, another seed a different one;
- the seed never reaches the library: no generated input contains it.

Exits non-zero on the first failure.
"""

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import workloads  # noqa: E402

SENTINEL_SEED = 918273645


def ideal_answer(query):
    """The answer a correct library would give, built from the reference."""
    kind, ref = query["kind"], query["ref"]
    if kind == "measure_dimension":
        return {"dimension": ref["dimension"], "phi": ref["phi"], "phi_tail_bound": 0.0}
    if kind == "rw_entropy_bruteforce":
        return {"value": ref["value"], "last_increment": ref["last_increment"]}
    if kind == "attractor_dimension":
        return {"raw": ref["raw"], "dimension": min(1.0, ref["raw"])}
    if kind == "esc_probe":
        return {"verdict": ref["verdict"], "rows": ref["rows"]}
    return dict(ref)


# one perturbation per kind, each beyond the checker's tolerance
PERTURB = {
    "measure_dimension": lambda a: a.update(phi=a["phi"] + 1e-9, dimension=a["dimension"]),
    "rw_entropy_closed": lambda a: a.update(value=a["value"] + 1e-9),
    "phi_lower_bound": lambda a: a.update(value=a["value"] + 1e-9),
    "measure_dimension_4c": lambda a: a.update(phi_x=a["phi_x"] - 1e-9),
    "attractor_dimension": lambda a: a.update(raw=a["raw"] + 1e-9, dimension=min(1.0, a["raw"] + 1e-9)),
    "similarity_dimension": lambda a: a.update(value=a["value"] * (1 + 1e-8)),
    "gd_dimension": lambda a: a.update(value=a["value"] + 1e-8),
    "natural_p": lambda a: a.update(s=a["s"] + 1e-9),
    "set_dimension_4c": lambda a: a.update(certified=not a["certified"]),
    "esc_probe": lambda a: a["rows"][-1].update(class_count=a["rows"][-1]["class_count"] + 1),
    "rw_entropy_bruteforce": lambda a: a.update(value=a["value"] + 1e-8),
}


def test_checker():
    accepted = rejected = 0
    for name in ("measure", "attractor", "exact"):
        for slot in workloads.load_pool(name):
            for query in slot["variants"]:
                ans = ideal_answer(query)
                reason = check.check(query, ans)
                assert reason is None, (name, query["kind"], reason)
                accepted += 1
                bad = copy.deepcopy(ans)
                PERTURB[query["kind"]](bad)
                assert check.check(query, bad) is not None, (name, query["kind"], bad)
                rejected += 1
    # a Phi answer inside the tolerance but outside its own reported bound
    query = next(v for s in workloads.load_pool("measure") for v in s["variants"]
                 if v["kind"] == "measure_dimension")
    ans = dict(ideal_answer(query), phi=query["ref"]["phi"] + 5e-11, phi_tail_bound=1e-14)
    assert "exceeds reported bound" in check.check(query, ans)
    print(f"checker: {accepted} references accepted, {rejected} perturbations rejected")


def test_cli_checker():
    """The CLI checks accept ideal JSON output for the measure command and
    reject the uniform answer the ignored --probabilities flag produces."""
    slots = workloads.load_pool("cli")
    uniform = next(v for s in slots for v in s["variants"] if v["name"] == "measure-dim")
    listed = next(v for s in slots for v in s["variants"] if v["name"] == "measure-dim-json")

    def stdout(ref):
        return json.dumps({"dimension": ref["dimension"],
                           "diagnostics": {"phi": ref["phi"], "phi_tail_bound": 1e-13}})

    assert check.check(uniform, {"stdout": stdout(uniform["ref"])}) is None
    assert check.check(listed, {"stdout": stdout(listed["ref"])}) is None
    assert check.check(listed, {"stdout": stdout(uniform["ref"])}) is not None
    print("cli checker: ignored --probabilities list is rejected")


def test_plan():
    for name in workloads.WORKLOADS:
        pool = workloads.load_pool(name)
        a, b = workloads.Plan(pool, 7), workloads.Plan(pool, 7)
        assert a.order == b.order and a.variants(3) == b.variants(3), name
        c = workloads.Plan(pool, 8)
        assert (c.order, c.variants(0)) != (a.order, a.variants(0)), name
    print("plan: same seed gives the same stream, another seed another")


def test_seed_hidden():
    for name in workloads.WORKLOADS:
        pool = workloads.load_pool(name)
        plan = workloads.Plan(pool, SENTINEL_SEED)
        for i in range(3):
            inputs = [pool[s]["variants"][v].get("args", pool[s]["variants"][v].get("argv"))
                      for s, v in plan.variants(i)]
            assert str(SENTINEL_SEED) not in json.dumps(inputs), name
    print("seed: no generated input contains the benchmark seed")


if __name__ == "__main__":
    test_checker()
    test_cli_checker()
    test_plan()
    test_seed_hidden()
    print("selftest: all passed")
