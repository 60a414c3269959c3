"""Independent checks of each job's output.

Each check compares the program's output with facts computed here from
refgroups: class counts from the benchmark's own union-find, witnesses
verified in Fraction arithmetic, balls from its own enumeration. None of
them calls into the library. A check returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import re
from collections import Counter

import refgroups as rg


def check(job, exit_code, stdout, stderr):
    if exit_code != job.expect_exit:
        return f"exit {exit_code}, expected {job.expect_exit}: {stderr[:200]}"
    try:
        return CHECKS[job.kind](job.facts, stdout, stderr)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


# -- finite groups -----------------------------------------------------------


def _class_count(facts):
    if "classes" not in facts:
        facts["classes"] = rg.twisted_classes(facts["group"], facts["sigma"],
                                              facts["tau"])
    return len(facts["classes"])


def _expected_dimension(facts):
    """dim Der = |G| - #twisted classes on a finite group."""
    return facts["group"].order - _class_count(facts)


def _finite_table(group, blob):
    """{"D": {"<index>": terms}} to {g: terms}; absent entries are zero."""
    return {int(key): rg.parse_terms(value["terms"], int)
            for key, value in blob["D"].items()}


def leibniz_violations(group, sigma, tau, table):
    """Pairs (g2, g1) with D(g2 g1) != D(g2) tau(g1) + sigma(g2) D(g1),
    in canonical order: g2 major, g1 minor."""
    mul = group.mul
    for g2 in range(group.order):
        d2 = table.get(g2, {})
        for g1 in range(group.order):
            rhs = rg.combine(rg.right_translate(mul, d2, tau[g1]),
                             rg.left_translate(mul, sigma[g2], table.get(g1, {})))
            if rhs != table.get(mul(g2, g1), {}):
                yield g2, g1


def check_dim(facts, stdout, _stderr):
    data = json.loads(stdout)
    expected = _expected_dimension(facts)
    if data["dimension"] != expected:
        return f"dimension {data['dimension']}, expected {expected}"
    if data["inner_dimension"] != expected:
        return f"inner_dimension {data['inner_dimension']}, expected {expected}"
    return None


def check_basis(facts, stdout, _stderr):
    data = json.loads(stdout)
    expected = _expected_dimension(facts)
    if data["dimension"] != expected:
        return f"dimension {data['dimension']}, expected {expected}"
    if len(data["basis"]) != expected:
        return f"{len(data['basis'])} basis vectors, expected {expected}"
    if data["basis"]:
        group = facts["group"]
        first = _finite_table(group, data["basis"][0])
        bad = next(leibniz_violations(group, facts["sigma"], facts["tau"], first),
                   None)
        if bad is not None:
            return f"first basis vector violates Leibniz at {bad}"
    return None


def check_verify(facts, stdout, _stderr):
    data = json.loads(stdout)
    expected = _expected_dimension(facts)
    for key in ("dim_der", "dim_inn"):
        if data[key] != expected:
            return f"{key} {data[key]}, expected {expected}"
    if data["sum_char_dims"] != 0:
        return f"sum_char_dims {data['sum_char_dims']} on a finite group"
    for key in ("dims_match", "every_basis_vector_inner"):
        if data[key] is not True:
            return f"{key} is {data[key]!r}"
    sizes = sorted(len(c) for c in facts["classes"])
    if sorted(c["size"] for c in data["classes"]) != sizes:
        return "class sizes differ from the benchmark's own classes"
    if data["fc"] != "true":
        return f"fc {data['fc']!r} on a finite group"
    return None


def check_inner(facts, stdout, _stderr):
    """The witness p must satisfy p tau(g) - sigma(g) p = D(g) for all g."""
    data = json.loads(stdout)
    if data["is_inner"] is not True:
        return "an inner derivation was not certified inner"
    group, sigma, tau = facts["group"], facts["sigma"], facts["tau"]
    p = rg.parse_terms(data["witness"]["terms"], int)
    for g in range(group.order):
        delta = rg.combine(rg.right_translate(group.mul, p, tau[g]),
                           rg.left_translate(group.mul, sigma[g], p), sign=-1)
        if delta != facts["table"].get(g, {}):
            return f"witness does not reproduce D at element {g}"
    if data["kernel_dimension"] != _class_count(facts):
        return (f"kernel_dimension {data['kernel_dimension']}, "
                f"expected {_class_count(facts)}")
    return None


def check_refusal(facts, stdout, stderr):
    """The refused pair must be the first Leibniz violation."""
    if stdout:
        return "a refused table produced a report"
    error = json.loads(stderr)
    if error["error"] != "NotADerivation":
        return f"refused with {error['error']}"
    group = facts["group"]
    pair = tuple(group.label_index[label] for label in error["witness"])
    first = next(leibniz_violations(group, facts["sigma"], facts["tau"],
                                    facts["table"]), None)
    if pair != first:
        return f"reported pair {pair} is not the first violation {first}"
    return None


def check_finite_potential(facts, stdout, _stderr):
    data = json.loads(stdout)
    if data["quasi_inner"] is not True or data["loop_witness"] is not None:
        return "a potential derivation was not reported quasi-inner"
    group, sigma, tau = facts["group"], facts["sigma"], facts["tau"]
    got = _finite_table(group, data["derivation"])
    P = facts["potential"]
    for g in range(group.order):
        g_inv = group.inv[g]
        want = {}
        for h in range(group.order):
            a = P.get(group.mul(h, tau[g_inv]), rg.ZERO)
            b = P.get(group.mul(sigma[g_inv], h), rg.ZERO)
            want[h] = rg.gsub(a, b)
        if rg.clean(want) != got.get(g, {}):
            return f"D({g}) differs from P(h tau(g^-1)) - P(sigma(g^-1) h)"
    return None


# -- heisenberg_Z --------------------------------------------------------------


_BALLS = {}


def ball(radius):
    if radius not in _BALLS:
        _BALLS[radius] = rg.heis_ball(radius)
    return _BALLS[radius]


def _sort_key(p):
    return (abs(p[2]), abs(p[0]), abs(p[1]), p[0], p[1], p[2])


def check_central(facts, stdout, _stderr):
    data = json.loads(stdout)
    size = len(ball(facts["check_radius"]))
    if data["pairs_checked"] != size * size:
        return f"pairs_checked {data['pairs_checked']}, expected {size * size}"
    if data["leibniz_ok"] is not True:
        return "the central family failed its Leibniz check"
    zero = facts["mu"] == facts["nu"] == 0
    if data["quasi_inner"] is not zero:
        return f"quasi_inner {data['quasi_inner']} with mu, nu = {facts['mu']}, {facts['nu']}"
    witness = data["loop_witness"]
    if zero:
        return None if witness is None else "a loop witness for (mu, nu) = (0, 0)"
    h, g = (tuple(v) for v in witness)
    sa, sb, _sc, _tc = facts["params"]
    x = (sa, sb, 0)
    g_inv = rg.hinv(g)
    if rg.hmul(rg.hconj(x, g_inv), h) != rg.hmul(h, rg.hconj(x, g_inv)):
        return f"loop witness {witness} is not a loop"
    # D(g) = phi(g) sigma(g) z^r with phi(g) = mu g_a + nu g_b
    if facts["mu"] * g[0] + facts["nu"] * g[1] == 0 \
            or h != rg.hmul(rg.hconj(x, g), (0, 0, facts["r"])):
        return f"loop witness {witness} carries no coefficient of D"
    return None


_NODE = re.compile(r'^    "([^"]+)";$', re.M)


def check_export(facts, stdout, _stderr):
    if not stdout.startswith("// tool_version"):
        return "DOT output lacks its header"
    names = Counter(_NODE.findall(stdout))
    want = {rg.hlabel(p) for p in ball(facts["radius"])}
    if set(names) != want:
        return f"DOT nodes differ from the ball: {len(set(names) ^ want)} mismatches"
    repeated = [name for name, count in names.items() if count != 1]
    if repeated:
        return f"DOT names {repeated[0]} {names[repeated[0]]} times"
    return None


def _components(facts):
    if "components" not in facts:
        comps = rg.heis_twisted_components(ball(facts["radius"]), facts["x"],
                                           facts["y"])
        facts["components"] = sorted((sorted(c, key=_sort_key) for c in comps),
                                     key=lambda c: _sort_key(c[0]))
    return facts["components"]


def _is_central(facts, u):
    return rg.heis_centralizer_condition(u, facts["x"], facts["y"]) == (0, 0)


def _centralizer_ok(facts, u, blob):
    alpha, beta = rg.heis_centralizer_condition(u, facts["x"], facts["y"])
    if (alpha, beta) == (0, 0):
        return blob["kind"] == "heisenberg_full" and blob["conditions"] == []
    return blob["kind"] == "free_abelian" and blob["conditions"] == [[alpha, beta]]


def check_classes(facts, stdout, _stderr):
    data = json.loads(stdout)
    comps = _components(facts)
    if data["count"] != len(comps) or len(data["classes"]) != len(comps):
        return f"{data['count']} classes, expected {len(comps)}"
    x, y = facts["x"], facts["y"]
    scope = ball(facts["radius"])
    for comp, cls in zip(comps, data["classes"]):
        rep = comp[0]
        if tuple(cls["representative"]) != rep:
            return f"class representative {cls['representative']}, expected {list(rep)}"
        orbit = {rg.hmul(rg.hmul(rg.hconj(x, rg.hinv(g)), rep), rg.hconj(y, g))
                 for g in scope}
        if {tuple(e) for e in cls["elements"]} != orbit or cls["size"] != len(orbit):
            return f"class of {list(rep)} differs from its orbit over the ball"
        if cls["truncated"] is _is_central(facts, rep):
            return f"class of {list(rep)} has truncated={cls['truncated']}"
    if data["sizes"] != sorted(c["size"] for c in data["classes"]):
        return "sizes do not match the listed classes"
    return None


def check_centralizers(facts, stdout, _stderr):
    data = json.loads(stdout)
    comps = _components(facts)
    entries = data["centralizers"]
    if len(entries) != len(comps):
        return f"{len(entries)} centralizers, expected {len(comps)}"
    for comp, entry in zip(comps, entries):
        if tuple(entry["element"]) != comp[0]:
            return f"centralizer of {entry['element']}, expected {list(comp[0])}"
        if not _centralizer_ok(facts, comp[0], entry["centralizer"]):
            return f"centralizer of {list(comp[0])} has the wrong condition"
    return None


CENTER = {"kind": "free_abelian", "conditions": [[1, 0], [0, 1]],
          "generators": [[0, 0, 1]], "abelianization_rank": 1}


def check_group_info(facts, stdout, _stderr):
    data = json.loads(stdout)
    if data["is_sigma_tau_abelian"] is not False:
        return "heisenberg_Z reported twisted-abelian"
    probes = sorted(ball(min(facts["radius"], 2)), key=_sort_key)
    fc = "true" if all(_is_central(facts, a) for a in probes) else "truncated-unknown"
    if data["is_fc"] != fc:
        return f"is_fc {data['is_fc']!r}, expected {fc!r}"
    if data["is_rank2_nilpotent"] is not True:
        return "heisenberg_Z not reported rank-2 nilpotent"
    if data["center"] != CENTER:
        return f"center {data['center']}"
    comps = _components(facts)
    if len(data["class_summary"]) != len(comps) or len(data["per_class"]) != len(comps):
        return f"{len(data['class_summary'])} classes, expected {len(comps)}"
    for comp, entry in zip(comps, data["per_class"]):
        if tuple(entry["representative"]) != comp[0]:
            return f"representative {entry['representative']}, expected {list(comp[0])}"
        if not _centralizer_ok(facts, comp[0], entry["centralizer"]):
            return f"centralizer of {list(comp[0])} has the wrong condition"
    return None


def check_heis_potential(facts, stdout, _stderr):
    data = json.loads(stdout)
    if data["quasi_inner"] is not True or data["loop_witness"] is not None:
        return "a potential derivation was not reported quasi-inner"
    x, y, P = facts["x"], facts["y"], facts["potential"]
    scope = ball(facts["radius"])
    got = {}
    for key, value in data["derivation"]["D"].items():
        g = tuple(int(v) for v in key.strip("[]").split(","))
        got[g] = rg.parse_terms(value["terms"], tuple)
    if not set(got) <= scope:
        return "derivation has values outside the ball"
    for g in scope:
        g_inv = rg.hinv(g)
        s_inv, t_inv = rg.hconj(x, g_inv), rg.hconj(y, g_inv)
        # only h with h tau(g^-1) or sigma(g^-1) h in the support can be hit
        candidates = {rg.hmul(w, rg.hconj(y, g)) for w in P} \
            | {rg.hmul(rg.hconj(x, g), w) for w in P}
        want = rg.clean({h: rg.gsub(P.get(rg.hmul(h, t_inv), rg.ZERO),
                                    P.get(rg.hmul(s_inv, h), rg.ZERO))
                         for h in candidates})
        if want != got.get(g, {}):
            return f"D({list(g)}) differs from the potential formula"
    return None


CHECKS = {
    "dim": check_dim,
    "basis": check_basis,
    "verify": check_verify,
    "check-inner": check_inner,
    "refuse": check_refusal,
    "quasi-inner": check_finite_potential,
    "central": check_central,
    "export": check_export,
    "classes": check_classes,
    "centralizers": check_centralizers,
    "group-info": check_group_info,
    "heis-quasi-inner": check_heis_potential,
}
