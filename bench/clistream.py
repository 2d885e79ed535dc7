"""Seeded request stream for the `cli-requests` workload.

Every request is a small README command with inputs drawn from the seed, and
carries its expected outcome computed by `oracles`: exit 0 with an exact
stdout, or, for the malformed share, exit 2 with an `error:` line.  Malformed
requests are valid ones with one mutation: a bad rational, an unknown word
token, overlapping arcs, or a wrong JSON type.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles as O
from inputs import (interval_block, make_arc_system, make_point, make_word,
                    random_disks)

MALFORMED_SHARE = 0.2


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    kind: str                 # command family, e.g. "embed-act"
    mutation: str | None      # None for a valid request
    stdout: str | None        # exact expected stdout of a valid request
    check: tuple | None = None  # (m, q, word, target, points) of a normalize request


def _js(obj) -> str:
    return json.dumps(obj)


def _disks_json(pairs) -> dict:
    return {"instance": "dR", "pairs": [{"v": O.rat_str(v), "r": O.rat_str(r)} for v, r in pairs]}


# -- one generator per command family: (valid request, mutations it supports)

def _operad_compose(rng):
    outer = random_disks(rng, rng.randint(1, 3))
    inners = [random_disks(rng, rng.randint(0, 2)) for _ in outer]
    argv = ["operad", "compose", "--instance", "dR", "--outer", _js(_disks_json(outer))]
    for b in inners:
        argv += ["--inner", _js(_disks_json(b))]
    expected = O.disks_compose(outer, inners)

    def mutate(kind):
        obj = _disks_json(outer)
        if kind == "bad-rational":
            obj["pairs"][0]["r"] = "1/0"
        elif kind == "overlapping-arcs":
            obj["pairs"].append(dict(obj["pairs"][0]))
        else:
            obj["pairs"] = len(outer)
        return argv[:5] + [_js(obj)] + argv[6:]
    return argv, O.dump(expected), None, mutate, ("bad-rational", "overlapping-arcs", "wrong-type")


def _embed_compose(rng):
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    outer = make_arc_system(rng, m, n, zero_radii=False)
    blocks = [interval_block(rng, rng.randint(0, 2)) for _ in range(n)]
    argv = ["embed", "compose", "--outer", _js(outer)]
    for b in blocks:
        argv += ["--inner", _js([[O.rat_str(v), O.rat_str(s)] for v, s in b])]
    expected = O.arc_compose(outer, blocks)

    def mutate(kind):
        if kind == "bad-rational":
            return argv[:5] + [_js([["1/0", "1/2"]])] + argv[6:]
        obj = json.loads(argv[3])
        if kind == "overlapping-arcs":
            _overlap(obj)
        else:
            obj["phi"] = {"gaps": obj["phi"]}
        return argv[:3] + [_js(obj)] + argv[4:]
    return argv, O.dump(expected), None, mutate, ("bad-rational", "overlapping-arcs", "wrong-type")


def _overlap(obj: dict) -> None:
    """Give the first two arcs the largest radius: their images then overlap."""
    half = O.rat_str(Fraction(1, 2 * obj["m"]))
    if len(obj["pairs"]) < 2:
        obj["pairs"].append(dict(obj["pairs"][0]))
        obj["phi"] = [obj["phi"][0], "0"]
    for p in obj["pairs"][:2]:
        p["r"] = half
    obj["variant"] = "uEc"


def _embed_act(rng):
    m, n = rng.randint(1, 3), rng.randint(1, 4)
    x = make_arc_system(rng, m, n, zero_radii=False)
    argv = ["embed", "act", "--system", _js(x)]
    out = x
    if rng.randrange(2):
        shift = rng.randrange(n)
        exps = [rng.randrange(m) for _ in range(n)]
        perm = [((j + shift) % n) + 1 for j in range(n)]
        argv += ["--wreath", _js({"perm": perm, "members": [
            {"order": m, "exponent": e} for e in exps]})]
        out = O.arc_wreath(out, shift, exps)
    theta = Fraction(rng.randint(0, 15), 16)
    argv += ["--theta", O.rat_str(theta)]
    out = O.arc_rotate(out, theta)

    def mutate(kind):
        if kind == "bad-rational":
            return argv[:-1] + ["1/0"]
        obj = json.loads(argv[3])
        if kind == "overlapping-arcs":
            _overlap(obj)
        else:
            obj["m"] = "two"
        return argv[:3] + [_js(obj)] + argv[4:]
    return argv, O.dump(out), None, mutate, ("bad-rational", "overlapping-arcs", "wrong-type")


def _embed_retract(rng):
    m, n = rng.randint(1, 3), rng.randint(1, 4)
    x = make_arc_system(rng, m, n, zero_radii=True)
    steps = rng.randint(1, 3)
    argv = ["embed", "retract", "--system", _js(x), "--steps", str(steps)]

    def mutate(kind):
        obj = json.loads(argv[3])
        if kind == "bad-rational":
            obj["phi"][0] = "3/x"
        else:
            obj["pairs"] = [[p["zeta"], p["r"]] for p in obj["pairs"]]
        return argv[:3] + [_js(obj)] + argv[4:]
    return argv, O.dump(O.arc_retract(x, steps)), None, mutate, ("bad-rational", "wrong-type")


def _cyclic_normalize(rng):
    m, q = rng.randint(1, 3), rng.randint(0, 3)
    gens = make_word(rng, q, rng.randint(1, 10))
    text = O.word_str(gens)
    argv = ["cyclic", "normalize", "--word", text, "--m", str(m), "--q", str(q)]
    points = [make_point(rng, m, q) for _ in range(2)]

    def mutate(kind):
        bad = rng.choice(["dx", "q1", "s-1"])
        return argv[:3] + [bad + "." + text if text != "id" else bad] + argv[4:]
    check = (m, q, text, O.target_degree(gens, q), tuple(points))
    return argv, None, check, mutate, ("unknown-token",)


def _cyclic_act(rng):
    m, q = rng.randint(1, 3), rng.randint(0, 3)
    gens = make_word(rng, q, rng.randint(1, 8))
    rbar, simplex = make_point(rng, m, q)
    pt = O.point_json(m, rbar, simplex)
    argv = ["cyclic", "act", "--word", O.word_str(gens), "--point", _js(pt)]
    out = O.point_json(m, *O.act_point(gens, m, rbar, tuple(simplex)))

    def mutate(kind):
        if kind == "unknown-token":
            return argv[:3] + [rng.choice(["x0", "dx", "t9x"]) + "." + argv[3]] + argv[4:]
        obj = dict(pt)
        if kind == "bad-rational":
            obj["simplex"] = ["1/0"] + obj["simplex"][1:]
        else:
            obj["simplex"] = {"t": obj["simplex"]}
        return argv[:5] + [_js(obj)]
    return argv, O.dump(out), None, mutate, ("unknown-token", "bad-rational", "wrong-type")


def _element_roundtrip(rng):
    pick = rng.randrange(3)
    if pick == 0:
        a, b = rng.randint(-40, 40), rng.randint(1, 40)
        payload, out = f"{2 * a}/{2 * b}", O.rat_str(Fraction(a, b))
    elif pick == 1:
        n = rng.randint(1, 6)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        payload, out = perm, perm
    else:
        mod = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        v = Fraction(rng.randint(-30, 30), 8)
        payload = {"value": O.rat_str(v), "modulus": O.rat_str(mod)}
        out = {"value": O.rat_str(v % mod), "modulus": O.rat_str(mod)}
    argv = ["element", "roundtrip", "--json", _js(payload)]

    def mutate(kind):
        if kind == "bad-rational":
            return argv[:3] + [_js("7/0")]
        return argv[:3] + [_js({"value": ["1"], "modulus": "1"})]
    return argv, O.dump(out), None, mutate, ("bad-rational", "wrong-type")


FAMILIES = {
    "operad-compose": _operad_compose,
    "embed-compose": _embed_compose,
    "embed-act": _embed_act,
    "embed-retract": _embed_retract,
    "cyclic-normalize": _cyclic_normalize,
    "cyclic-act": _cyclic_act,
    "element-roundtrip": _element_roundtrip,
}


def make_stream(seed: int, count: int) -> list[Request]:
    """`count` requests in a seeded order, with every command family and the
    malformed share in fixed proportions, so that seeds differ in inputs but
    not in the mix."""
    rng = random.Random(seed)
    names = sorted(FAMILIES)
    kinds = [names[k % len(names)] for k in range(count)]
    malformed = [k < round(count * MALFORMED_SHARE) for k in range(count)]
    rng.shuffle(kinds)
    rng.shuffle(malformed)
    out = []
    for kind, bad in zip(kinds, malformed):
        argv, stdout, check, mutate, mutations = FAMILIES[kind](rng)
        if bad:
            mutation = rng.choice(mutations)
            out.append(Request(tuple(mutate(mutation)), kind, mutation, None))
        else:
            out.append(Request(tuple(argv), kind, None, stdout, check))
    return out


def check_response(req: Request, rc, stdout: str, stderr: str) -> str | None:
    """None when the response is right, else a one-line reason.  `rc` is the
    exit code, or the exception type name when one escaped."""
    if isinstance(rc, str):
        return f"escaped {rc}"
    if req.mutation is not None:
        if rc != 2 or "error:" not in stderr:
            return f"malformed request answered with exit {rc}"
        return None
    if rc != 0:
        return f"valid request exited {rc}: {stderr.strip()[:120]}"
    if req.stdout is not None:
        return None if stdout == req.stdout else "stdout differs"
    return _check_normalize(req.check, stdout)


def _check_normalize(check, stdout: str) -> str | None:
    m, q, text, target, points = check
    try:
        got = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if (got.get("input"), got.get("m"), got.get("source"), got.get("target")) != \
            (text, m, q, target):
        return "normalize header differs"
    try:
        nf = O.parse_tokens(got["normal_form"], q)
    except (KeyError, ValueError):
        return "normal form does not parse"
    if not O.is_normal_form(nf, m, q) or O.target_degree(nf, q) != target:
        return "normal form is not canonical"
    gens = O.parse_tokens(text, q)
    for rbar, simplex in points:
        if O.act_point(nf, m, rbar, tuple(simplex)) != O.act_point(gens, m, rbar, tuple(simplex)):
            return "normal form acts differently from its word"
    return None
