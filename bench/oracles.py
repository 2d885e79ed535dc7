"""Independent exact oracles for the benchmark's output checks.

Nothing here imports arcbar: every expected value is computed from the
definitions with plain `fractions.Fraction`, so a change to the package cannot
move the expectation together with the output.
"""
from __future__ import annotations

from fractions import Fraction


def rat_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def dump(obj) -> str:
    """The CLI's stdout for one emitted object."""
    import json
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# words of the m-cyclic category and the point model R/mZ x Delta^q
# ---------------------------------------------------------------------------

def parse_tokens(text: str, source: int) -> list[tuple[str, int, int]]:
    """Dotted tokens in mathematical order -> (kind, index, degree) in
    application order.  Raises ValueError on an invalid token or index."""
    text = text.strip()
    tokens = [] if text in ("", "id") else list(reversed(text.split(".")))
    gens = []
    q = source
    for tok in tokens:
        kind, rest = tok[:1], tok[1:]
        if kind == "t":
            if rest and int(rest) != q:
                raise ValueError(f"twist {tok} applied at degree {q}")
            gens.append(("t", 0, q))
            continue
        if kind not in ("d", "s") or not rest.isdigit():
            raise ValueError(f"bad token {tok!r}")
        i = int(rest)
        if kind == "d" and (q < 1 or i > q):
            raise ValueError(f"face {tok} at degree {q}")
        if kind == "s" and i > q:
            raise ValueError(f"degeneracy {tok} at degree {q}")
        gens.append((kind, i, q))
        q = q - 1 if kind == "d" else q + 1
    return gens


def target_degree(gens, source: int) -> int:
    q = source
    for kind, _, _ in gens:
        q += {"d": -1, "s": 1, "t": 0}[kind]
    return q


def word_str(gens) -> str:
    """Canonical text of a word given in application order."""
    if not gens:
        return "id"
    return ".".join(f"t{q}" if k == "t" else f"{k}{i}" for k, i, q in reversed(gens))


def is_normal_form(gens, m: int, source: int) -> bool:
    """Faces with decreasing index, then degeneracies with increasing index,
    then k < m(target+1) twists, all in application order."""
    kinds = "".join(k for k, _, _ in gens)
    stripped = kinds.lstrip("d")
    stripped = stripped.lstrip("s")
    if stripped.strip("t"):
        return False
    faces = [i for k, i, _ in gens if k == "d"]
    degens = [i for k, i, _ in gens if k == "s"]
    if any(a <= b for a, b in zip(faces, faces[1:])):
        return False
    if any(a >= b for a, b in zip(degens, degens[1:])):
        return False
    k = kinds.count("t")
    return k < m * (target_degree(gens, source) + 1)


def act_point(gens, m: int, rbar: Fraction, simplex: tuple) -> tuple:
    """Apply a word (application order) to the point (rbar mod m, simplex)."""
    t = tuple(simplex)
    for kind, i, _ in gens:
        q = len(t) - 1
        if kind == "t":
            rbar, t = rbar - t[-1], (t[-1],) + t[:-1]
        elif kind == "d":
            if i < q:
                t = t[:i] + (t[i] + t[i + 1],) + t[i + 2:]
            else:
                rbar, t = rbar - t[-1], (t[0] + t[-1],) + t[1:-1]
        else:
            t = t[:i + 1] + (Fraction(0),) + t[i + 1:]
    return rbar % m, t


def point_json(m: int, rbar: Fraction, simplex) -> dict:
    return {"m": m, "rbar": rat_str(rbar % m), "simplex": [rat_str(x) for x in simplex]}


# ---------------------------------------------------------------------------
# arc systems on S^1/C_m (JSON in, JSON out)
# ---------------------------------------------------------------------------

def arc_json(m: int, zetas, radii, phi, variant: str) -> dict:
    out = {"m": m, "variant": variant,
           "pairs": [{"zeta": rat_str(Fraction(z) % 1), "r": rat_str(r)}
                     for z, r in zip(zetas, radii)]}
    if phi is not None:
        out["phi"] = [rat_str(p) for p in phi]
    return out


def arc_fields(obj: dict):
    zs = [Fraction(p["zeta"]) for p in obj["pairs"]]
    rs = [Fraction(p["r"]) for p in obj["pairs"]]
    phi = [Fraction(p) for p in obj["phi"]] if "phi" in obj else None
    return obj["m"], zs, rs, phi, obj["variant"]


def arc_rotate(obj: dict, theta: Fraction) -> dict:
    m, zs, rs, phi, variant = arc_fields(obj)
    return arc_json(m, [z + theta for z in zs], rs, phi, variant)


def arc_wreath(obj: dict, shift: int, exps) -> dict:
    """Slot j moves to slot j+shift (mod n), its center turned by exps[j]/m."""
    m, zs, rs, phi, variant = arc_fields(obj)
    n = len(zs)
    z2, r2, p2 = [None] * n, [None] * n, [None] * n
    for j in range(n):
        dst = (j + shift) % n
        z2[dst] = zs[j] + Fraction(exps[j], m)
        r2[dst] = rs[j]
        p2[dst] = phi[j] if phi is not None else None
    return arc_json(m, z2, r2, p2 if phi is not None else None, variant)


def arc_retract(obj: dict, steps: int) -> dict:
    m, zs, rs, phi, variant = arc_fields(obj)
    n = len(zs)
    for _ in range(steps):
        zs = [z + p / 2 for z, p in zip(zs, phi)]
        phi = [(phi[j] + phi[(j + 1) % n]) / 2 for j in range(n)]
    return arc_json(m, zs, rs, phi, variant)


def arc_compose(obj: dict, inners) -> dict:
    """Substitute sorted (v, s) blocks into the arcs: centers z_b + r_b v,
    radii r_b s, gaps by the within-block / to-next-nonempty-block rule."""
    m, zs, rs, phi, _ = arc_fields(obj)
    n = len(zs)
    sizes = [len(b) for b in inners]
    if sum(sizes) == 0:
        return arc_json(m, [], [], [], "uEc")
    zo, ro, po = [], [], []
    for b, blk in enumerate(inners):
        for k, (v, s) in enumerate(blk):
            zo.append(zs[b] + rs[b] * v)
            ro.append(rs[b] * s)
            if k + 1 < len(blk):
                po.append(rs[b] * (blk[k + 1][0] - v))
                continue
            acc, nxt = Fraction(0), b
            while True:
                acc += phi[nxt]
                nxt = (nxt + 1) % n
                if sizes[nxt]:
                    break
            po.append(acc - rs[b] * v + rs[nxt] * inners[nxt][0][0])
    variant = "uCc" if all(r == 0 for r in ro) else "uEc"
    return arc_json(m, zo, ro, po, variant)


def ucc_canonical(m: int, zetas, phi, labels, sigma_pow):
    """Least (centers, gaps, labels) over the orbit of Z_n wr C_m, in closed
    form: each slot's C_m member is forced by reducing its center into
    [0, 1/m), leaving only the n rotations to compare."""
    n = len(zetas)
    q = Fraction(1, m)
    best = None
    for shift in range(n):
        z2, p2, l2 = [None] * n, [None] * n, [None] * n
        for j in range(n):
            dst = (j + shift) % n
            z = Fraction(zetas[j]) % 1
            c = (-(z // q)) % m  # turns z + c/m into its class representative
            z2[dst] = (z + c * q) % 1
            p2[dst] = phi[j]
            l2[dst] = sigma_pow(labels[j], c)
        cand = (tuple(z2), tuple(p2), tuple(l2))
        if best is None or cand < best:
            best = cand
    return best


# ---------------------------------------------------------------------------
# the little 1-disks operad
# ---------------------------------------------------------------------------

def disks_compose(outer, inners) -> dict:
    pairs = []
    for (v, r), inner in zip(outer, inners):
        pairs.extend((v + r * w, r * s) for w, s in inner)
    return {"instance": "dR",
            "pairs": [{"v": rat_str(v), "r": rat_str(r)} for v, r in pairs]}
