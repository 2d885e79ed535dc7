"""Named verification suites: deterministic, seeded sweeps over the algebraic
laws, with machine-readable reports and a nonzero exit status on any failure."""
from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import barcalc, circle, cyclic
from .groups import Perm, block_cycle_perm, znwrcm_elements
from .operads import (ASSOC, COMPACT, FRAMED_C2, LITTLE_DISKS, OPERAD_MAPS,
                      SEMIDIRECT_C2, check_operad_laws, check_operad_map,
                      lattice, pair_view, sample_ucompact, semidirect_iso,
                      semidirect_iso_inverse, split_blocks, substitute)
from .rational import InvariantViolation
from .report import Report


@dataclass(frozen=True)
class RunConfig:
    suite: str
    seed: int = 0
    trials: int = 200
    n_max: int = 3
    q_max: int = 3
    m_max: int = 3
    den: int = 4

    def __post_init__(self) -> None:
        for name in ("trials", "n_max", "q_max", "m_max", "den"):
            if getattr(self, name) < 1:
                raise InvariantViolation(f"{name} must be >= 1")


def _report(cfg: RunConfig) -> Report:
    return Report(cfg.suite, asdict(cfg))


# ---------------------------------------------------------------------------

def run_operad_laws(cfg: RunConfig) -> Report:
    rep = _report(cfg)
    instances = [ASSOC, LITTLE_DISKS, FRAMED_C2, COMPACT, SEMIDIRECT_C2]
    for inst in instances:
        rep.absorb(check_operad_laws(inst, cfg.seed, cfg.trials,
                                     allow_nullary=inst.allow_nullary), inst.name)
    for name, (fn, src, dst) in OPERAD_MAPS.items():
        rep.absorb(check_operad_map(fn, src, dst, cfg.seed + 1, cfg.trials,
                                    allow_nullary=src.allow_nullary), name)
    # the iso is a bijection
    rng = random.Random(cfg.seed + 2)
    for t in range(cfg.trials):
        with rep.guard("semidirect-iso:closure", f"trial {t}"):
            x = SEMIDIRECT_C2.sample(rng, rng.randint(1, 3))
            if semidirect_iso_inverse(semidirect_iso(x)) != x:
                rep.fail("semidirect-iso:roundtrip", f"trial {t}")
        rep.cases += 1
    return rep


def run_embed_compose(cfg: RunConfig) -> Report:
    rep = _report(cfg)
    rng = random.Random(cfg.seed)

    # frozen worked example
    rep.cases += 1
    with rep.guard("worked-example", "m=1 n=2"):
        outer = circle.system(1, [(Fraction(0), Fraction(1, 8)),
                                  (Fraction(1, 2), Fraction(1, 8))],
                              [Fraction(1, 2), Fraction(1, 2)], "uEc")
        got = circle.compose_uec(outer, [((Fraction(0), Fraction(1, 2)),),
                                         ((Fraction(1, 2), Fraction(1, 4)),)])
        want = circle.system(1, [(Fraction(0), Fraction(1, 16)),
                                 (Fraction(9, 16), Fraction(1, 32))],
                             [Fraction(9, 16), Fraction(7, 16)], "uEc")
        if got != want:
            rep.fail("worked-example", "m=1 n=2", str(want), str(got))

    for t in range(cfg.trials):
        with rep.guard("closure", f"trial {t}"):
            m = rng.randint(1, cfg.m_max)
            n = rng.randint(1, cfg.n_max)
            f = circle.sample_uec(rng, m, n)
            sizes = [rng.randint(0, 2) for _ in range(n)]
            gs = [sample_ucompact(rng, s) for s in sizes]
            fg = circle.compose_uec(f, gs)
            rep.cases += 1
            if sum(fg.ps) != (fg.den // m if fg.n else 0):
                rep.fail("gap-sum", f"trial {t}")
            # unit law
            units = [((Fraction(0), Fraction(1)),) for _ in range(n)]
            if circle.compose_uec(f, units) != f:
                rep.fail("unit", f"trial {t}")
            # associativity against the interval operad
            hs = [sample_ucompact(rng, rng.randint(0, 2)) for _ in range(fg.n)]
            lhs = circle.compose_uec(fg, hs)
            ghs = [pair_view(*substitute(lattice(g), [lattice(h) for h in blk],
                                         [1] * len(g)))
                   for g, blk in zip(gs, split_blocks(hs, [len(g) for g in gs]))]
            rhs = circle.compose_uec(f, ghs)
            if lhs != rhs:
                rep.fail("module-associativity", f"trial {t}")
            # cyclic block compatibility
            k = rng.randrange(n)
            alpha = Perm.cycle(n) ** k
            lhs = circle.compose_uec(circle.cyclic_rotate(f, alpha), gs)
            inv = alpha.inverse()
            rotated = [gs[inv(p)] for p in range(n)]
            sizes_r = [len(g) for g in gs]
            rho = block_cycle_perm(sizes_r, alpha)
            rhs = circle.compose_uec(f, rotated)
            if rho.degree:
                rhs = circle.cyclic_rotate(rhs, rho)
            if lhs != rhs:
                rep.fail("cyclic-compatibility", f"trial {t}")
            # actions commute
            g = rng.choice(list(znwrcm_elements(n, m)))
            theta = Fraction(rng.randint(0, 7), 8)
            if circle.circle_act(theta, circle.wreath_act(g, f)) != \
                    circle.wreath_act(g, circle.circle_act(theta, f)):
                rep.fail("action-commutation", f"trial {t}")
    # retraction
    for t in range(cfg.trials // 2):
        with rep.guard("retract-closure", f"trial {t}"):
            m = rng.randint(1, cfg.m_max)
            n = rng.randint(1, cfg.n_max + 1)
            x = circle.sample_ucc(rng, m, n, allow_zero_gaps=True)
            y = x
            for _ in range(n):
                y = circle.retract_step(y)
            rep.cases += 1
            if any(p <= 0 for p in y.ps):
                rep.fail("retract-positivity", f"trial {t}")
    rep.cases += 1
    with rep.guard("retract-example", "phi=(1,0)"):
        y = circle.retract_step(circle.system(1, [(0, 0), (0, 0)], [1, 0], "uCc"))
        if y.phi != (Fraction(1, 2), Fraction(1, 2)):
            rep.fail("retract-example", "phi=(1,0)", "(1/2, 1/2)", str(y.phi))
    return rep


def run_cyclic_relations(cfg: RunConfig) -> Report:
    rep = _report(cfg)
    for m in range(1, cfg.m_max + 1):
        for R in barcalc.standard_monoids(m):
            prefix = f"cyclic[{R.name},m={m}]"
            with rep.guard(f"{prefix}:closure", f"q_max={cfg.q_max}"):
                rep.absorb(barcalc.verify_cyclic_object(R, cfg.q_max, seed=cfg.seed,
                                                        trials=cfg.trials), prefix)
    rng = random.Random(cfg.seed)
    for t in range(cfg.trials):
        with rep.guard("word-closure", f"trial {t}"):
            m = rng.randint(1, min(cfg.m_max, 3))
            q = rng.randint(0, min(cfg.q_max, 4))
            w = cyclic.sample_word(rng, m, q, rng.randint(0, 8))
            p = cyclic.sample_point(rng, m, q)
            nf = cyclic.normalize_word(w)
            rep.cases += 1
            if cyclic.act_on_point(w, p) != cyclic.act_on_point(nf, p):
                rep.fail("word-action-consistency", f"trial {t}: {w}")
            if not _has_normal_shape(nf) or cyclic.normalize_word(nf) != nf:
                rep.fail("word-shape", f"trial {t}: {w}", got=str(nf))
    return rep


def _has_normal_shape(w: cyclic.CyclicWord) -> bool:
    """Faces with strictly decreasing indices, then degeneracies with strictly
    increasing indices, then tau^k with 0 <= k < m(q+1), all in application
    order."""
    kinds = [g.kind for g in w.gens]
    faces = [g.index for g in w.gens if g.kind == "d"]
    degens = [g.index for g in w.gens if g.kind == "s"]
    return (kinds == sorted(kinds, key="dst".index)
            and all(a > b for a, b in zip(faces, faces[1:]))
            and all(a < b for a, b in zip(degens, degens[1:]))
            and kinds.count("t") < w.m * (w.target + 1))


def run_lambda_iso(cfg: RunConfig) -> Report:
    rep = _report(cfg)
    rng = random.Random(cfg.seed)
    for t in range(cfg.trials):
        with rep.guard("closure", f"trial {t}"):
            m = rng.randint(1, cfg.m_max)
            q = rng.randint(0, cfg.q_max)
            p = cyclic.sample_point(rng, m, q)
            x = cyclic.lambda_to_ucc(p)
            rep.cases += 1
            if cyclic.ucc_to_lambda(x) != p:
                rep.fail("roundtrip", f"trial {t}")
            if not cyclic.tau_upsilon_intertwined(p):
                rep.fail("tau-upsilon", f"trial {t}")
            theta = Fraction(rng.randint(0, 15), 16)
            if cyclic.lambda_to_ucc(cyclic.circle_act_point(theta, p)) != \
                    circle.circle_act(theta, x):
                rep.fail("circle-equivariance", f"trial {t}")
    for m in range(1, cfg.m_max + 1):
        Xm = barcalc.pointed_set("x", ["x"], m)
        prefix = f"orbit-classes[m={m}]"
        with rep.guard(f"{prefix}:closure", f"n_max={cfg.q_max + 1}"):
            rep.absorb(barcalc.check_thm_cycbar_free(Xm, cfg.q_max + 1, m, cfg.den,
                                                     verify_reps=5), prefix)
    return rep


def run_thm_cycbar(cfg: RunConfig) -> Report:
    rep = _report(cfg)
    letters = ["x", "y", "z"]
    for m in range(1, cfg.m_max + 1):
        # letter swap of order 2 when it divides m, else the trivial action
        sigma = {"x": "y", "y": "x"} if m % 2 == 0 else {}
        X = barcalc.pointed_set("letters", letters, m, sigma)
        prefix = f"thm-cycbar[m={m}]"
        with rep.guard(f"{prefix}:closure", f"n_max={cfg.n_max}"):
            rep.absorb(barcalc.check_thm_cycbar_free(X, cfg.n_max, m, cfg.den,
                                                     verify_reps=20), prefix)
    return rep


SUITES = {
    "operad-laws": run_operad_laws,
    "embed-compose": run_embed_compose,
    "cyclic-relations": run_cyclic_relations,
    "lambda-iso": run_lambda_iso,
    "thm-cycbar": run_thm_cycbar,
}


def run_suite(cfg: RunConfig) -> Report:
    if cfg.suite not in SUITES:
        raise InvariantViolation(
            f"unknown suite {cfg.suite!r}; valid: {', '.join(sorted(SUITES))}")
    start = time.monotonic()
    rep = SUITES[cfg.suite](cfg)
    rep.elapsed_s = time.monotonic() - start
    return rep
