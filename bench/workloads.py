"""The four workloads: seeded inputs, one fixed-coverage pass, exact checks.

A workload builds its inputs from the seed in `setup` (timed as part of
`setup_s`), then runs passes.  `pass_seconds` is a pass's corrected duration
at the seed commit; a measuring run makes round(seconds / pass_seconds)
passes, so that every run of a workload does the same work.  A pass is a list of top-level calls into the
package, each timed alone by `clock` (a SpeedClock the worker sets); the
checks run after the pass, outside the timed calls, against values recorded
at the seed commit or computed by `oracles`.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field

import clistream
import inputs
import oracles as O


@dataclass
class Call:
    label: str
    seconds: float               # corrected for machine speed (speedclock)
    raw_seconds: float
    cases: int
    output: object = None
    escaped: str | None = None   # exception type name, when one escaped


@dataclass
class Outcome:
    """Failures found in one pass.  `wrong` are wrong verdicts, counts or
    outputs; `mishandled` are malformed requests that did not exit 2."""
    wrong: list[str] = field(default_factory=list)
    mishandled: list[str] = field(default_factory=list)


def _timed(clock, label: str, fn, *args, cases=None, **kwargs) -> Call:
    mark = clock.mark()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # a sweep call must not raise: record it as wrong
        return Call(label, *clock.since(mark), 0, None, type(exc).__name__)
    return Call(label, *clock.since(mark), cases(out) if cases else 1, out)


def _pass_seed(seed: int, i: int) -> int:
    return seed * 7919 + i


# ---------------------------------------------------------------------------
# laws: the operad-laws and embed-compose suites (acceptance criteria 01-05)
# ---------------------------------------------------------------------------

class Laws:
    name = "laws"
    pass_seconds = 1.45
    trace_passes = 2

    def __init__(self, tiny: bool = False):
        self.trials = 2 if tiny else 30

    def expected_cases(self, suite: str) -> int:
        # recorded at the seed commit: 9 law families x trials for the operad
        # laws; trials + trials // 2 + the two frozen examples for embed-compose
        t = self.trials
        return 9 * t if suite == "operad-laws" else t + t // 2 + 2

    def setup(self, seed: int):
        from arcbar import suites
        self.suites = suites
        self.seed = seed

    def warmup(self) -> None:
        for suite in ("operad-laws", "embed-compose"):
            self.suites.run_suite(self.suites.RunConfig(suite, seed=self.seed, trials=1))

    def run_pass(self, i: int) -> list[Call]:
        # two operad-laws runs per embed-compose run, so that the median
        # request falls inside one suite's latencies, not between the two
        s = self.suites
        seed = _pass_seed(self.seed, i)
        cfgs = [s.RunConfig("operad-laws", seed=seed, trials=self.trials),
                s.RunConfig("operad-laws", seed=seed + 1, trials=self.trials),
                s.RunConfig("embed-compose", seed=seed, trials=self.trials)]
        return [_timed(self.clock, c.suite, s.run_suite, c, cases=lambda r: r.cases)
                for c in cfgs]

    def check(self, i: int, calls: list[Call]) -> Outcome:
        out = Outcome()
        for c in calls:
            if c.escaped:
                out.wrong.append(f"{c.label}: raised {c.escaped}")
            elif not c.output.ok:
                out.wrong.append(f"{c.label}: verdict not ok: {c.output.failures[:2]}")
            elif c.cases != self.expected_cases(c.label):
                out.wrong.append(f"{c.label}: {c.cases} cases, expected "
                                 f"{self.expected_cases(c.label)}")
        return out

    def report(self, c: Call):
        return None if c.escaped else {k: v for k, v in c.output.to_json().items()
                                       if k != "elapsed_s"}


# ---------------------------------------------------------------------------
# bar-relations: the m-cyclic relations per standard monoid, word rewriting
# ---------------------------------------------------------------------------

# |R|^(q+1) tuples per degree up to the cap, 300 samples above it; recorded at
# the seed commit for q_max = 4 and cap = 4096 (c7-sq is sampled at q = 4).
_RELATION_CASES = {"trivial": 60, "c2": 360, "c3-inv": 1360, "c7-sq": 4972}


class BarRelations:
    name = "bar-relations"
    pass_seconds = 3.1
    trace_passes = 1

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self.q_max = 2 if tiny else 4
        self.m_max = 2 if tiny else 4
        self.cap = 4096
        # one word per length in every pass, fresh words each pass: the
        # rewriting cost grows like L^3, so random lengths would make the
        # pass time depend on the seed.  The words are rewritten in three
        # timed batches, so that the slowest call stays the c7-sq check and
        # the median call a c2 check, whatever words the seed draws.
        self.batches = ((8,), (24,)) if tiny else ((64, 96, 128, 160, 192), (224,), (256,))
        self.lengths = sum(self.batches, ())
        self.word_sets = 4 if tiny else 16

    def setup(self, seed: int):
        from arcbar import barcalc, cyclic
        self.barcalc, self.cyclic = barcalc, cyclic
        self.seed = seed
        self.monoids = [R for m in range(1, self.m_max + 1)
                        for R in barcalc.standard_monoids(m)]
        rng = random.Random(seed)
        self.words = []
        for _ in range(self.word_sets):
            for length in self.lengths:
                m, q = rng.randint(1, 3), rng.randint(0, 4)
                gens = inputs.make_word(rng, q, length, max_degree=8)
                points = [inputs.make_point(rng, m, q) for _ in range(2)]
                self.words.append((cyclic.parse_word(O.word_str(gens), m, q), gens, points))

    def expected_cases(self, R) -> int:
        if self.tiny:
            return sum(len(R.elements) ** (q + 1) for q in range(1, self.q_max + 1))
        return _RELATION_CASES[R.name]

    def warmup(self) -> None:
        self.barcalc.verify_cyclic_object(self.monoids[0], 1)
        self.cyclic.normalize_word(self.words[0][0])

    def run_pass(self, i: int) -> list[Call]:
        b = self.barcalc
        seed = _pass_seed(self.seed, i)
        calls = [_timed(self.clock, f"verify[{R.name},m={R.m}]", b.verify_cyclic_object,
                        R, self.q_max, cap=self.cap, seed=seed, trials=300,
                        cases=lambda r: r.cases)
                 for R in self.monoids]
        j = (i % self.word_sets) * len(self.lengths)
        for batch in self.batches:
            words = [w for w, _, _ in self.words[j:j + len(batch)]]
            calls.append(_timed(self.clock, f"normalize[{j}:{j + len(batch)}]",
                                self._normalize_all, words, cases=len))
            j += len(batch)
        return calls

    def _normalize_all(self, words):
        return [self.cyclic.normalize_word(w) for w in words]

    def check(self, i: int, calls: list[Call]) -> Outcome:
        out = Outcome()
        for c, R in zip(calls, self.monoids):
            if c.escaped:
                out.wrong.append(f"{c.label}: raised {c.escaped}")
            elif not c.output.ok:
                out.wrong.append(f"{c.label}: verdict not ok: {c.output.failures[:2]}")
            elif c.cases != self.expected_cases(R):
                out.wrong.append(f"{c.label}: {c.cases} cases, expected "
                                 f"{self.expected_cases(R)}")
        for c in calls[len(self.monoids):]:
            if c.escaped:
                out.wrong.append(f"{c.label}: raised {c.escaped}")
                continue
            lo, hi = map(int, c.label[10:-1].split(":"))
            for (w, gens, points), nf in zip(self.words[lo:hi], c.output):
                why = _check_normal_form(w, gens, points, nf)
                if why:
                    out.wrong.append(f"{c.label}: {why}")
        return out

    def report(self, c: Call):
        if c.escaped:
            return None
        if c.label.startswith("verify"):
            return {"cases": c.output.cases, "failures": c.output.failures}
        return [str(nf) for nf in c.output]


def _check_normal_form(w, gens, points, nf) -> str | None:
    m, q = w.m, w.source
    if (nf.m, nf.source, nf.target) != (m, q, O.target_degree(gens, q)):
        return "normal form changes m, source or target"
    try:
        nf_gens = O.parse_tokens(str(nf), q)
    except ValueError:
        return "normal form does not parse"
    if not O.is_normal_form(nf_gens, m, q):
        return "normal form is not canonical"
    for rbar, simplex in points:
        if O.act_point(nf_gens, m, rbar, tuple(simplex)) != \
                O.act_point(gens, m, rbar, tuple(simplex)):
            return "normal form acts differently from its word"
    return None


# ---------------------------------------------------------------------------
# orbit-classes: exact class counts of the free comparison theorem, and
# labeled orbits under the wreath group
# ---------------------------------------------------------------------------

# class counts per arity n = 1..4 at den = 4, for every m (seed commit)
_CLASSES = [12, 90, 540, 2835]


class OrbitClasses:
    name = "orbit-classes"
    pass_seconds = 10.7
    trace_passes = 1

    def __init__(self, tiny: bool = False):
        # (m, n_max) per theorem check and (m, n) per labeled orbit; two
        # (3, 5) orbits put the median request inside one kind of call
        self.thm = [(1, 2), (2, 2), (3, 1)] if tiny else [(1, 3), (2, 4), (3, 2)]
        self.orbits = [(2, 3), (3, 3)] if tiny else [(3, 5), (3, 5), (2, 8)]
        self.den = 4

    def setup(self, seed: int):
        from arcbar import barcalc, circle
        self.barcalc = barcalc
        self.seed = seed
        self.letters = {m: barcalc.pointed_set(
            "letters", ["x", "y", "z"], m, {"x": "y", "y": "x"} if m % 2 == 0 else {})
            for m in range(1, 4)}
        rng = random.Random(seed)
        self.systems = {}
        for m, n in dict.fromkeys(self.orbits):
            items = []
            for _ in range(8):
                obj = inputs.make_arc_system(rng, m, n, zero_radii=True)
                _, zs, _, phi, _ = O.arc_fields(obj)
                x = circle.system(m, [(z, 0) for z in zs], phi, "uCc")
                labels = tuple(rng.choice("xyz") for _ in range(n))
                items.append((x, labels, zs, phi))
            self.systems[(m, n)] = items

    def warmup(self) -> None:
        self.barcalc.check_thm_cycbar_free(self.letters[2], 2, 2, self.den, verify_reps=2)

    def run_pass(self, i: int) -> list[Call]:
        b = self.barcalc
        calls = [_timed(self.clock, f"thm[m={m},n<={n}]", b.check_thm_cycbar_free,
                        self.letters[m], n, m, self.den, verify_reps=5,
                        cases=lambda r: sum(e["left_classes"] for e in r.per_degree))
                 for m, n in self.thm]
        for k, (m, n) in enumerate(self.orbits):
            items = self.systems[(m, n)]
            x, labels, _, _ = items[(i * len(self.orbits) + k) % len(items)]
            calls.append(_timed(self.clock, f"orbit[m={m},n={n}]", b.labeled_orbit,
                                self.letters[m], x, labels))
        return calls

    def check(self, i: int, calls: list[Call]) -> Outcome:
        out = Outcome()
        for c, (m, n) in zip(calls, self.thm):
            if c.escaped:
                out.wrong.append(f"{c.label}: raised {c.escaped}")
                continue
            got = [(e["left_classes"], e["right_classes"]) for e in c.output.per_degree]
            if not c.output.ok or got != [(k, k) for k in _CLASSES[:n]]:
                out.wrong.append(f"{c.label}: classes {got}, failures {c.output.failures[:2]}")
        for k, (c, (m, n)) in enumerate(zip(calls[len(self.thm):], self.orbits)):
            items = self.systems[(m, n)]
            _, labels, zs, phi = items[(i * len(self.orbits) + k) % len(items)]
            X = self.letters[m]
            want = O.ucc_canonical(m, zs, phi, labels, X.sigma_pow)
            if c.escaped:
                out.wrong.append(f"{c.label}: raised {c.escaped}")
                continue
            o = c.output
            got = (tuple(z.value for z, _ in o.space.pairs), tuple(o.space.phi), o.labels) \
                if o.kind == "point" else None
            if got != want:
                out.wrong.append(f"{c.label}: canonical representative differs")
        return out

    def report(self, c: Call):
        if c.escaped:
            return None
        if c.label.startswith("thm"):
            return {"per_degree": c.output.per_degree, "failures": c.output.failures}
        return repr(c.output)


# ---------------------------------------------------------------------------
# cli-requests: one closed-loop client calling the workbench in-process
# ---------------------------------------------------------------------------

class CliRequests:
    name = "cli-requests"
    pass_seconds = 0.7
    trace_passes = 6

    def __init__(self, tiny: bool = False):
        self.chunk = 20 if tiny else 100   # requests per pass

    def setup(self, seed: int):
        from arcbar import cli
        self.cli = cli
        self.seed = seed
        self._chunks: dict[int, list] = {}
        self.requests(0)

    def requests(self, i: int) -> list:
        """Pass i's requests, made from the seed when first needed; holding
        the whole stream would add its objects to every GC traversal."""
        if i not in self._chunks:
            if len(self._chunks) >= 8:
                del self._chunks[min(self._chunks)]
            self._chunks[i] = clistream.make_stream(self.seed * 100_003 + i, self.chunk)
        return self._chunks[i]

    def warmup(self) -> None:
        for r in clistream.make_stream(self.seed - 1, 5):
            self._call(r)

    def _call(self, req) -> Call:
        out, err = io.StringIO(), io.StringIO()
        escaped = None
        mark = self.clock.mark()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(req.argv))
        except SystemExit as exc:   # argparse rejects with exit 2
            rc = exc.code
        except Exception as exc:    # an escaped exception is a counted failure
            rc, escaped = None, type(exc).__name__
        return Call(req.kind, *self.clock.since(mark), 1,
                    (rc, out.getvalue(), err.getvalue()), escaped)

    def run_pass(self, i: int) -> list[Call]:
        return [self._call(r) for r in self.requests(i)]

    def check(self, i: int, calls: list[Call]) -> Outcome:
        out = Outcome()
        for req, c in zip(self.requests(i), calls):
            rc, stdout, stderr = c.output
            why = clistream.check_response(req, c.escaped or rc, stdout, stderr)
            if why is None:
                continue
            if req.mutation is not None:
                out.mishandled.append(f"{req.kind}/{req.mutation}: {why}")
            else:
                out.wrong.append(f"{req.kind}: {why}")
        return out

    def report(self, c: Call):
        return c.output if not c.escaped else c.escaped


WORKLOADS = {w.name: w for w in (Laws, BarRelations, OrbitClasses, CliRequests)}
