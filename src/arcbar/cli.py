"""The `workbench` command line front end."""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import barcalc, circle, cyclic, jsonio, suites
from .operads import INSTANCES, check_operad_laws
from .rational import InvariantViolation, MismatchError, Turn
from .report import Report


def _env_seed() -> int:
    return jsonio.parse_input(int, os.environ.get("WORKBENCH_SEED", "0"),
                              "WORKBENCH_SEED")


def _load_json(text: str):
    if text == "-":
        return json.load(sys.stdin)
    if text.strip().startswith(("{", "[", '"')):
        return json.loads(text)
    try:
        with open(text) as fh:
            return json.load(fh)
    except OSError as exc:
        raise jsonio.SchemaError(f"cannot read {text!r}: {exc.strerror}") from exc


def _parse(option: str, text: str, from_json=lambda obj: obj):
    """Load the JSON text of one option (inline, a file, or - for stdin) and
    parse it; malformed input becomes a SchemaError naming the option."""
    return jsonio.parse_input(lambda t: from_json(_load_json(t)), text, option)


def _emit(obj, fh=None) -> None:
    fh = fh or sys.stdout
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


# the RunConfig fields a verdict command takes as options
_RUN_OPTIONS = {"seed": ["--seed"], "trials": ["--trials"], "m_max": ["--m"],
                "n_max": ["--nmax"], "q_max": ["--qmax", "--q"], "den": ["--den"]}
_REQUIRED = {"required": True}
# an append action copies its default list before it appends to it
_INNERS = {"action": "append", "default": []}

# module -> (help, leaf or {command: leaf}); a leaf is (its options, each
# flag -> add_argument keywords, and the suite it is a verdict of or None)
_MODULES = {
    "operad": ("operad composition and law checks", {
        "compose": ({"--instance": {"required": True, "choices": sorted(
                         name for name, inst in INSTANCES.items()
                         if jsonio.has_json_form(inst))},
                     "--outer": _REQUIRED, "--inner": _INNERS}, None),
        "verify": ({"--instance": {"default": "all",
                                   "choices": sorted(INSTANCES) + ["all"]}},
                   "operad-laws")}),
    "embed": ("arc-system composition and actions", {
        "compose": ({"--outer": _REQUIRED, "--inner": {
                         **_INNERS, "help": "JSON list of [v, s] pairs, one per outer arc"}},
                    None),
        "act": ({"--system": _REQUIRED, "--wreath": {"default": None},
                 "--theta": {"default": None, "help": "rotation in turns, e.g. 1/4"}},
                None),
        "retract": ({"--system": _REQUIRED, "--steps": {"type": int, "default": 1}},
                    None),
        "verify": ({}, "embed-compose")}),
    "cyclic": ("m-cyclic words and the point model", {
        "normalize": ({"--word": _REQUIRED, "--m": {"type": int, "required": True},
                       "--q": {"type": int, "required": True, "help": "source degree"}},
                      None),
        "act": ({"--word": _REQUIRED, "--point": _REQUIRED}, None),
        "iso-check": ({}, "lambda-iso")}),
    "bar": ("cyclic bar constructions", {
        "cyclic-verify": ({"--monoid": {
            "default": None,
            "help": "monoid table JSON; defaults to the standard battery"}},
            "cyclic-relations"),
        "thm-cycbar": ({}, "thm-cycbar")}),
    "suite": ("named verification suites", ({}, suites.SUITES)),
    "element": ("schema round trips", {
        "roundtrip": ({"--json": {"required": True, "dest": "payload"},
                       "--kind": {"default": None}}, None)}),
}


def _add_leaf(p: argparse.ArgumentParser, options: dict, suite) -> None:
    """Give the leaf parser `p` (a command, or `suite`) its options, each
    flag -> add_argument keywords.  With a `suite`, `p` is a verdict
    command: its namespace holds the suite as `name` (the one named here, or
    a positional choice among several), and a RunConfig option left out
    stays None and takes the RunConfig default (the seed: WORKBENCH_SEED)."""
    for flag, kwargs in options.items():
        p.add_argument(flag, **kwargs)
    if suite is None:
        return
    if isinstance(suite, str):
        p.set_defaults(name=suite)
    else:
        p.add_argument("name", choices=sorted(suite))
    for dest, flags in _RUN_OPTIONS.items():
        p.add_argument(*flags, type=int, dest=dest)
    p.add_argument("--out")


def _finish(rep: Report, out: str | None) -> int:
    """Write the report to `out` when given, print it, and map it to the exit
    status: 0 when every law holds, 1 otherwise."""
    doc = rep.to_json()
    if out:
        try:
            with open(out, "w") as fh:
                _emit(doc, fh)
        except OSError as exc:
            raise jsonio.SchemaError(f"cannot write {out!r}: {exc.strerror}") from exc
    _emit(doc)
    return 0 if rep.ok else 1


def _parser(words) -> argparse.ArgumentParser:
    """The parser tree as far as the argv words in `words` can reach it.

    argparse hands the rest of argv to a subparser only when a word equals
    the subparser's name, so a part no word names is never read.  Every
    module parser is built, and under a named module every command parser,
    so usage lines, help and choice errors are those of the full tree; only
    the options of unnamed leaves are left out."""
    parser = argparse.ArgumentParser(
        prog="workbench",
        description="verification workbench for exact circle-operad algebra")
    modules = parser.add_subparsers(dest="module", required=True)
    for module, (text, spec) in _MODULES.items():
        p = modules.add_parser(module, help=text)
        if module not in words:
            continue
        if isinstance(spec, tuple):
            _add_leaf(p, *spec)
            continue
        commands = p.add_subparsers(dest="command", required=True)
        for command, leaf in spec.items():
            q = commands.add_parser(command)
            if command in words:
                _add_leaf(q, *leaf)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        env_seed = _env_seed()  # read on each call: a malformed one fails every command
        if argv is None:
            argv = sys.argv[1:]
        args = _parser(set(argv)).parse_args(argv)
        if "name" in args:
            return _finish(_verdict(args, env_seed), args.out)
        _dispatch(args)
        return 0
    except (InvariantViolation, MismatchError, jsonio.SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _verdict(args, env_seed: int) -> Report:
    """Run a verdict command on the RunConfig of its given options: the laws
    of one operad instance, the relations of one given monoid, or a suite."""
    given = {k: v for k, v in vars(args).items() if k in _RUN_OPTIONS and v is not None}
    cfg = suites.RunConfig(args.name, **{"seed": env_seed, **given})
    if getattr(args, "instance", "all") != "all":
        inst = INSTANCES[args.instance]
        return check_operad_laws(inst, cfg.seed, cfg.trials,
                                 allow_nullary=inst.allow_nullary)
    if getattr(args, "monoid", None) is not None:
        R = _parse("--monoid", args.monoid, jsonio.monoid_from_json)
        return barcalc.verify_cyclic_object(R, cfg.q_max, seed=cfg.seed,
                                            trials=cfg.trials)
    return suites.run_suite(cfg)


def _dispatch(args) -> None:
    """Run one command that is no verdict and print its result."""
    cmd = (args.module, args.command)
    if cmd == ("operad", "compose"):
        inst = INSTANCES[args.instance]
        elem = lambda obj: jsonio.operad_elem_from_json(obj, args.instance)
        outer = _parse("--outer", args.outer, elem)
        inners = [_parse("--inner", s, elem) for s in args.inner]
        _emit(jsonio.operad_elem_to_json(inst.compose(outer, inners)))
    elif cmd == ("embed", "compose"):
        outer = _parse("--outer", args.outer, jsonio.arc_system_from_json)
        inners = [_parse("--inner", b, jsonio.interval_block_from_json)
                  for b in args.inner]
        _emit(jsonio.arc_system_to_json(circle.compose_uec(outer, inners)))
    elif cmd == ("embed", "act"):
        x = _parse("--system", args.system, jsonio.arc_system_from_json)
        if args.wreath is not None:
            x = circle.wreath_act(
                _parse("--wreath", args.wreath, jsonio.wreath_from_json), x)
        if args.theta is not None:
            theta = jsonio.parse_input(Fraction, args.theta, "--theta")
            x = circle.circle_act(Turn(theta), x)
        _emit(jsonio.arc_system_to_json(x))
    elif cmd == ("embed", "retract"):
        if args.steps < 0:
            raise InvariantViolation("--steps must be >= 0")
        x = _parse("--system", args.system, jsonio.arc_system_from_json)
        for _ in range(args.steps):
            x = circle.retract_step(x)
        _emit(jsonio.arc_system_to_json(x))
    elif cmd == ("cyclic", "normalize"):
        w = cyclic.parse_word(args.word, args.m, args.q)
        nf = cyclic.normalize_word(w)
        _emit({"input": str(w), "normal_form": str(nf),
               "source": nf.source, "target": nf.target, "m": nf.m})
    elif cmd == ("cyclic", "act"):
        p = _parse("--point", args.point, jsonio.point_from_json)
        _emit(jsonio.point_to_json(cyclic.act_on_point(args.word, p)))
    else:  # element roundtrip
        payload = _parse("--json", args.payload)
        _emit(jsonio.element_round_trip(payload, kind=args.kind))


if __name__ == "__main__":
    sys.exit(main())
