"""Canonical JSON schemas for the workbench: rationals as 'p/q' strings,
permutations as one-based image arrays, and dictionaries for the structured
values.  Parsing validates every invariant and names the violated one."""
from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Callable, TypeVar

from .barcalc import FinCmMonoid
from .circle import ArcSystem, check_variant
from .cyclic import CyclicPoint, CyclicWord, parse_word
from .groups import CyclicElem, Perm, WreathElem
from .operads import (COMPACT, LITTLE_DISKS, AssocElem, CompactElem,
                      DiskTuple, FramedOperad, FramedTuple, SignedGroup)
from .rational import InvariantViolation, Turn, parse_rat, rat_str


T = TypeVar("T")


class SchemaError(ValueError):
    pass


def parse_input(parse: Callable[[Any], T], value: Any, what: str) -> T:
    """Apply `parse` to untrusted input: malformed input of any shape raises
    a SchemaError naming `what` and the violated invariant."""
    try:
        return parse(value)
    except SchemaError:
        raise
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise SchemaError(f"invalid {what}: {exc}") from exc


def _need(obj: dict, key: str) -> Any:
    if key not in obj:
        raise SchemaError(f"missing field {key!r}")
    return obj[key]


# -- scalars ----------------------------------------------------------------

def _num(obj: dict, key: str, parse: Callable[[Any], T] = parse_rat) -> T:
    """Parse the exact number in field `key`; a JSON float or boolean is none."""
    value = _need(obj, key)
    if isinstance(value, (bool, float)):
        raise SchemaError(
            f"field {key!r} takes an integer or a string, not {json.dumps(value)}")
    return parse(value)


def turn_to_json(t: Turn) -> dict:
    return {"value": rat_str(t.value), "modulus": rat_str(t.modulus)}


def turn_from_json(obj: dict) -> Turn:
    return Turn(_num(obj, "value"), _num(obj, "modulus"))


# -- groups -----------------------------------------------------------------

def perm_to_json(p: Perm) -> list[int]:
    return p.one_based()


def perm_from_json(images: list[int]) -> Perm:
    try:
        return Perm.from_one_based(images)
    except InvariantViolation as exc:
        raise SchemaError(f"bad permutation: {exc}") from exc


def _member_to_json(x: CyclicElem) -> dict:
    return {"order": x.order, "exponent": x.exponent}


def _member_from_json(obj) -> CyclicElem:
    if not isinstance(obj, dict):
        raise SchemaError("group members are {order, exponent} objects")
    return CyclicElem(_num(obj, "order", int), _num(obj, "exponent", int))


def wreath_to_json(w: WreathElem) -> dict:
    return {"perm": perm_to_json(w.perm),
            "members": [_member_to_json(h) for h in w.members]}


def wreath_from_json(obj: dict) -> WreathElem:
    return WreathElem(perm_from_json(_need(obj, "perm")),
                      tuple(_member_from_json(h) for h in _need(obj, "members")))


# -- arc systems ------------------------------------------------------------

def arc_system_to_json(x: ArcSystem) -> dict:
    return {"m": x.m,
            "pairs": [{"zeta": rat_str(z.value), "r": rat_str(r)}
                      for z, r in x.pairs],
            "phi": [rat_str(p) for p in x.phi],
            "variant": x.variant}


def arc_system_from_json(obj: dict) -> ArcSystem:
    """Parse an arc system; its `variant` label must be the one the radii give."""
    pairs = tuple((Turn(_num(p, "zeta")), _num(p, "r")) for p in _need(obj, "pairs"))
    try:
        gaps = iter(_need(obj, "phi"))
    except TypeError:
        raise SchemaError("field 'phi' must be a list of gaps, one per arc") from None
    phi = tuple(parse_rat(p) for p in gaps)
    m, label = _num(obj, "m", int), _need(obj, "variant")
    x = ArcSystem(m, pairs, phi)
    check_variant(x, label)
    return x


# -- cyclic model -----------------------------------------------------------

def point_to_json(p: CyclicPoint) -> dict:
    return {"m": p.m, "rbar": rat_str(p.rbar.value),
            "simplex": [rat_str(t) for t in p.simplex]}


def point_from_json(obj: dict) -> CyclicPoint:
    m = _num(obj, "m", int)
    return CyclicPoint(m, Turn(_num(obj, "rbar"), Fraction(m)),
                       tuple(parse_rat(t) for t in _need(obj, "simplex")))


def word_to_json(w: CyclicWord) -> dict:
    return {"m": w.m, "q": w.source, "word": str(w)}


def word_from_json(obj: dict) -> CyclicWord:
    return parse_word(_need(obj, "word"), _num(obj, "m", int), _num(obj, "q", int))


# -- monoid tables ----------------------------------------------------------

def monoid_to_json(R: FinCmMonoid) -> dict:
    return {"name": R.name, "elements": list(R.elements), "base": R.base,
            "unit": R.unit, "m": R.m,
            "mul": [list(row) for row in R.mul_table],
            "sigma": list(R.sigma_table)}


def monoid_from_json(obj: dict) -> FinCmMonoid:
    if not isinstance(obj, dict):
        raise SchemaError("monoids are {elements, unit, m, mul, sigma} objects")
    return FinCmMonoid(name=obj.get("name", "monoid"),
                       elements=tuple(_need(obj, "elements")),
                       base=obj.get("base", "*"), unit=_need(obj, "unit"),
                       m=_num(obj, "m", int),
                       mul_table=tuple(tuple(row) for row in _need(obj, "mul")),
                       sigma_table=tuple(_need(obj, "sigma")))


# -- operad elements --------------------------------------------------------

def _intervals_out(pairs) -> list[dict]:
    return [{"v": rat_str(v), "r": rat_str(r)} for v, r, *_ in pairs]


def _interval_in(obj: dict) -> tuple[Fraction, Fraction]:
    return _num(obj, "v"), _num(obj, "r")


# the operad element types with a JSON form, each with its serializer
_OPERAD_TO_JSON: dict[type, Callable[[Any], dict]] = {
    AssocElem: lambda x: {"instance": "assoc", "perm": perm_to_json(x.perm)},
    DiskTuple: lambda x: {"instance": "dR", "pairs": _intervals_out(x.pairs)},
    FramedTuple: lambda x: {"instance": f"framed-c{x.group.order}",
                            "pairs": [{**p, "h": _member_to_json(h)} for p, h
                                      in zip(_intervals_out(x.pairs), x.members)]},
    CompactElem: lambda x: {"instance": "dc", "pairs": _intervals_out(x.u_pairs),
                            "perm": perm_to_json(x.perm)},
}


def has_json_form(instance) -> bool:
    """Whether the elements of an operad instance have a JSON form."""
    return type(instance.unit()) in _OPERAD_TO_JSON


def operad_elem_to_json(x) -> dict:
    if type(x) not in _OPERAD_TO_JSON:
        raise SchemaError(f"unserializable operad element {type(x).__name__}")
    return _OPERAD_TO_JSON[type(x)](x)


def operad_elem_from_json(obj: dict, instance: str | None = None):
    """Parse an operad element; with `instance` given, an element of any
    other instance is rejected before it is built."""
    inst = str(_need(obj, "instance"))
    if instance is not None and inst != instance:
        raise SchemaError(f"element of instance {inst!r}, not {instance!r}")
    if inst == "assoc":
        return AssocElem(perm_from_json(_need(obj, "perm")))
    if inst == "dR":
        operad = LITTLE_DISKS
        x = DiskTuple.from_pairs(map(_interval_in, _need(obj, "pairs")))
    elif framed := re.fullmatch(r"framed-c([1-9][0-9]*)", inst):
        # the order is a canonical positive decimal, as the instance name prints it
        operad = FramedOperad(SignedGroup(int(framed[1])))
        x = FramedTuple.from_pairs([(*_interval_in(p), _member_from_json(_need(p, "h")))
                                    for p in _need(obj, "pairs")], operad.group)
    elif inst == "dc":
        operad = COMPACT
        x = CompactElem.from_pairs(map(_interval_in, _need(obj, "pairs")),
                                   perm_from_json(_need(obj, "perm")))
    else:
        raise SchemaError(f"unknown operad instance {inst!r}")
    operad.validate(x)
    return x


def interval_block_from_json(obj) -> tuple:
    """An inner block of `compose_uec`: a compactified-interval element."""
    block = tuple((parse_rat(v), parse_rat(s)) for v, s in obj)
    COMPACT.validate(CompactElem.from_pairs(block, Perm.identity(len(block))))
    return block


# -- round trip -------------------------------------------------------------

_KINDS = {
    "rat": lambda s: rat_str(parse_rat(s)),
    "turn": lambda o: turn_to_json(turn_from_json(o)),
    "perm": lambda o: perm_to_json(perm_from_json(o)),
    "wreath": lambda o: wreath_to_json(wreath_from_json(o)),
    "arc-system": lambda o: arc_system_to_json(arc_system_from_json(o)),
    "cyclic-point": lambda o: point_to_json(point_from_json(o)),
    "cyclic-word": lambda o: word_to_json(word_from_json(o)),
    "monoid": lambda o: monoid_to_json(monoid_from_json(o)),
    "operad": lambda o: operad_elem_to_json(operad_elem_from_json(o)),
}


def _infer_kind(obj: Any) -> str:
    if isinstance(obj, str):
        return "rat"
    if isinstance(obj, list):
        return "perm"
    if isinstance(obj, dict):
        if "variant" in obj:
            return "arc-system"
        if "members" in obj:
            return "wreath"
        if "rbar" in obj:
            return "cyclic-point"
        if "word" in obj:
            return "cyclic-word"
        if "mul" in obj:
            return "monoid"
        if "instance" in obj:
            return "operad"
        if "modulus" in obj:
            return "turn"
    raise SchemaError("cannot infer element kind")


def element_round_trip(obj: Any, kind: str | None = None) -> Any:
    """Parse, validate every invariant, and re-serialize canonically.

    Accepts either a bare element or a {"kind": ..., "value": ...} wrapper;
    rejects invalid elements with the violated invariant named.
    """
    wrapped = isinstance(obj, dict) and set(obj) == {"kind", "value"}
    if wrapped:
        kind, value = obj["kind"], obj["value"]
    else:
        value = obj
        kind = kind or _infer_kind(obj)
    if kind not in _KINDS:
        raise SchemaError(f"unknown element kind {kind!r}")
    out = parse_input(_KINDS[kind], value, kind)
    return {"kind": kind, "value": out} if wrapped else out
