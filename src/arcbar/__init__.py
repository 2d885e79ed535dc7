"""Exact-rational workbench for circle operads, arc configuration algebra,
the m-cyclic category, and cyclic bar constructions."""

from .rational import InvariantViolation, MismatchError, Rat, Turn
from .groups import (CyclicElem, Perm, WreathElem, block_cycle_perm, upsilon,
                     znwrcm_elements)
from .operads import (ASSOC, COMPACT, FRAMED_C2, LITTLE_DISKS, SEMIDIRECT_C2,
                      AssocElem, CompactElem, DiskTuple, FramedTuple,
                      SemidirectElem, assoc_to_compact, check_operad_laws,
                      little_to_compact, semidirect_iso)
from .circle import (ArcSystem, circle_act, compose_uec, retract_step,
                     wreath_act)
from .cyclic import (CyclicPoint, CyclicWord, act_on_point, circle_act_point,
                     lambda_to_ucc, normalize_word, parse_word, ucc_to_lambda)
from .barcalc import (BarComplex, FinCmMonoid, FreeMonoid, LabeledOrbit,
                      PointedCmSet, check_thm_cycbar_free, cyclic_face,
                      labeled_orbit, map_c_to_l, verify_cyclic_object)
from .report import Report
from .suites import RunConfig, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
