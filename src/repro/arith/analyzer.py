"""The arithmetic analyzer: one façade over bounds, simplification and
interval evaluation.

An :class:`Analyzer` owns a variable→domain map (populated from loop and
block-iterator domains) and exposes:

* ``simplify(expr)`` — bounds-aware canonical simplification;
* ``can_prove(cond)`` — conservative proof of a boolean expression;
* ``int_set(expr)`` — conservative interval of an integer expression;
* ``const_int(expr)`` — the constant value, if provable.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

from ..tir.expr import IntImm, PrimExpr, Range, Var, const_int_value
from .int_set import IntSet, eval_int_set, range_to_set
from .simplify import Simplifier

__all__ = ["Analyzer"]


class Analyzer:
    def __init__(self, dom_map: Optional[Mapping[Var, IntSet]] = None):
        self._dom: Dict[Var, IntSet] = dict(dom_map or {})
        self._simplifier = Simplifier(bound_of=self.int_set)

    # -- domain management ------------------------------------------------
    def bind(self, var: Var, dom: Union[IntSet, Range, int]) -> None:
        """Register the domain of ``var``.

        Accepts an :class:`IntSet`, a constant :class:`Range`, or a plain
        int (binding the variable to a point).
        """
        if isinstance(dom, int):
            dom = IntSet.point(dom)
        elif isinstance(dom, Range):
            lo = const_int_value(dom.min)
            ext = const_int_value(dom.extent)
            if lo is None or ext is None:
                # Symbolic range: try interval-evaluating the endpoints.
                lo_set = self.int_set(dom.min)
                hi_set = self.int_set(dom.min + dom.extent - 1)
                dom = IntSet(lo_set.min_value, hi_set.max_value)
            else:
                dom = IntSet.from_range(lo, ext)
        self._dom[var] = dom

    def copy(self) -> "Analyzer":
        return Analyzer(self._dom)

    def domains(self) -> Dict[Var, IntSet]:
        return dict(self._dom)

    # -- queries -------------------------------------------------------
    def int_set(self, expr: PrimExpr, extra_dom: Optional[Mapping[Var, IntSet]] = None) -> IntSet:
        if extra_dom:
            merged = dict(self._dom)
            merged.update(extra_dom)
            return eval_int_set(expr, merged)
        return eval_int_set(expr, self._dom)

    def simplify(self, expr: PrimExpr) -> PrimExpr:
        """Bounds-aware simplification."""
        return self._simplifier.simplify(expr)

    def can_prove(self, cond: PrimExpr) -> bool:
        return self._simplifier.can_prove(cond)

    def prove_equal(self, a: PrimExpr, b: PrimExpr) -> bool:
        return self._simplifier.prove_equal(a, b)

    def const_int(self, expr: PrimExpr) -> Optional[int]:
        """The provably-constant integer value of ``expr``, or None."""
        v = const_int_value(expr)
        if v is not None:
            return v
        simplified = self.simplify(expr)
        return const_int_value(simplified)
