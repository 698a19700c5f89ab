"""Quasi-affine iterator map detection.

This module implements the pattern matcher the paper relies on for loop
nest validation (§3.3):

    "We build pattern-matchers to find a quasi-affine mapping from the
    loop iterators to the block iterator variables and use the pattern to
    validate the independence and domain of the bindings."

Model (following the classical split/fuse algebra):

* An :class:`IterMark` is a virtual iterator of known constant extent.
  Its source is either an input variable or a *fused* sum of splits.
* An :class:`IterSplitExpr` selects a contiguous digit of a mark:
  ``value = ((mark // lower_factor) % extent) * scale``.
* An :class:`IterSumExpr` is ``sum(splits) + base``.

``detect_iter_map`` parses binding expressions into this algebra and
checks that, together, the bindings form a **bijective** mapping from the
input iteration space — i.e. every mark is fully and disjointly covered
and every binding is a proper fusion of digits.  Bindings such as
``v1 = i, v2 = i * 2`` are rejected (dependent), while
``v1 = i // 4, v2 = i % 4`` are accepted, exactly as in the paper's
example.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..tir.expr import (
    Add,
    FloorDiv,
    FloorMod,
    IntImm,
    Mul,
    PrimExpr,
    Range,
    Sub,
    Var,
    const_int_value,
)
from .analyzer import Analyzer

__all__ = [
    "IterMark",
    "IterSplitExpr",
    "IterSumExpr",
    "detect_iter_map",
    "IterMapError",
]


class IterMapError(Exception):
    """The expression is not a recognized quasi-affine iterator pattern."""


class IterMark:
    """A virtual iterator with constant extent.

    ``source`` is an input :class:`Var`, or a :class:`IterSumExpr` for a
    fused iterator.  Identity is by structural key of the source, so the
    same fused pattern maps to the same mark.
    """

    __slots__ = ("source", "extent", "key")

    def __init__(self, source, extent: int, key):
        self.source = source
        self.extent = extent
        self.key = key

    def __repr__(self) -> str:  # pragma: no cover
        name = self.source.name if isinstance(self.source, Var) else "fused"
        return f"IterMark({name}, extent={self.extent})"


class IterSplitExpr:
    """``((mark // lower_factor) % extent) * scale``."""

    __slots__ = ("mark", "lower_factor", "extent", "scale")

    def __init__(self, mark: IterMark, lower_factor: int, extent: int, scale: int):
        self.mark = mark
        self.lower_factor = lower_factor
        self.extent = extent
        self.scale = scale

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"split({self.mark!r} //{self.lower_factor} %{self.extent} *{self.scale})"
        )


class IterSumExpr:
    """``sum(args) + base``."""

    __slots__ = ("args", "base")

    def __init__(self, args: Sequence[IterSplitExpr], base: int):
        self.args: List[IterSplitExpr] = list(args)
        self.base = base

    @property
    def is_constant(self) -> bool:
        return not self.args

    def __repr__(self) -> str:  # pragma: no cover
        return f"IterSumExpr({self.args!r} + {self.base})"


def _gcd_list(values: Sequence[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, abs(v))
    return g


class _Parser:
    def __init__(self, input_iters: Mapping[Var, int], analyzer: Analyzer):
        self.analyzer = analyzer
        self.marks: Dict[object, IterMark] = {}
        self.input_iters = dict(input_iters)
        for var, extent in self.input_iters.items():
            key = ("var", id(var))
            self.marks[key] = IterMark(var, extent, key)

    def parse(self, expr: PrimExpr) -> IterSumExpr:
        expr = self.analyzer.simplify(expr)
        return self._to_sum(self._parse(expr))

    # -- recursive descent --------------------------------------------
    def _parse(self, expr: PrimExpr) -> Union[IterSumExpr, IterSplitExpr, int]:
        c = const_int_value(expr)
        if c is not None:
            return c
        if isinstance(expr, Var):
            if expr not in self.input_iters:
                raise IterMapError(f"free variable {expr.name} in binding")
            extent = self.input_iters[expr]
            if extent == 1:
                return 0
            mark = self.marks[("var", id(expr))]
            return IterSplitExpr(mark, 1, extent, 1)
        if isinstance(expr, Add):
            return self._add(self._parse(expr.a), self._parse(expr.b), 1)
        if isinstance(expr, Sub):
            return self._add(self._parse(expr.a), self._parse(expr.b), -1)
        if isinstance(expr, Mul):
            ca, cb = const_int_value(expr.a), const_int_value(expr.b)
            if cb is not None:
                return self._scale(self._parse(expr.a), cb)
            if ca is not None:
                return self._scale(self._parse(expr.b), ca)
            raise IterMapError("product of two iterators is not affine")
        if isinstance(expr, FloorDiv):
            c = const_int_value(expr.b)
            if c is None or c <= 0:
                raise IterMapError("division by a non-constant")
            return self._divmod(self._parse(expr.a), c, is_div=True)
        if isinstance(expr, FloorMod):
            c = const_int_value(expr.b)
            if c is None or c <= 0:
                raise IterMapError("modulo by a non-constant")
            return self._divmod(self._parse(expr.a), c, is_div=False)
        raise IterMapError(f"unsupported node in binding: {type(expr).__name__}")

    def _to_sum(self, value) -> IterSumExpr:
        if isinstance(value, int):
            return IterSumExpr([], value)
        if isinstance(value, IterSplitExpr):
            return IterSumExpr([value], 0)
        return value

    def _add(self, a, b, sign: int) -> IterSumExpr:
        sa, sb = self._to_sum(a), self._to_sum(b)
        args = list(sa.args)
        for s in sb.args:
            args.append(IterSplitExpr(s.mark, s.lower_factor, s.extent, s.scale * sign))
        merged: Dict[tuple, IterSplitExpr] = {}
        for s in args:
            key = (s.mark.key, s.lower_factor, s.extent)
            if key in merged:
                scale = merged[key].scale + s.scale
                if scale == 0:
                    del merged[key]
                else:
                    merged[key] = IterSplitExpr(s.mark, s.lower_factor, s.extent, scale)
            else:
                merged[key] = s
        return IterSumExpr(list(merged.values()), sa.base + sign * sb.base)

    def _scale(self, value, factor: int) -> Union[IterSumExpr, int]:
        if factor == 0:
            return 0
        s = self._to_sum(value)
        return IterSumExpr(
            [
                IterSplitExpr(a.mark, a.lower_factor, a.extent, a.scale * factor)
                for a in s.args
            ],
            s.base * factor,
        )

    def _divmod(self, value, c: int, is_div: bool) -> Union[IterSumExpr, IterSplitExpr, int]:
        s = self._to_sum(value)
        if s.is_constant:
            return s.base // c if is_div else s.base % c
        if s.base % c != 0:
            raise IterMapError("non-divisible base under div/mod")
        base = s.base
        split = self._as_single_split(s.args)
        # (split * scale + base) with base % c == 0
        if split.scale != 1:
            if split.scale % c == 0 and not is_div:
                return base % c  # the term vanishes mod c
            if split.scale % c == 0 and is_div:
                out = IterSplitExpr(split.mark, split.lower_factor, split.extent, split.scale // c)
                return self._add(out, base // c, 1)
            if c % split.scale == 0:
                inner = self._divmod(
                    IterSumExpr([IterSplitExpr(split.mark, split.lower_factor, split.extent, 1)], 0),
                    c // split.scale,
                    is_div,
                )
                if is_div:
                    return self._add(inner, base // c, 1)
                return self._add(self._scale(inner, split.scale), base % c, 1)
            raise IterMapError("scale incompatible with div/mod constant")
        # scale == 1: operate on the digit structure.
        if is_div:
            if c >= split.extent:
                return base // c
            if split.extent % c != 0:
                raise IterMapError(
                    f"extent {split.extent} not divisible by {c} under floordiv"
                )
            out = IterSplitExpr(split.mark, split.lower_factor * c, split.extent // c, 1)
            return self._add(out, base // c, 1)
        if c >= split.extent:
            return self._add(split, base % c, 1)
        if split.extent % c != 0:
            raise IterMapError(f"extent {split.extent} not divisible by {c} under floormod")
        out = IterSplitExpr(split.mark, split.lower_factor, c, 1)
        return self._add(out, base % c, 1)

    def _as_single_split(self, args: Sequence[IterSplitExpr]) -> IterSplitExpr:
        """Collapse ``args`` into one split, fusing a digit-aligned sum."""
        if len(args) == 1:
            return args[0]
        fused = _try_fuse_args(args)
        if fused is None or len(fused) != 1:
            raise IterMapError("cannot fuse multi-iterator sum under div/mod")
        split = fused[0]
        key = ("fused",) + tuple(
            sorted((a.mark.key, a.lower_factor, a.extent, a.scale) for a in args)
        )
        if key not in self.marks:
            self.marks[key] = IterMark(IterSumExpr(list(args), 0), split.extent, key)
        mark = self.marks[key]
        return IterSplitExpr(mark, 1, split.extent, split.scale)


def _try_fuse_args(args: Sequence[IterSplitExpr]) -> Optional[List[IterSplitExpr]]:
    """Check digit alignment of a sum of splits.

    Returns a one-element list ``[IterSplitExpr(None-mark placeholder)]``
    describing the fused extent/scale, or ``[]`` for an empty sum, or
    ``None`` when the digits do not align (the sum is not injective).
    The returned split's ``mark`` is taken from the highest digit and is
    only meaningful for extent/scale interrogation.
    """
    if not args:
        return []
    g = _gcd_list([a.scale for a in args])
    if g == 0:
        return None
    ordered = sorted(args, key=lambda a: -abs(a.scale))
    if any(a.scale < 0 for a in ordered):
        return None
    expected = g
    for split in reversed(ordered):
        if split.scale != expected:
            return None
        expected = split.scale * split.extent
    total_extent = expected // g
    top = ordered[0]
    return [IterSplitExpr(top.mark, 1, total_extent, g)]


def detect_iter_map(
    bindings: Sequence[PrimExpr],
    input_iters: Mapping[Var, Union[int, Range]],
    analyzer: Optional[Analyzer] = None,
    require_bijective: bool = True,
) -> Optional[List[IterSumExpr]]:
    """Detect a quasi-affine mapping from ``input_iters`` to ``bindings``.

    ``input_iters`` maps each loop variable to its constant extent (ranges
    must start at 0).  Returns the parsed :class:`IterSumExpr` per binding
    on success, or ``None`` when the bindings are not a valid independent
    quasi-affine mapping.

    When ``require_bijective`` is set, every input iterator's digits must
    be fully and disjointly covered by the bindings (no dropped or
    duplicated digits).  Otherwise only injectivity (disjointness) is
    required.
    """
    extents: Dict[Var, int] = {}
    for var, dom in input_iters.items():
        if isinstance(dom, Range):
            lo = const_int_value(dom.min)
            ext = const_int_value(dom.extent)
            if lo != 0 or ext is None:
                return None
            extents[var] = ext
        else:
            extents[var] = int(dom)
    if analyzer is None:
        analyzer = Analyzer()
        for var, ext in extents.items():
            analyzer.bind(var, Range(0, ext))

    parser = _Parser(extents, analyzer)
    results: List[IterSumExpr] = []
    try:
        for binding in bindings:
            s = parser.parse(binding)
            if s.args and _try_fuse_args(s.args) is None:
                return None  # binding itself is not an injective fusion
            results.append(s)
    except IterMapError:
        return None

    if not _check_disjoint_cover(results, parser, require_bijective, extents):
        return None
    return results


def _check_disjoint_cover(
    results: Sequence[IterSumExpr],
    parser: _Parser,
    require_bijective: bool,
    extents: Mapping[Var, int],
) -> bool:
    used: Dict[object, List[IterSplitExpr]] = {}

    def record(split: IterSplitExpr) -> bool:
        bucket = used.setdefault(split.mark.key, [])
        for existing in bucket:
            lo1 = split.lower_factor
            hi1 = split.lower_factor * split.extent
            lo2 = existing.lower_factor
            hi2 = existing.lower_factor * existing.extent
            if lo1 < hi2 and lo2 < hi1:
                return False  # overlapping digit ranges → dependent bindings
        bucket.append(split)
        return True

    for s in results:
        for split in s.args:
            if not record(split):
                return False

    # A fused mark consumes its constituent splits entirely; expand
    # (worklist: fused marks may be built out of other fused marks).
    expanded = set()
    changed = True
    while changed:
        changed = False
        for key, mark in parser.marks.items():
            if key[0] == "fused" and key in used and key not in expanded:
                expanded.add(key)
                changed = True
                for split in mark.source.args:
                    if not record(split):
                        return False

    if require_bijective:
        # Every mark that is touched must be fully and contiguously
        # covered — including fused marks: using only some digits of a
        # fusion drops information and breaks bijectivity.
        mark_extent: Dict[object, int] = {
            key: mark.extent for key, mark in parser.marks.items()
        }
        for key, splits in used.items():
            splits = sorted(splits, key=lambda s: s.lower_factor)
            expected = 1
            for split in splits:
                if split.lower_factor != expected:
                    return False
                expected = split.lower_factor * split.extent
            if expected != mark_extent.get(key):
                return False
        # ... and every non-trivial input iterator must be used at all.
        for var, extent in extents.items():
            if extent > 1 and ("var", id(var)) not in used:
                return False
    return True
