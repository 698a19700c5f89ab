"""Shape bucketing: tune once per shape *bucket*, serve any shape in it.

Dynamic-shape traffic (a new batch size, a new sequence length) would
naively pay a full tuning run per concrete shape.  This module collapses
an input-shape *family* onto one representative workload:

* :class:`ShapeBucket` — the bucketing policy for one dynamic dimension,
  either power-of-two ranges (``(4, 8]`` maps to 8) or user-declared
  boundaries (``boundaries=(8, 64, 512)``).
* :class:`BucketSpec` — a set of buckets keyed by dimension name
  (``BucketSpec.pow2("n", "batch")``).
* :func:`canonicalize` — maps a concrete :class:`~repro.tir.PrimFunc`
  built by a :func:`shape_parametric` operator builder to its *bucket
  representative*: the same builder re-invoked with every bucketed
  dimension rounded up to its bucket's upper bound.  All shapes in a
  bucket therefore share one ``workload_key`` task; derived extents
  (a conv's output height, padded widths) are recomputed by the
  builder, never patched in the IR.

Replay across shapes is the §5.2 forced-decision mechanism: a database
hit on the representative re-applies the stored decision vector to the
concrete shape.  :meth:`~repro.meta.database.Database.replay_entry`
replays a record adaptively whenever the function's key is not the
record's (``Schedule.decision_mode == "adapt"``), coercing each stored
decision to the nearest feasible choice at the new extents; the caller
falls back to a fresh tune only when a sketch constraint makes the
decisions infeasible (diagnostic ``TIR701``/``TIR702``).

The registry deliberately sits *below* :mod:`repro.frontend.ops` in the
import graph: builders register themselves via the decorator, and the
canonicalizer only ever calls back through that registry.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from .. import cache as _cache
from ..diagnostics import DiagnosticContext
from ..tir import PrimFunc

__all__ = [
    "ShapeBucket",
    "BucketSpec",
    "BucketedWorkload",
    "shape_parametric",
    "shape_args_of",
    "canonicalize",
    "rebuild",
    "next_pow2",
]


def next_pow2(n: int) -> int:
    """The smallest power of two >= ``n`` (1 for n <= 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class ShapeBucket:
    """The bucketing policy for one dynamic dimension.

    With ``boundaries`` the buckets are ``(0, b0], (b0, b1], ...`` and a
    size maps to the smallest boundary that holds it.  Without
    boundaries the policy is power-of-two: size 33 maps to 64.
    ``max_size`` (pow2 mode) caps the declared range.  A size outside
    every declared bucket is its own degenerate bucket — it maps to
    itself, so it still tunes and serves, just without sharing.
    """

    dim: str
    boundaries: Optional[Tuple[int, ...]] = None
    max_size: Optional[int] = None

    def __post_init__(self):
        if self.boundaries is not None:
            bounds = tuple(int(b) for b in self.boundaries)
            if not bounds or any(b <= 0 for b in bounds) or list(bounds) != sorted(set(bounds)):
                raise ValueError(
                    f"bucket boundaries for {self.dim!r} must be positive, "
                    f"strictly ascending and non-empty: {self.boundaries!r}"
                )
            object.__setattr__(self, "boundaries", bounds)

    def covers(self, size: int) -> bool:
        """Whether ``size`` falls inside a declared bucket."""
        if size <= 0:
            return False
        if self.boundaries is not None:
            return size <= self.boundaries[-1]
        return self.max_size is None or next_pow2(size) <= self.max_size

    def representative(self, size: int) -> int:
        """The bucket's upper bound for ``size`` (``size`` itself when
        outside every declared bucket)."""
        if not self.covers(size):
            return size
        if self.boundaries is not None:
            for bound in self.boundaries:
                if size <= bound:
                    return bound
            return size  # pragma: no cover — covers() guards this
        return next_pow2(size)

    def token(self) -> str:
        """A stable text form (memo keys, reports)."""
        if self.boundaries is not None:
            return f"{self.dim}:{','.join(map(str, self.boundaries))}"
        cap = f"<={self.max_size}" if self.max_size is not None else ""
        return f"{self.dim}:pow2{cap}"


@dataclass(frozen=True)
class BucketSpec:
    """A set of :class:`ShapeBucket` policies, one per dynamic dim."""

    buckets: Tuple[ShapeBucket, ...] = ()

    @classmethod
    def pow2(cls, *dims: str, max_size: Optional[int] = None) -> "BucketSpec":
        """Power-of-two buckets for each named dimension."""
        return cls(tuple(ShapeBucket(d, max_size=max_size) for d in dims))

    @classmethod
    def of(cls, **boundaries: Sequence[int]) -> "BucketSpec":
        """User-declared boundaries per dimension:
        ``BucketSpec.of(n=(8, 64, 512))``."""
        return cls(
            tuple(ShapeBucket(d, boundaries=tuple(b)) for d, b in boundaries.items())
        )

    def bucket_for(self, dim: str) -> Optional[ShapeBucket]:
        for bucket in self.buckets:
            if bucket.dim == dim:
                return bucket
        return None

    def token(self) -> str:
        return ";".join(b.token() for b in self.buckets)


@dataclass(frozen=True)
class BucketedWorkload:
    """A concrete workload paired with its bucket representative.

    ``dims`` maps each bucketed dimension name to ``(size,
    representative_size)``.  When no dimension moved, ``representative``
    *is* ``concrete`` (same object) and replay stays strict.
    """

    concrete: PrimFunc
    representative: PrimFunc
    dims: Mapping[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def bucketed(self) -> bool:
        """Whether the representative differs from the concrete shape."""
        return any(size != rep for size, rep in self.dims.values())


# ---------------------------------------------------------------------------
# the shape-parametric builder registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BuilderInfo:
    fn: Callable[..., PrimFunc]
    dims: Tuple[str, ...]


_BUILDERS: Dict[str, _BuilderInfo] = {}


def shape_parametric(*, dims: Sequence[str]):
    """Mark an operator builder's dynamic dimensions.

    The decorated builder records its bound arguments on the returned
    function (``attrs["builder"]`` / ``attrs["shape_args"]``) and
    registers itself so :func:`canonicalize` can re-invoke it with a
    bucketed size for any argument named in ``dims``.  Attrs are
    excluded from ``script``/``structural_hash``, so recording them
    never perturbs workload keys.
    """

    def decorate(fn: Callable[..., PrimFunc]) -> Callable[..., PrimFunc]:
        signature = inspect.signature(fn)

        @wraps(fn)
        def wrapper(*args, **kwargs) -> PrimFunc:
            func = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return func.with_attrs(
                builder=fn.__name__, shape_args=dict(bound.arguments)
            )

        _BUILDERS[fn.__name__] = _BuilderInfo(wrapper, tuple(dims))
        return wrapper

    return decorate


def shape_args_of(func: PrimFunc) -> Optional[Dict[str, object]]:
    """The recorded builder arguments of a shape-parametric function,
    or ``None`` for hand-built / non-parametric functions."""
    name = func.attrs.get("builder")
    args = func.attrs.get("shape_args")
    if isinstance(name, str) and name in _BUILDERS and isinstance(args, dict):
        return dict(args)
    return None


def rebuild(func: PrimFunc, **overrides) -> PrimFunc:
    """Re-invoke ``func``'s builder with some arguments overridden."""
    name = func.attrs.get("builder")
    info = _BUILDERS.get(name) if isinstance(name, str) else None
    args = shape_args_of(func)
    if info is None or args is None:
        raise ValueError(f"{func.name!r} was not built by a shape-parametric builder")
    args.update(overrides)
    return info.fn(**args)


#: memoized representative rebuilds — the serve path canonicalizes every
#: request, and rebuilding an operator is a full IR construction.
_CANON_CACHE = _cache.MemoCache("frontend.buckets", maxsize=2048)


def canonicalize(
    func: PrimFunc,
    spec: Optional[BucketSpec],
    *,
    ctx: Optional[DiagnosticContext] = None,
) -> BucketedWorkload:
    """Map a concrete function to its bucket representative under ``spec``.

    Non-parametric functions, empty specs and dimensions outside every
    declared bucket (diagnostic ``TIR703``) all degrade to the identity
    mapping — the concrete shape is its own bucket.
    """
    if spec is None or not spec.buckets:
        return BucketedWorkload(func, func)
    name = func.attrs.get("builder")
    info = _BUILDERS.get(name) if isinstance(name, str) else None
    raw = func.attrs.get("shape_args")
    if info is None or not isinstance(raw, dict):
        return BucketedWorkload(func, func)
    dims: Dict[str, Tuple[int, int]] = {}
    overrides: Dict[str, int] = {}
    for dim in info.dims:
        size = raw.get(dim)
        if not isinstance(size, int) or isinstance(size, bool):
            continue
        bucket = spec.bucket_for(dim)
        if bucket is None:
            continue
        if not bucket.covers(size):
            if ctx is not None:
                ctx.emit(
                    "TIR703",
                    f"{func.name}: dimension {dim}={size} is outside every "
                    f"declared bucket ({bucket.token()}); the shape is its "
                    "own bucket",
                    func=func,
                )
            dims[dim] = (size, size)
            continue
        rep = bucket.representative(size)
        dims[dim] = (size, rep)
        if rep != size:
            overrides[dim] = rep
    if not overrides:
        return BucketedWorkload(func, func, dims)
    from ..tir import structural_hash

    key = (structural_hash(func), func.name, name, spec.token())
    representative = _CANON_CACHE.lookup(key)
    if representative is _cache.MISS:
        representative = info.fn(**{**raw, **overrides})
        _CANON_CACHE.put(key, representative)
    return BucketedWorkload(func, representative, dims)
