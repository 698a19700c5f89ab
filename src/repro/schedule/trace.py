"""Replayable schedule traces.

A :class:`Trace` records every primitive applied to a schedule together
with the random decisions taken at sampling instructions.  A trace
replays onto a fresh schedule of the same workload by calling, for each
instruction, the :class:`~repro.schedule.Schedule` method it names, so
a replayed program is built by the same code as the recorded one;
tirlint lints ``TRACE_<func>`` traces that way
(:func:`~repro.diagnostics.lint_trace`).

A trace is neither the search's mutation mechanism nor a stored
program.  The evolutionary search mutates by re-applying a sketch with
a forced decision prefix, and a database record or flight-recorder row
keeps a sketch token and its decisions, which
:func:`~repro.meta.sketch.replay_sketch` rebuilds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .sref import ScheduleError

__all__ = ["Instruction", "Trace"]

#: every instruction ``Schedule`` records — the names a trace replays.
INSTRUCTIONS = frozenset({
    "split", "fuse", "reorder", "parallel", "vectorize", "unroll", "bind",
    "annotate", "compute_at", "reverse_compute_at", "compute_inline",
    "reverse_compute_inline", "cache_read", "cache_write",
    "decompose_reduction", "merge_reduction", "blockize", "tensorize",
    "reindex", "fuse_buffer_dims", "fuse_block_iters", "pad_einsum",
    "set_scope", "sample_perfect_tile", "sample_categorical",
})


class Instruction:
    """One recorded primitive application."""

    __slots__ = ("name", "inputs", "attrs", "outputs", "decision")

    def __init__(
        self,
        name: str,
        inputs: Sequence[object],
        attrs: Optional[Dict[str, object]] = None,
        outputs: Sequence[object] = (),
        decision: Optional[object] = None,
    ):
        self.name = name
        self.inputs = list(inputs)
        self.attrs = dict(attrs or {})
        self.outputs = list(outputs)
        self.decision = decision

    @property
    def is_sampling(self) -> bool:
        return self.name.startswith("sample_")

    def __repr__(self) -> str:  # pragma: no cover
        parts = [repr(i) for i in self.inputs]
        parts += [f"{k}={v!r}" for k, v in self.attrs.items()]
        text = f"{self.name}({', '.join(parts)})"
        if self.decision is not None:
            text += f"  # decision: {self.decision!r}"
        return text


class Trace:
    """An ordered list of instructions with their sampling decisions."""

    def __init__(self, instructions: Optional[Sequence[Instruction]] = None):
        self.instructions: List[Instruction] = list(instructions or [])

    def append(self, inst: Instruction) -> None:
        self.instructions.append(inst)

    def copy(self) -> "Trace":
        return Trace(
            Instruction(i.name, i.inputs, i.attrs, i.outputs, i.decision)
            for i in self.instructions
        )

    def apply_to(self, sch) -> None:
        """Replay this trace onto ``sch`` (a fresh Schedule of the same
        workload).  Each instruction calls the ``Schedule`` method it
        names: the recorded inputs are its positional arguments, the
        recorded attrs its keywords, and a sampling instruction also
        passes its recorded ``decision=``.  Output naming is
        deterministic, so the recorded RV names resolve identically.
        The replayed calls record themselves, so when a step raises,
        ``sch.trace`` holds exactly the steps applied before it."""
        for inst in self.instructions:
            if inst.name not in INSTRUCTIONS:
                raise ScheduleError(f"cannot replay instruction {inst.name!r}")
            kwargs = dict(inst.attrs)
            if inst.is_sampling:
                kwargs["decision"] = inst.decision
            getattr(sch, inst.name)(*inst.inputs, **kwargs)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover
        return "\n".join(repr(i) for i in self.instructions)
