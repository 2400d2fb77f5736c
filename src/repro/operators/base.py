"""Operator base classes.

Operators are the nodes of a query plan.  Each operator consumes stream
elements (records and punctuations) on one or more input ports and emits
elements on a single output.  Operators are *push-based*: the engine (or
an upstream operator in a fused chain) calls :meth:`Operator.process` for
every arriving element and :meth:`Operator.flush` at end of stream.

Operators also expose the metadata the optimization and scheduling layers
need (slides 39-43):

* ``cost_per_tuple`` — virtual service time per input tuple,
* ``selectivity`` — expected output tuples per input tuple (also used as
  the *size* reduction factor in the Chain memory model of slide 43),
* ``memory()`` — current operator state footprint.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.tuples import FeedbackPunctuation, Punctuation, Record
from repro.errors import PlanError

__all__ = ["Operator", "UnaryOperator", "BinaryOperator", "CompiledChain"]

Element = Record | Punctuation


class Operator:
    """Base class for all stream operators."""

    #: Number of input ports the operator expects.
    arity: int = 1

    def __init__(
        self,
        name: str = "",
        cost_per_tuple: float = 1.0,
        selectivity: float = 1.0,
    ) -> None:
        self.name = name or type(self).__name__.lower()
        self.cost_per_tuple = cost_per_tuple
        self.selectivity = selectivity

    @property
    def kind(self) -> str:
        """Operator kind label for metric exporters (lowercase class
        name; e.g. Prometheus ``kind="select"``)."""
        return type(self).__name__.lower()

    # -- data path -------------------------------------------------------

    def _validate_port(self, port: int) -> None:
        if port < 0 or port >= self.arity:
            raise PlanError(
                f"operator {self.name!r} has arity {self.arity}; got port {port}"
            )

    def process(self, element: Element, port: int = 0) -> list[Element]:
        """Consume one element on ``port``; return emitted elements."""
        self._validate_port(port)
        if isinstance(element, Punctuation):
            return self.on_punctuation(element, port)
        return self.on_record(element, port)

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        """Consume a micro-batch of elements on ``port``, in order.

        The contract is strict equivalence: ``process_batch(batch)`` must
        emit exactly the concatenation of ``process(el)`` over the batch.
        The default implementation does literally that, so every operator
        supports batching; hot operators override it with amortized loops
        that skip the per-element dispatch machinery.
        """
        self._validate_port(port)
        out: list[Element] = []
        extend = out.extend
        on_record = self.on_record
        on_punctuation = self.on_punctuation
        for el in elements:
            if isinstance(el, Punctuation):
                extend(on_punctuation(el, port))
            else:
                extend(on_record(el, port))
        return out

    def on_record(self, record: Record, port: int) -> list[Element]:
        """Handle one data tuple.  Subclasses override."""
        raise NotImplementedError

    # -- columnar path -----------------------------------------------------

    def supports_columns(self) -> bool:
        """Whether :meth:`process_columns` may be used on this instance.

        The engine's columnar tier calls this per operator to decide
        between handing it a :class:`~repro.columnar.batch.ColumnBatch`
        or converting back to records.  The answer may depend on the
        *configuration* (e.g. a ``Select`` is columnar-capable only when
        its predicate is a vectorizable expression), so this is a method
        on the instance, not a class flag.  Base default: ``False``.
        """
        return False

    def process_columns(self, batch, port: int = 0):
        """Consume a columnar micro-batch (records only, no punctuation).

        Only called when :meth:`supports_columns` is true.  Returns
        either a :class:`~repro.columnar.batch.ColumnBatch` (stateless
        transforms) or a list of elements (aggregations that emit on
        punctuation return ``[]`` here and keep emitting through
        :meth:`on_punctuation`/:meth:`flush`).  The contract is strict
        equivalence with ``process_batch(batch.to_rows(), port)``; the
        standard escape hatch for unvectorizable batches (null masks,
        odd types) is to catch
        :class:`~repro.errors.ColumnUnavailable` and call exactly that.
        """
        raise NotImplementedError(
            f"operator {self.name!r} does not support columnar execution"
        )

    def on_punctuation(self, punct: Punctuation, port: int) -> list[Element]:
        """Handle a punctuation.

        The default for stateless operators is to propagate it unchanged
        (the punctuation still describes the output stream).  Stateful
        operators override this to purge state and/or unblock results
        (TMSF03, slide 28).
        """
        return [punct]

    def flush(self) -> list[Element]:
        """Emit anything still buffered at end of stream."""
        return []

    def reset(self) -> None:
        """Discard all operator state, making the instance reusable."""

    # -- state snapshots ---------------------------------------------------

    def snapshot(self) -> object:
        """Capture the operator's mutable state for checkpointing.

        Returns a picklable value that, passed to :meth:`restore` on an
        operator configured identically (same constructor arguments),
        reproduces this operator's state exactly.  The returned value
        must be *detached*: later processing on this operator must not
        mutate an already-taken snapshot, and one snapshot must survive
        being restored multiple times.  Stateless operators return
        ``None`` (the base default); stateful operators override both
        methods.  Epoch-aligned fault tolerance
        (:mod:`repro.resilience`) is built on this protocol.

        Checkpoints take a snapshot of every operator each epoch, so
        snapshots copy state explicitly instead of calling
        ``copy.deepcopy`` on it: the aggregate family copies each
        group's states with
        :meth:`~repro.aggregates.AggregateFunction.copy`, and its
        ``restore`` copies again so the snapshot stays detached.  Only
        state made of buffered Records (window buffers and window-join
        sides) is still deep-copied.
        """
        return None

    def restore(self, state: object) -> None:
        """Restore state captured by :meth:`snapshot`.

        The base implementation accepts only ``None`` (the stateless
        snapshot); a non-``None`` state on an operator that never
        overrode :meth:`snapshot` indicates a checkpoint/operator
        mismatch and raises.
        """
        if state is not None:
            raise PlanError(
                f"operator {self.name!r} ({type(self).__name__}) is "
                f"stateless but was handed a non-empty snapshot"
            )

    # -- backward control channel ------------------------------------------

    def bind_feedback(self, channel) -> None:
        """Attach the engine's :class:`~repro.feedback.channel.FeedbackChannel`.

        Called by the engine at start; until then :meth:`emit_feedback`
        is a no-op, so operators run unchanged outside an engine.
        """
        self._feedback_channel = channel

    def emit_feedback(self, fb: FeedbackPunctuation) -> None:
        """Send ``fb`` upstream through the bound channel (if any)."""
        channel = getattr(self, "_feedback_channel", None)
        if channel is not None:
            if not fb.origin:
                fb = FeedbackPunctuation(
                    fb.pattern, fb.advice, origin=self.name, seq=fb.seq
                )
            channel.emit(fb)

    def on_feedback(
        self, fb: FeedbackPunctuation
    ) -> list[FeedbackPunctuation]:
        """Handle feedback flowing upstream *through* this operator.

        Returns the feedback to keep propagating to this operator's
        producers.  The base default *forwards* unchanged — correct for
        any operator that neither consumes the advice nor renames
        attributes.  Acting operators return ``[]`` (or a residual) after
        installing the advice; schema-mapping operators translate the
        pattern, forwarding the original when untranslatable (never
        silently dropping it).
        """
        return [fb]

    # -- resource model ----------------------------------------------------

    def memory(self) -> float:
        """Current state footprint in abstract size units."""
        return 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class UnaryOperator(Operator):
    """Convenience base for single-input operators."""

    arity = 1


class BinaryOperator(Operator):
    """Convenience base for two-input operators (joins, unions)."""

    arity = 2


class CompiledChain(UnaryOperator):
    """A fused linear pipeline of unary operators.

    Useful both as an execution convenience and as the unit the Chain
    scheduler reasons about.  Selectivity and cost compose multiplicatively
    and additively respectively.
    """

    def __init__(self, operators: Sequence[Operator], name: str = "chain") -> None:
        if not operators:
            raise PlanError("CompiledChain requires at least one operator")
        for op in operators:
            if op.arity != 1:
                raise PlanError(
                    f"CompiledChain only fuses unary operators; {op.name!r} "
                    f"has arity {op.arity}"
                )
        selectivity = 1.0
        cost = 0.0
        for op in operators:
            selectivity *= op.selectivity
            cost += op.cost_per_tuple
        super().__init__(name, cost_per_tuple=cost, selectivity=selectivity)
        self.operators = list(operators)

    def process(self, element: Element, port: int = 0) -> list[Element]:
        batch: list[Element] = [element]
        for op in self.operators:
            next_batch: list[Element] = []
            for el in batch:
                next_batch.extend(op.process(el, 0))
            batch = next_batch
            if not batch:
                return []
        return batch

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        # Stage-at-a-time batching: each fused operator consumes the whole
        # intermediate batch before the next stage runs.  Per-element
        # output order is unchanged because every stage preserves it.
        self._validate_port(port)
        batch = list(elements)
        for op in self.operators:
            if not batch:
                return []
            batch = op.process_batch(batch, 0)
        return batch

    def on_record(self, record: Record, port: int) -> list[Element]:
        return self.process(record, port)

    def flush(self) -> list[Element]:
        batch: list[Element] = []
        for i, op in enumerate(self.operators):
            produced = op.flush()
            # Elements flushed by operator i must traverse i+1..end.
            for el in produced:
                chain_rest = self.operators[i + 1 :]
                current = [el]
                for nxt in chain_rest:
                    step: list[Element] = []
                    for c in current:
                        step.extend(nxt.process(c, 0))
                    current = step
                batch.extend(current)
        return batch

    def reset(self) -> None:
        for op in self.operators:
            op.reset()

    def snapshot(self) -> object:
        return [op.snapshot() for op in self.operators]

    def restore(self, state: object) -> None:
        states = list(state) if state is not None else []
        if len(states) != len(self.operators):
            raise PlanError(
                f"chain {self.name!r} has {len(self.operators)} operators "
                f"but the snapshot carries {len(states)} states"
            )
        for op, st in zip(self.operators, states):
            op.restore(st)

    def memory(self) -> float:
        return sum(op.memory() for op in self.operators)

    def bind_feedback(self, channel) -> None:
        super().bind_feedback(channel)
        for op in self.operators:
            op.bind_feedback(channel)

    def on_feedback(
        self, fb: FeedbackPunctuation
    ) -> list[FeedbackPunctuation]:
        # Feedback entering a fused chain from below traverses its
        # operators in reverse dataflow order, each acting/translating
        # in turn, exactly as if the chain were unfused.
        current = [fb]
        for op in reversed(self.operators):
            passed: list[FeedbackPunctuation] = []
            for item in current:
                passed.extend(op.on_feedback(item))
            current = passed
            if not current:
                return []
        return current


def run_chain(
    operators: Sequence[Operator], elements: Iterable[Element]
) -> list[Element]:
    """Push ``elements`` through a linear chain and return all outputs.

    A small utility used widely in tests: processes every element, then
    flushes the chain.
    """
    chain = CompiledChain(list(operators)) if len(operators) != 1 else None
    out: list[Element] = []
    if chain is None:
        op = operators[0]
        for el in elements:
            out.extend(op.process(el))
        out.extend(op.flush())
        return out
    for el in elements:
        out.extend(chain.process(el))
    out.extend(chain.flush())
    return out
