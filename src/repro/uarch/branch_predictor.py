"""Branch predictor: a table of 2-bit counters indexed by ``PC >> shift``.

The paper (§III.C.g): "In many Intel platforms, branch predictor structures
are indexed by PC >> 5.  As a result, the backward branches of both the
loops above use the same branch prediction information" — i.e. two branches
whose addresses fall in one 32-byte bucket *alias* and destructively share
state.  That aliasing emerges directly from this table organization, which
is what the branch-alignment pass (and the Fig. 1 NOP anecdote) exploit.
"""

from __future__ import annotations

from typing import Dict

from repro.uarch.model import ProcessorModel


class BranchPredictor:
    """2-bit saturating counters, no tags (so aliasing is real)."""

    def __init__(self, model: ProcessorModel) -> None:
        self.model = model
        self._counters: Dict[int, int] = {}
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, address: int) -> bool:
        counter = self._counters.get(self.model.bp_index(address), 2)
        return counter >= 2

    def update(self, address: int, taken: bool) -> bool:
        """Record the outcome; returns True when it was mispredicted."""
        index = self.model.bp_index(address)
        counter = self._counters.get(index, 2)
        predicted_taken = counter >= 2
        mispredicted = predicted_taken != taken
        self.predictions += 1
        if mispredicted:
            self.mispredictions += 1
        if taken:
            counter = min(3, counter + 1)
        else:
            counter = max(0, counter - 1)
        self._counters[index] = counter
        return mispredicted

    # ---- steady-state fast-forward support --------------------------------

    def ff_snapshot(self):
        """(table copy, predictions, mispredictions) for loop fast-forward."""
        return (dict(self._counters), self.predictions, self.mispredictions)

    def ff_apply(self, d_predictions: int, d_mispredictions: int,
                 repeats: int) -> None:
        """Advance event counts by *repeats* validated loop iterations.

        The counter table itself must be a fixed point of the iteration
        (checked by the validator), so only the counts move.
        """
        self.predictions += d_predictions * repeats
        self.mispredictions += d_mispredictions * repeats
