"""``repro.pgo`` — continuous profile-guided re-optimization.

Closes the loop the paper leaves open between its sampling machinery
(§III.E) and its optimizer: execution profiles collected by
:mod:`repro.profiling` are persisted in an epoch-versioned
:class:`~repro.pgo.store.ProfileStore`, a hotness classifier maps each
input's sample weight to a spec tier, and the optimization surfaces
(``api.optimize(profile_guided=True)``, ``api.optimize_many``,
``POST /v1/profile`` on ``mao serve``) consult that
state so tuning spend concentrates where the cycles are:

* **hot** — the top :attr:`~repro.pgo.classify.PgoPolicy.hot_fraction`
  of total sample weight gets the full :func:`repro.api.tune` search
  (bounded by the policy's pass-execution budget);
* **warm** — profiled but not hot code gets the hand-written default
  spec (``REDTEST:LOOP16``);
* **cold** — unprofiled or negligible-weight code passes through with
  no passes at all.

Artifacts produced under profile guidance are cached under a salt that
folds in the input's **profile epoch**
(:func:`~repro.pgo.store.pgo_cache_salt`), so re-profiling one input
invalidates exactly that input's cached decisions and nothing else.
"""

from repro.pgo.classify import Decision, PgoPolicy, classify, tier_for
from repro.pgo.engine import (
    PgoDecision,
    decide_many,
    decide_one,
    run_guided_batch,
)
from repro.pgo.store import (
    PROFILE_DIR_ENV,
    PROFILE_SCHEMA,
    ProfileEntry,
    ProfileStore,
    build_profile,
    default_profile_dir,
    pgo_cache_salt,
    profile_many,
    validate_profile,
)

__all__ = [
    "Decision",
    "PgoDecision",
    "PgoPolicy",
    "PROFILE_DIR_ENV",
    "PROFILE_SCHEMA",
    "ProfileEntry",
    "ProfileStore",
    "build_profile",
    "classify",
    "decide_many",
    "decide_one",
    "default_profile_dir",
    "pgo_cache_salt",
    "profile_many",
    "run_guided_batch",
    "tier_for",
    "validate_profile",
]
