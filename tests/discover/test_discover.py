"""Tests for the parameter-discovery harness (``repro.discover``).

The contract under test: ``discover(seed=S)`` is a pure function of the
seed — byte-identical output at any ``--jobs`` count — and it recovers
**every drawn parameter** of the hidden ``blinded_profile(S)`` exactly,
with the assembled model cycle-exact against the oracle on the
cross-check battery.
"""

import json

import pytest

from repro import api
from repro.discover import DiscoverResult, discover
from repro.uarch import tables
from repro.uarch.profiles import blinded_profile, core2

SEED = 5


@pytest.fixture(scope="module")
def result():
    """One sequential discovery, shared by the exactness checks."""
    return discover(seed=SEED)


def canonical(res):
    return json.dumps(res.to_dict(), sort_keys=True)


class TestExactRecovery:
    def test_every_drawn_parameter_exact(self, result):
        hidden = blinded_profile(SEED)
        for path in tables.drawn_paths(tables.load_ranges()):
            assert result.params[path] == tables.param_value(hidden, path), \
                path

    def test_crosscheck_cycle_exact(self, result):
        assert result.crosscheck["matched"] == result.crosscheck["total"]
        assert result.crosscheck["total"] >= 8

    def test_inferred_assumed_partition(self, result):
        inferred, assumed = set(result.inferred), set(result.assumed)
        assert not (inferred & assumed)
        assert inferred | assumed == set(result.params)

    def test_model_matches_hidden_on_drawn_paths(self, result):
        model = result.model()
        hidden = blinded_profile(SEED)
        for path in tables.drawn_paths(tables.load_ranges()):
            assert tables.param_value(model, path) \
                == tables.param_value(hidden, path)


class TestDeterminism:
    def test_pure_in_seed(self, result):
        assert canonical(discover(seed=SEED)) == canonical(result)

    def test_jobs_invariant_processes(self, result):
        assert canonical(discover(seed=SEED, jobs=4)) == canonical(result)


class TestResultSurface:
    def test_profile_doc_valid(self, result):
        doc = result.profile_doc()
        tables.validate_doc(doc)
        meta = doc["meta"]["discovery"]
        assert meta["seed"] == SEED
        assert sorted(meta["inferred"]) == sorted(result.inferred)

    def test_round_trip(self, result):
        again = DiscoverResult.from_dict(result.to_dict())
        assert canonical(again) == canonical(result)

    def test_explain_mentions_partition(self, result):
        text = result.explain()
        assert "inferred" in text and "assumed" in text

    def test_api_discover_arg_validation(self):
        with pytest.raises(ValueError):
            api.discover()
        with pytest.raises(ValueError):
            api.discover("core2", seed=3)

    def test_discover_known_core(self):
        """Discovery against a registry core infers its line size."""
        res = api.discover("core2")
        assert res.params["frontend.decode_line_bytes"] \
            == core2().decode_line_bytes
        assert res.params["frontend.decode_width"] == core2().decode_width
