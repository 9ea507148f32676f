"""Spec construction, JSON round-trips and the shared selector errors."""

from __future__ import annotations

import pytest

from repro.api import (
    CompareSpec,
    JoinSpec,
    TopKSpec,
    WithinSpec,
    spec_from_json,
)
from repro.api.errors import ValidationError
from repro.api.registry import validate_choice

pytestmark = pytest.mark.tier1


class TestJsonRoundTrip:
    def test_join_spec(self):
        spec = JoinSpec(
            algorithm="passjoin_k",
            threshold=2,
            names=["chan", "chank", "kalan"],
            backend="dp",
            engine="serial",
            params={"k_signatures": 3},
        )
        assert JoinSpec.from_json(spec.to_json()) == spec
        assert spec_from_json(spec.to_json()) == spec

    def test_topk_spec(self):
        spec = TopKSpec(
            queries=["jon smiht"], k=3, method="vptree", names=["john smith"]
        )
        assert TopKSpec.from_json(spec.to_json()) == spec
        assert spec_from_json(spec.to_json()) == spec

    def test_within_spec(self):
        spec = WithinSpec(queries=("a", "b"), radius=0.25, method="cascade")
        assert WithinSpec.from_json(spec.to_json()) == spec
        assert spec_from_json(spec.to_json()) == spec

    def test_compare_spec(self):
        spec = CompareSpec(name_a="ann lee", name_b="lee ann", backend="bitparallel")
        assert CompareSpec.from_json(spec.to_json()) == spec
        assert spec_from_json(spec.to_json()) == spec

    def test_sequences_normalise_to_tuples(self):
        # Lists and tuples construct equal specs, so JSON loading (always
        # lists) can never produce an unequal twin.
        assert JoinSpec(names=["a", "b"]) == JoinSpec(names=("a", "b"))
        assert TopKSpec(queries=["q"]) == TopKSpec(queries=("q",))

    def test_single_query_string_promotes(self):
        assert TopKSpec(queries="solo").queries == ("solo",)
        assert WithinSpec(queries="solo").queries == ("solo",)

    def test_nested_params_round_trip(self):
        # Tuples nested in params normalise to the JSON shape at
        # construction, so the round-trip contract holds deep down.
        spec = JoinSpec(
            algorithm="clusterjoin",
            params={"n_pivots": 4, "grid": (1, 2), "nested": {"also": (3,)}},
        )
        assert spec.params == {"n_pivots": 4, "grid": [1, 2], "nested": {"also": [3]}}
        assert spec_from_json(spec.to_json()) == spec


class TestValidationErrors:
    """The one shared ``unknown <kind> ...; choose from [...]`` shape."""

    def test_validate_choice_message(self):
        with pytest.raises(ValueError, match=r"unknown colour 'x'; choose from"):
            validate_choice("colour", "x", ("red", "green"))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match=r"unknown join algorithm 'blorp'"):
            JoinSpec(algorithm="blorp")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match=r"unknown search method 'kdtree'"):
            TopKSpec(method="kdtree")

    def test_unknown_backend(self):
        with pytest.raises(
            ValueError, match=r"unknown verification backend 'gpu'"
        ):
            JoinSpec(backend="gpu")

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match=r"unknown execution engine 'ray'"):
            JoinSpec(engine="ray")

    def test_unknown_compare_backend(self):
        with pytest.raises(ValueError, match=r"unknown verification backend"):
            CompareSpec(name_a="a", name_b="b", backend="simd")

    def test_unknown_spec_type(self):
        with pytest.raises(ValueError, match=r"unknown spec type 'sort'"):
            spec_from_json('{"type": "sort"}')

    def test_unknown_spec_field(self):
        with pytest.raises(ValueError, match=r"unknown JoinSpec field"):
            JoinSpec.from_json('{"type": "join", "thresold": 0.1}')

    def test_type_mismatch(self):
        with pytest.raises(ValueError, match=r"cannot load a 'join' payload"):
            TopKSpec.from_json('{"type": "join"}')

    def test_bad_k(self):
        with pytest.raises(ValueError, match="k must be positive"):
            TopKSpec(k=0)

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="radius must be non-negative"):
            WithinSpec(radius=-0.1)

    def test_within_rejects_fuzzymatch(self):
        with pytest.raises(ValueError, match=r"unknown search method 'fuzzymatch'"):
            WithinSpec(method="fuzzymatch")

    @pytest.mark.parametrize("method", ["bktree", "fuzzymatch"])
    def test_retired_search_methods(self, method):
        # The uniform selector error, listing every accepted spelling.
        with pytest.raises(
            ValidationError,
            match=rf"unknown search method '{method}'; choose from "
            r"\['cascade', 'similarity_index', 'vptree'\]",
        ):
            TopKSpec(method=method)

    def test_selector_errors_list_choices(self):
        # The error names every registered algorithm -- the "choose from"
        # contract that makes typos self-correcting.
        with pytest.raises(ValueError) as excinfo:
            JoinSpec(algorithm="passjion")
        message = str(excinfo.value)
        for name in ("tsj", "passjoin", "vernica", "quickjoin"):
            assert repr(name) in message


class TestSharedSelectorValidation:
    """The same validator guards the legacy per-module selectors."""

    def test_accel_backend(self):
        from repro.accel import resolve_backend

        with pytest.raises(
            ValueError, match=r"unknown verification backend 'gpu'; choose from"
        ):
            resolve_backend("gpu")

    def test_runtime_engine(self):
        from repro.runtime import resolve_engine

        with pytest.raises(
            ValueError, match=r"unknown execution engine 'ray'; choose from"
        ):
            resolve_engine("ray")

    def test_massjoin_mode(self):
        from repro.joins import MassJoin

        with pytest.raises(
            ValueError, match=r"unknown MassJoin mode 'hamming'; choose from"
        ):
            MassJoin(threshold=0.1, mode="hamming")

    def test_tsj_config_selectors(self):
        from repro.tsj import TSJConfig

        with pytest.raises(ValueError, match=r"unknown verification backend"):
            TSJConfig(verify_backend="gpu")
        with pytest.raises(ValueError, match=r"unknown execution engine"):
            TSJConfig(engine="ray")
        with pytest.raises(ValueError, match=r"unknown matching mode"):
            TSJConfig(matching="sloppy")
        with pytest.raises(ValueError, match=r"unknown aligning mode"):
            TSJConfig(aligning="random")
        with pytest.raises(ValueError, match=r"unknown dedup strategy"):
            TSJConfig(dedup="never")
        with pytest.raises(ValueError, match=r"unknown frequency mode"):
            TSJConfig(frequency_mode="guess")
