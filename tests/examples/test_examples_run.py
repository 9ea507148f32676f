"""Smoke tests: every example script runs end-to-end on a small scale."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # The sweep examples import siblings by path; none do currently, but
    # keep the examples dir importable for robustness.
    sys.path.insert(0, str(EXAMPLES_DIR))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(EXAMPLES_DIR))
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart.py").main()
        output = capsys.readouterr().out
        assert "similar pairs" in output
        assert "NSLD" in output

    def test_fraud_ring_detection(self, capsys):
        load_example("fraud_ring_detection.py").main(150)
        output = capsys.readouterr().out
        assert "rings detected" in output

    def test_data_cleaning_dedup(self, capsys):
        load_example("data_cleaning_dedup.py").main()
        output = capsys.readouterr().out
        assert "duplicate groups" in output
        assert "only the fuzzy join finds" in output

    def test_distance_measure_comparison(self, capsys):
        load_example("distance_measure_comparison.py").main(120)
        output = capsys.readouterr().out
        assert "AUC" in output

    def test_scaling_study(self, capsys):
        load_example("scaling_study.py").main(80)
        output = capsys.readouterr().out
        assert "TSJ/one" in output

    def test_query_serving(self, capsys):
        load_example("query_serving.py").main(120)
        output = capsys.readouterr().out
        assert "built once" in output
        assert "result cache" in output
        assert "after append" in output
        assert "resident join" in output

    def test_parameter_tuning(self, capsys):
        load_example("parameter_tuning.py").main(60, 3)
        output = capsys.readouterr().out
        assert "best: T =" in output

    def test_http_service(self, capsys):
        load_example("http_service.py").main(120)
        output = capsys.readouterr().out
        assert "server up at http://" in output
        assert "matches in-process run: True" in output
        assert "served remotely" in output
        assert "bad wire version rejected remotely" in output
        assert "server metrics" in output

    def test_declarative_api(self, capsys):
        load_example("declarative_api.py").main(120)
        output = capsys.readouterr().out
        assert "registered join algorithms" in output
        assert "similar pairs" in output
        assert "top-3 for new signup" in output
        assert "envelope round-trips" in output
