"""Tests for the high-level core API and the CLI."""

from __future__ import annotations

import pytest

from repro.core import compare_names, nsld_join


class TestNsldJoin:
    def test_basic_join(self):
        report = nsld_join(
            ["barak obama", "borak obama", "john smith"],
            threshold=0.15,
            max_token_frequency=None,
        )
        assert [(a, b) for a, b, _ in report.pairs] == [("barak obama", "borak obama")]
        assert report.clusters == [{"barak obama", "borak obama"}]
        assert report.simulated_seconds > 0

    def test_token_shuffle_is_free(self):
        report = nsld_join(
            ["john smith", "smith, john"], threshold=0.05, max_token_frequency=None
        )
        assert len(report.pairs) == 1
        assert report.pairs[0][2] == 0.0

    def test_pairs_sorted_by_distance(self):
        report = nsld_join(
            ["ann lee", "ann lee", "ann leex", "bob stone"],
            threshold=0.2,
            max_token_frequency=None,
        )
        distances = [d for _, _, d in report.pairs]
        assert distances == sorted(distances)

    def test_config_overrides_forwarded(self):
        report = nsld_join(
            ["chan kalan", "chank alan"],
            threshold=0.25,
            max_token_frequency=None,
            matching="exact",
        )
        # Every token was edited: exact matching cannot discover the pair.
        assert report.pairs == []

    def test_empty_input(self):
        report = nsld_join([], threshold=0.1)
        assert report.pairs == []
        assert report.clusters == []


class TestCompareNames:
    def test_identical(self):
        assert compare_names("ann lee", "ann lee") == 0.0

    def test_shuffle_and_punctuation(self):
        assert compare_names("obama, barak", "barak obama") == 0.0

    def test_known_value(self):
        # "burak ubama": two substitutions over aggregate length 10+10.
        assert compare_names("barak obama", "burak ubama") == pytest.approx(
            2 * 2 / (10 + 10 + 2)
        )


class TestCli:
    def test_generate_and_join(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "names.txt"
        assert main(["generate", str(corpus), "--size", "40", "--seed", "3"]) == 0
        assert main(["join", str(corpus), "--threshold", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "similar pairs" in output
        assert "simulated runtime" in output

    def test_compare(self, capsys):
        from repro.cli import main

        assert main(["compare", "ann lee", "lee ann"]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_roc(self, capsys):
        from repro.cli import main

        assert main(["roc", "--size", "60"]) == 0
        output = capsys.readouterr().out
        assert "NSLD" in output and "AUC" in output

    def test_join_output_file(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "names.txt"
        corpus.write_text("barak obama\nborak obama\nmary lee\n")
        pairs = tmp_path / "pairs.tsv"
        assert main(
            ["join", str(corpus), "--threshold", "0.15", "--output", str(pairs)]
        ) == 0
        lines = pairs.read_text().strip().splitlines()
        assert len(lines) == 1
        assert "barak obama" in lines[0] and "\t" in lines[0]

    def test_knn(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "names.txt"
        corpus.write_text("barak obama\nborak obama\njohn smith\n")
        assert main(["knn", str(corpus), "barak obana", "-k", "2"]) == 0
        output = capsys.readouterr().out.strip().splitlines()
        matches = [line for line in output if not line.startswith("#")]
        assert len(matches) == 2
        assert "obama" in matches[0]
        # The resident-index summary reports the build-vs-query split.
        assert any("built once" in line for line in output)

    def test_knn_multiple_queries_build_once(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "names.txt"
        corpus.write_text("barak obama\nborak obama\njohn smith\n")
        assert (
            main(["knn", str(corpus), "barak obana", "jon smith", "-k", "1"])
            == 0
        )
        output = capsys.readouterr().out
        assert "# query: barak obana" in output
        assert "# query: jon smith" in output
        assert "2 queries served" in output

    def test_search_topk(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "names.txt"
        corpus.write_text("barak obama\nborak obama\njohn smith\nmary lee\n")
        assert main(["search", str(corpus), "barak obana", "-k", "2"]) == 0
        output = capsys.readouterr().out
        assert "# query: barak obana" in output
        assert "barak obama" in output
        assert "result cache" in output

    def test_search_radius_mode(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "names.txt"
        corpus.write_text("barak obama\nborak obama\njohn smith\n")
        assert (
            main(["search", str(corpus), "barak obama", "--radius", "0.2"])
            == 0
        )
        output = capsys.readouterr().out
        assert "0.0000\tbarak obama" in output
        assert "john smith" not in output.split("# resident")[0]

    def test_search_queries_file(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "names.txt"
        corpus.write_text("barak obama\nborak obama\njohn smith\n")
        queries = tmp_path / "queries.txt"
        queries.write_text("jon smith\n")
        assert (
            main(["search", str(corpus), "--queries-file", str(queries)]) == 0
        )
        assert "# query: jon smith" in capsys.readouterr().out

    def test_search_without_queries_fails(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "names.txt"
        corpus.write_text("barak obama\n")
        assert main(["search", str(corpus)]) == 2
        assert "no queries" in capsys.readouterr().out

    def test_search_rejects_radius_with_fuzzymatch(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "names.txt"
        corpus.write_text("barak obama\n")
        for mode in (["--radius", "0.2"], ["-k", "2"]):
            for method in ("fuzzymatch", "bktree"):
                with pytest.raises(SystemExit) as excinfo:
                    main(["search", str(corpus), "x", *mode, "--method", method])
                assert excinfo.value.code == 2
                assert f"invalid choice: '{method}'" in capsys.readouterr().err

    def test_search_rejects_negative_radius(self, tmp_path, capsys):
        from repro.cli import main

        corpus = tmp_path / "names.txt"
        corpus.write_text("barak obama\n")
        assert main(["search", str(corpus), "x", "--radius", "-1"]) == 2
        assert "non-negative" in capsys.readouterr().out

    def test_tune(self, capsys):
        from repro.cli import main

        assert main(
            ["tune", "--background", "30", "--rings", "2", "--ring-size", "3"]
        ) == 0
        assert "best: T =" in capsys.readouterr().out
