"""CLI: ingestion, analyze output schema, simulate artifacts, exit codes."""

import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nnct import (
    CSR_Q_PER_POINT,
    CSR_R_PER_POINT,
    ContingencyTable,
    InvalidInputError,
    ParseError,
    estimate_qr,
    ingest,
)
from nnct import cli, geometry, montecarlo
from nnct.cli import build_parser, main
from nnct.report import AnalysisReport

from conftest import DATA_DIR, mutual_pairs, pair_points

FIXTURE = str(DATA_DIR / "artificial_100.csv")
GOLDEN = json.loads((DATA_DIR / "analyze_digests.json").read_text(encoding="utf-8"))
RUNS = json.loads((DATA_DIR / "run_digests.json").read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write(tmp_path, text, name="pts.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestIngest:
    def test_basic_with_header(self, tmp_path):
        pts = ingest(write(tmp_path, "x,y,label\n0,0,a\n1,0,a\n3,0,b\n"))
        assert pts.n == 3
        assert pts.labels.tolist() == [1, 1, 2]

    def test_no_header(self, tmp_path):
        pts = ingest(write(tmp_path, "0,0,a\n1,0,b\n"), has_header=False)
        assert pts.n == 2

    def test_first_seen_mapping_and_override(self, tmp_path):
        path = write(tmp_path, "x,y,label\n0,0,b\n1,0,a\n3,0,b\n")
        assert ingest(path).labels.tolist() == [1, 2, 1]
        assert ingest(path, classes=("a", "b")).labels.tolist() == [2, 1, 2]

    def test_delimiter_override(self, tmp_path):
        pts = ingest(write(tmp_path, "x;y;label\n0;0;a\n1;0;b\n"), delimiter=";")
        assert pts.n == 2

    def test_malformed_row_reports_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 3"):
            ingest(write(tmp_path, "x,y,label\n0,0,a\nnope,0,b\n"))
        with pytest.raises(ParseError, match="line 2"):
            ingest(write(tmp_path, "x,y,label\n0,0\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            ingest(write(tmp_path, ""))
        with pytest.raises(ParseError):
            ingest(write(tmp_path, "x,y,label\n"))

    def test_single_class(self, tmp_path):
        with pytest.raises(InvalidInputError):
            ingest(write(tmp_path, "x,y,label\n0,0,a\n1,0,a\n"))

    def test_three_classes(self, tmp_path):
        with pytest.raises(InvalidInputError, match="more than two"):
            ingest(write(tmp_path, "x,y,label\n0,0,a\n1,0,b\n2,0,c\n"))

    def test_unknown_class_under_override(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            ingest(write(tmp_path, "x,y,label\n0,0,z\n1,0,a\n"), classes=("a", "b"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            ingest(str(tmp_path / "absent.csv"))


class TestAnalyze:
    def run_json(self, capsys, *argv):
        code = main(["analyze", *argv])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("case", GOLDEN["analyze"], ids=lambda case: case["id"])
    def test_output_matches_its_golden_digest(self, capsys, case):
        assert main(["analyze", FIXTURE, *case["args"]]) == 0
        out = capsys.readouterr().out
        assert sha256(out.encode("utf-8")) == case["sha256"]

    def test_adjusted_negative_seed_is_a_usage_error(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the input was read before the seed was checked")

        monkeypatch.setattr(cli, "ingest", never)
        assert main(["analyze", FIXTURE, "--qr-mode", "adjusted", "--nmc", "5",
                     "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "usage error: seed must be a nonnegative integer\n"

    def test_fixture_observed(self, capsys):
        doc = self.run_json(capsys, FIXTURE)
        assert doc["schema_version"] == 1
        assert doc["input"] == {"n": 100, "n1": 50, "n2": 50, "duplicate_points": False}
        assert doc["nnct"]["counts"] == [[30, 20], [19, 31]]
        assert doc["nnct"]["row_percent"][0][0] == pytest.approx(60.0)
        assert doc["q"] == 70 and doc["r"] == 60
        assert doc["qr_mode"] == "observed"
        assert len(doc["tests"]) == 4
        dixon = doc["tests"][0]
        assert dixon["flavor"] == "dixon_overall"
        assert dixon["statistic"] == pytest.approx(3.36, abs=0.01)
        assert dixon["df"] == 2

    def test_cells_flag_adds_z_tests(self, capsys):
        doc = self.run_json(capsys, FIXTURE, "--cells")
        assert len(doc["tests"]) == 8
        assert doc["tests"][4]["flavor"] == "cell_Z_11"
        assert doc["tests"][4]["df"] is None

    def test_row_percent_of_an_empty_row_is_zero(self):
        # analyze rejects an empty class; a report made from a table need not
        table = ContingencyTable.from_counts([[0, 0], [4, 6]])
        report = AnalysisReport(False, table, 0, 0, "observed", 0.0, 0.0, (), None)
        assert report.row_percent() == [[0.0, 0.0], [40.0, 60.0]]

    def test_adjusted_asymptotic_same_table_other_statistics(self, capsys):
        obs = self.run_json(capsys, FIXTURE)
        adj = self.run_json(capsys, FIXTURE, "--qr-mode", "adjusted-asymptotic")
        assert adj["nnct"] == obs["nnct"]
        assert adj["q"] == obs["q"]
        assert adj["q_used"] == pytest.approx(63.2786)
        assert adj["tests"][0]["statistic"] != obs["tests"][0]["statistic"]

    def test_adjusted_estimates_near_reference(self, capsys):
        doc = self.run_json(capsys, FIXTURE, "--qr-mode", "adjusted",
                            "--nmc", "2000", "--seed", "4")
        assert doc["q_used"] == pytest.approx(63.37, abs=1.0)
        assert doc["r_used"] == pytest.approx(62.17, abs=1.0)

    def test_adjusted_modes_use_the_shared_qr_choice(self, capsys):
        est = estimate_qr(100, 300, seed=4)
        doc = self.run_json(capsys, FIXTURE, "--qr-mode", "adjusted",
                            "--nmc", "300", "--seed", "4")
        assert (doc["q_used"], doc["r_used"]) == (est.q_over_n * 100, est.r_over_n * 100)
        doc = self.run_json(capsys, FIXTURE, "--qr-mode", "adjusted-asymptotic")
        assert (doc["q_used"], doc["r_used"]) == (CSR_Q_PER_POINT * 100,
                                                  CSR_R_PER_POINT * 100)

    def test_round_trip_byte_stable(self, capsys):
        code = main(["analyze", FIXTURE, "--seed", "9"])
        assert code == 0
        first = capsys.readouterr().out
        code = main(["analyze", FIXTURE, "--seed", "9"])
        assert code == 0
        assert capsys.readouterr().out == first

    def test_csv_format(self, capsys):
        code = main(["analyze", FIXTURE, "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:4] == ["flavor", "statistic", "df", "p_value"]
        assert len(rows) == 1 + 4

    def test_rel_cutoff_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", FIXTURE, "--rel-cutoff", "1e-8"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_exit_codes(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.csv")]) == 3
        bad = write(tmp_path, "x,y,label\n0,0\n", "bad.csv")
        assert main(["analyze", bad]) == 3
        one_class = write(tmp_path, "x,y,label\n0,0,a\n1,0,a\n", "one.csv")
        assert main(["analyze", one_class]) == 4
        # a singleton class makes every variance-based test degenerate
        tiny = write(
            tmp_path, "x,y,label\n0,0,a\n1,0,b\n2,0,b\n3,0,b\n4,0,b\n", "tiny.csv"
        )
        assert main(["analyze", tiny]) == 5
        capsys.readouterr()

    @pytest.mark.parametrize("n1, n2", [(10, 10), (20, 30), (30, 30), (50, 100), (100, 100)])
    def test_all_mutual_pairs_make_dixon_degenerate(self, tmp_path, capsys, n1, n2):
        labels = np.repeat(["a", "b"], [n1, n2])
        rows = "".join(f"{x!r},{y!r},{lab}\n"
                       for (x, y), lab in zip(pair_points((n1 + n2) // 2).tolist(), labels))
        assert main(["analyze", write(tmp_path, "x,y,label\n" + rows)]) == 5
        assert "dixon_overall is undefined" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [100, 300], ids=["brute", "kdtree"])
    def test_overflowing_squared_distances_are_invalid_input(self, tmp_path, capsys, n):
        rng = np.random.default_rng(n)
        rows = "".join(f"{x!r},{y!r},{'ab'[k % 2]}\n"
                       for k, (x, y) in enumerate((rng.random((n, 2)) * 1e160).tolist()))
        assert main(["analyze", write(tmp_path, "x,y,label\n" + rows)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("invalid input: coordinates spread too far")

    def test_duplicate_points_flagged(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "x,y,label\n0,0,a\n0,0,a\n1,0,b\n2,0,b\n3,0,a\n4,5,b\n",
            "dup.csv",
        )
        doc = self.run_json(capsys, path)
        assert doc["input"]["duplicate_points"] is True

    @pytest.mark.parametrize("twins, calls", [(False, 1), (True, 2)])
    def test_a_grid_is_sorted_into_sites_once(self, tmp_path, capsys, monkeypatch,
                                              twins, calls):
        # the search groups the set into sites; the duplicate flag groups
        # only points whose NN lies at distance 0, which a grid has none of
        sorts = []
        point_sites = geometry._point_sites

        def spy(coords):
            sorts.append(len(coords))
            return point_sites(coords)

        monkeypatch.setattr(geometry, "_point_sites", spy)
        cell = np.random.default_rng(22).permutation(40000)
        if twins:
            cell[-1] = cell[0]
        rows = "".join(f"{c // 200},{c % 200},{'ab'[c % 2]}\n" for c in cell.tolist())
        doc = self.run_json(capsys, write(tmp_path, "x,y,label\n" + rows))
        assert doc["input"]["duplicate_points"] is twins
        assert sorts[0] == 40000 and len(sorts) == calls
        if twins:
            assert sorts[1] == 2  # the twins alone

    def test_sided_flag(self, capsys):
        two = self.run_json(capsys, FIXTURE, "--cells")
        gt = self.run_json(capsys, FIXTURE, "--cells", "--sided", "greater")
        z11_two = two["tests"][4]
        z11_gt = gt["tests"][4]
        assert z11_two["statistic"] == z11_gt["statistic"]
        assert z11_two["p_value"] != z11_gt["p_value"]


class TestSimulate:
    def test_size_smoke(self, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        code = main([
            "simulate", "size", "--combos", "10,10", "--nmc", "60",
            "--seed", "2", "--adjusted-source", "asymptotic", "--out", prefix,
        ])
        assert code == 0
        out, err = capsys.readouterr()
        assert f"wrote {prefix}.csv" in out
        assert err == ""
        with open(prefix + ".csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 8
        doc = json.loads(open(prefix + ".json", encoding="utf-8").read())
        assert doc["kind"] == "size"
        assert all(row["n_degenerate"] == 0 for row in doc["rows"])
        with open(prefix + "_plot.csv", encoding="utf-8") as fh:
            assert len(fh.read().strip().splitlines()) == 1 + 8

    def test_alpha_zero_never_rejects(self, tmp_path, capsys):
        prefix = str(tmp_path / "a0")
        assert main(["simulate", "size", "--combos", "10,10", "--nmc", "30", "--alpha", "0",
                     "--adjusted-source", "asymptotic", "--out", prefix]) == 0
        capsys.readouterr()
        doc = json.loads(open(prefix + ".json", encoding="utf-8").read())
        assert doc["band"] == [0.0, 0.0]
        assert all(row["rejection_rate"] == 0.0 for row in doc["rows"])

    def test_power_seg_fraction_parsing(self, tmp_path, capsys):
        prefix = str(tmp_path / "pow")
        code = main([
            "simulate", "power-seg", "--combos", "10,10", "--nmc", "40",
            "--seed", "2", "--s", "1/3", "--adjusted-source", "asymptotic",
            "--out", prefix,
        ])
        assert code == 0
        capsys.readouterr()
        doc = json.loads(open(prefix + ".json", encoding="utf-8").read())
        assert doc["rows"][0]["param"] == pytest.approx(1 / 3)

    def test_size_adjusted_q_hat_is_the_estimate(self, tmp_path, capsys):
        prefix = str(tmp_path / "qr")
        code = main([
            "simulate", "size", "--combos", "10,10", "--nmc", "20", "--seed", "5",
            "--qr-nmc", "200", "--out", prefix,
        ])
        assert code == 0
        capsys.readouterr()
        doc = json.loads(open(prefix + ".json", encoding="utf-8").read())
        est = estimate_qr(20, 200, seed=5)
        adjusted = [row for row in doc["rows"] if row["qr_mode"] == "adjusted"]
        assert len(adjusted) == 4
        for row in adjusted:
            assert (row["q_hat"], row["r_hat"]) == (est.q_over_n * 20, est.r_over_n * 20)

    def test_degenerate_replications_summarized_on_stderr(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(montecarlo, "_draw_points", mutual_pairs)
        prefix = str(tmp_path / "deg")
        code = main([
            "simulate", "size", "--combos", "10,10", "--nmc", "7", "--seed", "2",
            "--adjusted-source", "asymptotic", "--out", prefix,
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert err == (f"7 undefined statistics in 1 rows counted as non-rejections; "
                       f"see n_degenerate in {prefix}.json\n")
        with open(prefix + ".csv", encoding="utf-8") as fh:
            assert "n_degenerate" not in fh.readline()

    @pytest.mark.parametrize("source", ["estimate", "asymptotic"])
    def test_qr_nmc_below_one_is_a_usage_error(self, tmp_path, capsys, source):
        assert main(["simulate", "size", "--combos", "10,10", "--nmc", "5",
                     "--qr-nmc", "0", "--adjusted-source", source,
                     "--out", str(tmp_path / "size")]) == 2
        assert capsys.readouterr().err == (
            "usage error: qr_estimate_nmc must be >= 1, got 0\n")
        assert not list(tmp_path.iterdir())

    def test_usage_errors(self, capsys):
        assert main(["simulate", "size", "--nmc", "0"]) == 2
        assert main(["simulate", "size", "--combos", "10"]) == 2
        assert main(["simulate", "power-seg", "--s", "3/2", "--nmc", "10"]) == 2
        capsys.readouterr()


class TestEstimateQrCommand:
    def test_two_point_row_and_determinism(self, capsys):
        assert main(["estimate-qr", "--n", "2", "--nmc", "25", "--seed", "6"]) == 0
        first = capsys.readouterr().out
        lines = first.strip().splitlines()
        assert lines[0] == "n,n_mc,q_over_n,r_over_n,se_q,se_r"
        assert lines[1].startswith("2,25,0.0,1.0,")
        assert main(["estimate-qr", "--n", "2", "--nmc", "25", "--seed", "6"]) == 0
        assert capsys.readouterr().out == first

    def test_requires_n(self, capsys):
        assert main(["estimate-qr"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one(self, capsys, workers, tmp_path):
        # the message names the flag the user typed, in every command
        for argv in (["estimate-qr", "--n", "10", "--nmc", "20"],
                     ["simulate", "size", "--combos", "10,10", "--nmc", "20",
                      "--qr-nmc", "20", "--out", str(tmp_path / "s")]):
            assert main([*argv, "--workers", workers]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("usage error: workers must be >= 1")
        assert not any(tmp_path.iterdir())

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert main(["estimate-qr", "--n", "10", "--nmc", "5", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "usage error: seed must be a nonnegative integer\n"


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("qr-mode = adjusted-asymptotic\nseed: 21\n# comment\n")
        code = main(["analyze", FIXTURE, "--config", str(cfg)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["qr_mode"] == "adjusted-asymptotic"
        assert doc["seed"] == 21
        code = main(["analyze", FIXTURE, "--config", str(cfg), "--qr-mode", "observed"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["qr_mode"] == "observed"

    @pytest.mark.parametrize("spelling", ["tab", "\\t"])
    def test_config_tab_delimiter(self, tmp_path, capsys, spelling):
        assert main(["analyze", FIXTURE]) == 0
        expected = capsys.readouterr().out
        with open(FIXTURE, encoding="utf-8") as fh:
            tsv = write(tmp_path, fh.read().replace(",", "\t"), "pts.tsv")
        cfg = tmp_path / "tab.cfg"
        cfg.write_text(f"delimiter = {spelling}\n")
        assert main(["analyze", tsv, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfqr_mode = adjusted-asymptotic\n")
        assert main(["analyze", FIXTURE, "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["qr_mode"] == "adjusted-asymptotic"

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert main(["analyze", FIXTURE, "--config", str(cfg)]) == 3
        assert main(["analyze", FIXTURE, "--config", str(tmp_path / "missing.cfg")]) == 3
        cfg.write_text("combos =\n")
        assert main(["simulate", "size", "--config", str(cfg)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("line", ["qr_mode = obsrved", "format = xml", "sided = both",
                                      "seed = 1.5", "cells = maybe"])
    def test_config_values_checked_like_flags(self, tmp_path, capsys, line):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(line + "\n")
        assert main(["analyze", FIXTURE, "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage error: config value for {line.split()[0]}: ")

    def test_config_ignores_keys_of_other_commands(self, tmp_path, capsys):
        assert main(["analyze", FIXTURE]) == 0
        expected = capsys.readouterr().out
        cfg = tmp_path / "other.cfg"
        cfg.write_text("workers = many\ncombos = 1\ninput = elsewhere.csv\n")
        assert main(["analyze", FIXTURE, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("cells", ["yes", "no"])
    def test_analyze_config_same_bytes_as_flags(self, tmp_path, capsys, cells):
        with open(FIXTURE, encoding="utf-8") as fh:
            headless = write(tmp_path, fh.read().split("\n", 1)[1], "headless.csv")
        flags = ["--no-header", "--sided", "less"] + (["--cells"] if cells == "yes" else [])
        assert main(["analyze", headless, *flags]) == 0
        expected = capsys.readouterr().out
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no_header = yes\ncells = {cells}\nsided: less\n")
        assert main(["analyze", headless, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected

    def test_simulate_config_same_bytes_as_flags(self, tmp_path, capsys):
        common = ["simulate", "size", "--nmc", "30", "--seed", "3",
                  "--adjusted-source", "asymptotic"]
        flag_prefix = str(tmp_path / "flags")
        assert main([*common, "--combos", "10,10", "12,8", "--alpha", "0.1",
                     "--out", flag_prefix]) == 0
        cfg = tmp_path / "run.cfg"
        cfg_prefix = str(tmp_path / "cfg")
        cfg.write_text(f"combos = 10,10 12,8\nalpha = 0.1\nout = {cfg_prefix}\n")
        assert main([*common, "--config", str(cfg)]) == 0
        capsys.readouterr()
        for suffix in (".csv", ".json", "_plot.csv"):
            assert (Path(cfg_prefix + suffix).read_bytes()
                    == Path(flag_prefix + suffix).read_bytes())

    def test_line_splits_at_first_separator(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out: {tmp_path}/d/run=1\nnmc = 5\ncombos = 10,10\n"
                       "adjusted_source = asymptotic\n")
        assert main(["simulate", "size", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert (tmp_path / "d" / "run=1.csv").exists()
        assert not (tmp_path / "size.csv").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "size", "--combos", "100,100", "1,2"],
    ["simulate", "size", "--combos", "0,5"],
    ["simulate", "power-seg", "--s", "3/2"],
    ["simulate", "power-assoc", "--r", "0"],
    ["simulate", "size", "--workers", "0"],
    ["simulate", "size", "--seed", "-1"],
    ["analyze", FIXTURE, "--classes", "a,a"],
    ["analyze", FIXTURE, "--classes", "a,b,c"],
    ["analyze", FIXTURE, "--delimiter", "ab"],
    ["simulate", "size", "--combos", "10,10", "--out", "missing/size"],
    ["simulate", "size", "--alpha", "1"],
    ["simulate", "power-seg", "--s", "abc"],
    ["estimate-qr", "--n", "1"],
    ["estimate-qr", "--n", "5,x"],
    ["analyze", FIXTURE, "--nmc", "0"],
], ids=["combo-n-3", "combo-class-0", "s", "r", "workers", "seed", "classes-same",
        "classes-three", "delimiter", "out-dir-missing", "alpha-1", "s-unparsable",
        "n-below-2", "n-unparsable", "nmc-0"])
def test_bad_argument_exits_2_before_any_replication(argv, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a replication ran before the arguments were checked")

    monkeypatch.setattr(montecarlo, "estimate_qr", never)
    monkeypatch.setattr(montecarlo, "_rejection_chunk", never)
    monkeypatch.setattr(montecarlo, "_digraphs", never)
    monkeypatch.chdir(tmp_path)  # the default --out prefixes land here
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch("usage error: [^\n]+\n", err)
    assert not list(tmp_path.iterdir())


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("nnct ")


def _subparsers(parser):
    """{name: subparser} of the first subcommand level of ``parser``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _long_flags(parser):
    return {opt for action in parser._actions for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"}


def test_readme_cli_block_lists_every_parser_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    # one usage entry per "nnct ..." line, with its continuation lines
    entries = re.split(r"\n(?=nnct )", block.strip())
    commands = _subparsers(build_parser())
    documented = {}
    for entry in entries:
        words = entry.split()
        parser = commands[words[1]]
        name = words[1]
        if _subparsers(parser):
            parser, name = _subparsers(parser)[words[2]], f"{words[1]} {words[2]}"
        flags = set(re.findall(r"--[a-z][a-z-]*", entry))
        if "same flags" in entry:
            flags |= documented[previous]
        else:
            previous = name
        documented[name] = flags
        assert flags == _long_flags(parser), name
    assert set(documented) == {"analyze", "simulate size", "simulate power-seg",
                               "simulate power-assoc", "estimate-qr"}


def test_readme_python_blocks_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4  # the four overall tests


# Byte-identical outputs at any --workers count, CPU count and process split
ENV = {**os.environ, "PYTHONPATH": str(DATA_DIR.parents[1] / "src")}

# The first four draw two chunks per stream (n = 300 by kd-tree in the pool's children); the
# last four share n = 50 at --qr-nmc 300, 400 and 1200, which one process draws once, and
# also run as separate processes.
_COMMANDS = """estimate-qr --n 300,20 --nmc 600
simulate size --combos 10,10 --nmc 600 --qr-nmc 600 --out size10
simulate power-seg --s 1/6 --combos 10,10 --nmc 600 --qr-nmc 600 --out seg10
simulate power-assoc --r 1/4 --combos 10,10 --nmc 600 --qr-nmc 600 --out assoc10
simulate size --combos 20,30 40,40 --nmc 40 --qr-nmc 300 --out size
simulate power-seg --s 1/6,1/3 --combos 20,30 30,20 --nmc 40 --qr-nmc 400 --out seg
simulate power-assoc --r 1/4 --combos 30,20 --nmc 40 --qr-nmc 400 --out assoc
estimate-qr --n 80,50 --nmc 1200""".splitlines()


def test_outputs_do_not_depend_on_workers_or_processes(tmp_path, monkeypatch, capsys):
    for workers in (1, 2):
        montecarlo._qr_draws.cache_clear()  # so that one process draws again at 2
        one, separate = tmp_path / f"one{workers}", tmp_path / f"separate{workers}"
        one.mkdir()
        separate.mkdir()
        for k, argv in enumerate(_COMMANDS):
            argv = f"{argv} --workers {workers}".split()
            if k >= 4:
                with open(separate / f"{k}.out", "w", encoding="utf-8") as out:
                    subprocess.run([sys.executable, "-m", "nnct.cli", *argv], cwd=separate,
                                   env=ENV, stdout=out, check=True)
            monkeypatch.chdir(one)
            assert main(argv) == 0
            (one / f"{k}.out").write_text(capsys.readouterr().out, encoding="utf-8")
    found = {d.name: {p.name: p.read_bytes() for p in sorted(d.iterdir())}
             for d in tmp_path.iterdir()}
    assert len(found["one1"]) == 26 and found["one1"] == found["one2"]  # 8 stdouts, 6 x 3 files
    assert len(found["separate1"]) == 13 and found["separate1"] == found["separate2"]
    assert found["separate1"].items() <= found["one1"].items()


@pytest.fixture(scope="module")
def generated_sets(tmp_path_factory) -> dict[str, str]:
    """The paths of four generated point files: 3*10^4 CSR points, a
    shuffled 200x200 grid, 3000 points on two sites and 3*10^4 rounded
    points that share x values."""
    folder = tmp_path_factory.mktemp("sets")
    csr, grid, dup, rounded = map(np.random.default_rng, range(20, 24))
    cell, site = grid.permutation(40000), np.r_[0, 1, 0, 1, dup.integers(0, 2, 3000)[4:]]
    paths = {name: str(folder / f"{name}.csv") for name in ("csr", "grid", "dup", "rounded")}
    for path, rows in zip(paths.values(), [
            [csr.random((30000, 2)), csr.integers(1, 3, 30000)],
            [cell // 200, cell % 200, grid.integers(1, 3, 40000)],
            [np.array([[.25, .25], [.75, .75]])[site], np.r_[1, 2, dup.integers(1, 3, 3000)[2:]]],
            [rounded.random((30000, 2)).round(6), rounded.integers(1, 3, 30000)]]):
        np.savetxt(path, np.column_stack(rows), fmt=["%.17g", "%.17g", "%d"], delimiter=",",
                   header="x,y,label", comments="")
    return paths


# Golden digests: a change that moves one of these outputs on purpose updates
# tests/data/run_digests.json and lists every number that moved
@pytest.mark.parametrize("case", RUNS["simulate"], ids=lambda case: case["id"])
def test_study_files_match_their_golden_digests(tmp_path, capsys, case):
    assert main([*case["args"], "--out", str(tmp_path / "report")]) == 0
    assert {suffix: sha256((tmp_path / f"report{suffix}").read_bytes())
            for suffix in case["sha256"]} == case["sha256"]


def test_estimate_qr_matches_its_golden_digest(capsys):
    case = RUNS["estimate-qr"]
    assert main(case["args"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == case["sha256"]


@pytest.mark.parametrize("case", RUNS["analyze"], ids=lambda case: case["id"])
def test_analyze_on_a_generated_set_matches_its_golden_digest(generated_sets, capsys, case):
    assert main(["analyze", generated_sets[case["id"]], "--cells"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == case["sha256"]


# analyze --cells on each file; the 8 permutation p-values, warm and cold (drawn afresh)
_CHILD = """import contextlib, io, json, sys, numpy as np, nnct.cli
from nnct.segregation import CELL_FLAVORS, OVERALL_FLAVORS, _permutation_run
found = {"cpus": nnct.geometry._search_cpus()}
for path in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert nnct.cli.main(["analyze", path, "--cells"]) == 0
    found[path] = out.getvalue()
for n in (1000, 5000):  # above 4096 points a block is tabulated in parts
    r = np.random.default_rng(24)
    p = nnct.LabeledPointSet(r.random((n, 2)), r.integers(1, 3, n))
    found[f"warm {n}"] = [nnct.permutation_pvalue(p, f, 999, 24)
                          for f in OVERALL_FLAVORS + CELL_FLAVORS]
    found[f"cold {n}"] = [_permutation_run.cache_clear() or nnct.permutation_pvalue(p, f, 999, 24)
                          for f in OVERALL_FLAVORS + CELL_FLAVORS]
print(json.dumps(found))"""
_PIN = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to compare one against")
def test_one_cpu_gives_the_bytes_of_all_cpus(generated_sets):
    paths = list(generated_sets.values())
    # the pinned child sets its own mask first, before numpy starts a thread
    children = [subprocess.Popen([sys.executable, "-c", pin + _CHILD, *paths], env=ENV,
                                 stdout=subprocess.PIPE) for pin in ("", _PIN)]
    every, one = (json.loads(child.communicate(timeout=300)[0]) for child in children)
    assert every.pop("cpus") > 1 and one.pop("cpus") == 1
    assert one == every
    assert all(every[f"warm {n}"] == every[f"cold {n}"] for n in (1000, 5000))
    # the two sites coincide, the rounded points do not
    assert [json.loads(every[path])["input"]["duplicate_points"]
            for path in paths[2:]] == [True, False]
