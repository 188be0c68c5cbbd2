"""End-to-end tests for the command-line front end."""

import json
import subprocess
import sys

import pytest

from momentcurve.cli import main
from momentcurve.records import sha256_file


def write_config(path, body):
    path.write_text(body, encoding="utf-8")
    return str(path)


def read_only_json(dirpath, pattern):
    hits = sorted(dirpath.glob(pattern))
    assert len(hits) == 1, f"expected one {pattern}, found {hits}"
    return json.loads(hits[0].read_text())


class TestMomentCommand:
    def test_exact_value_45(self, tmp_path):
        rc = main(["moment", "--N", "5", "--s", "2", "--out", str(tmp_path)])
        assert rc == 0
        record = read_only_json(tmp_path / "results", "moment-*.json")
        assert record["value"] == pytest.approx(45.0)
        assert record["method"] == "exact"
        assert record["config"]["N"] == 5

    def test_single_frequency_window_length(self, tmp_path):
        rc = main(["moment", "--N", "1", "--s", "3", "--sigma", "2.0",
                   "--out", str(tmp_path)])
        assert rc == 0
        record = read_only_json(tmp_path / "results", "moment-*.json")
        assert record["value"] == pytest.approx(1.0)

    def test_random_sign_s1_is_exact_power(self, tmp_path):
        rc = main(["moment", "--N", "8", "--s", "1", "--sigma", "1.0",
                   "--coeffs", "random_sign", "--seed", "7", "--out", str(tmp_path)])
        assert rc == 0
        record = read_only_json(tmp_path / "results", "moment-*.json")
        assert record["value"] == pytest.approx(1.0, rel=1e-12)

    def test_methods_agree(self, tmp_path):
        for method in ("exact", "brute", "quad"):
            out = tmp_path / method
            rc = main(["moment", "--N", "4", "--s", "2", "--method", method,
                       "--out", str(out)])
            assert rc == 0
            record = read_only_json(out / "results", "moment-*.json")
            assert record["value"] == pytest.approx(28.0, rel=1e-3)

    def test_validation_exit_2(self, tmp_path):
        assert main(["moment", "--N", "5", "--s", "0", "--out", str(tmp_path)]) == 2
        assert main(["moment", "--N", "5", "--s", "2", "--p", "4.0",
                     "--out", str(tmp_path)]) == 2

    def test_budget_exit_3(self, tmp_path):
        rc = main(["moment", "--N", "50", "--s", "4", "--budget-tuples", "1000",
                   "--out", str(tmp_path)])
        assert rc == 3

    def test_manifest_records_output_digest(self, tmp_path):
        main(["moment", "--N", "5", "--s", "2", "--out", str(tmp_path)])
        manifest = read_only_json(tmp_path / "manifests", "2*.json")
        (entry,) = manifest["outputs"]
        assert sha256_file(entry["path"]) == entry["sha256"]
        record = json.loads(open(entry["path"]).read())
        assert record["manifest"] == manifest["run_id"]
        index = (tmp_path / "manifests" / "index.jsonl").read_text().strip()
        assert json.loads(index)["run_id"] == manifest["run_id"]


class TestSweepCommand:
    def test_mainexp_sweep_table_and_fit(self, tmp_path):
        cfg = write_config(tmp_path / "main.ini", """
[sweep]
kind = mainexp
x_values = 8, 16, 32
family = random_sign
seeds = 1 2 3
sigma = 1.0
s = 1
tolerance = 1e-6
""")
        rc = main(["sweep", cfg, "--out", str(tmp_path), "--workers", "2"])
        assert rc == 0
        summary = read_only_json(tmp_path / "results", "sweep-mainexp-*-fit.json")
        assert summary["verdict"] == "PASS"
        assert summary["slope"] == pytest.approx(0.0, abs=1e-6)
        csv = sorted((tmp_path / "tables").glob("*.csv"))[0].read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == "N,value,envelope,seed_count,method,err_estimate"
        assert len(lines) == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "re.ini", """
[sweep]
kind = mainexp
x_values = 8 16 32
family = random_sign
seeds = 4 5
sigma = 0.0
s = 2
""")
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == 0
        (table,) = sorted((tmp_path / "tables").glob("*.csv"))
        first = table.read_bytes()
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == 0
        assert table.read_bytes() == first
        # Two manifests, append-only index.
        index_lines = (tmp_path / "manifests" / "index.jsonl").read_text().splitlines()
        assert len(index_lines) == 2

    def test_two_point_grid_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "bad.ini", """
[sweep]
kind = mainexp
x_values = 8 16
s = 2
""")
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["sweep", str(tmp_path / "none.ini"), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line", ["seeds = 1 x", "sigma = abc"], ids=["seeds", "sigma"])
    def test_bad_number_exit_2(self, tmp_path, line):
        cfg = write_config(tmp_path / "bad.ini", f"""
[sweep]
kind = mainexp
x_values = 8 16 32
s = 2
{line}
""")
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text",
        ["x_values = 1\n", "[sweep]\nx_values = 8 16 32\ns = 2\ns = 3\n"],
        ids=["no_section_header", "duplicate_key"],
    )
    def test_malformed_ini_exit_2(self, tmp_path, text):
        cfg = write_config(tmp_path / "bad.ini", text)
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_budget_exit_3_flushes_failed_manifest(self, tmp_path, workers):
        cfg = write_config(tmp_path / "tiny.ini", """
[sweep]
kind = mainexp
x_values = 4 8 64
s = 4
budget_tuples = 100000
""")
        assert main(["sweep", cfg, "--out", str(tmp_path), "--workers", workers]) == 3
        manifest = read_only_json(tmp_path / "manifests", "2*.json")
        assert manifest["status"] == "failed"
        # The first two points fit the budget and were flushed.
        (table,) = sorted((tmp_path / "tables").glob("*.csv"))
        assert len(table.read_text().strip().splitlines()) == 3


class TestGeometryCommand:
    def test_geo1_defaults_exit_0(self, tmp_path):
        rc = main(["geometry", "geo1", "--samples", "1500", "--out", str(tmp_path)])
        assert rc == 0
        report = read_only_json(tmp_path / "results", "geometry-geo1-*.json")
        assert report["violations"] == 0
        assert report["payload"]["report"]["far_pairs_checked"] > 0

    def test_alias_maps_to_geo1(self, tmp_path):
        rc = main(["geometry", "overlap", "--samples", "500", "--out", str(tmp_path)])
        assert rc == 0
        assert list((tmp_path / "results").glob("geometry-geo1-*.json"))

    def test_geo2_both_cases(self, tmp_path):
        rc = main(["geometry", "geo2", "--samples", "800", "--out", str(tmp_path)])
        assert rc == 0
        report = read_only_json(tmp_path / "results", "geometry-geo2-*.json")
        assert set(report["payload"]) == {"case1", "case2"}

    def test_geo2_low_beta_runs_case2_only(self, tmp_path):
        rc = main(["geometry", "geo2", "--beta", "0.4", "--samples", "500",
                   "--out", str(tmp_path)])
        assert rc == 0
        report = read_only_json(tmp_path / "results", "geometry-geo2-*.json")
        assert set(report["payload"]) == {"case2"}

    def test_geo3_and_rescale_and_partition(self, tmp_path):
        for check in ("geo3", "rescale", "partition"):
            out = tmp_path / check
            rc = main(["geometry", check, "--samples", "1000", "--out", str(out)])
            assert rc == 0, check

    def test_broad_narrow_exit_0(self, tmp_path):
        rc = main(["geometry", "broad-narrow", "--N", "64", "--bands", "16",
                   "--e-sep", "2", "--samples", "1500", "--out", str(tmp_path)])
        assert rc == 0
        report = read_only_json(tmp_path / "results", "geometry-broad-narrow-*.json")
        assert report["payload"]["report"]["max_ratio"] <= 1.0

    def test_validation_exit_2(self, tmp_path):
        assert main(["geometry", "partition", "--beta", "0.2",
                     "--out", str(tmp_path)]) == 2
        assert main(["geometry", "geo2", "--case", "both", "--r-k", "1024",
                     "--r-next", "2048", "--out", str(tmp_path)]) == 2


class TestEntrypoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "momentcurve.cli", "moment", "--N", "3",
             "--s", "2", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "value=15" in proc.stdout

    def test_usage_error_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "momentcurve.cli", "unknown-command"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
