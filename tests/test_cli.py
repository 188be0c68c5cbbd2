"""End-to-end tests for the command-line front end."""

import dataclasses
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from momentcurve import ExpSumSpec, SweepConfig, build_group_table, coeffs_for, verify_envelope
from momentcurve import cli
from momentcurve.cli import SWEEP_KEYS, main
import momentcurve
from momentcurve.records import format_cell

ROOT = Path(__file__).resolve().parents[1]


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
            if method == "brute":
                assert record["detail"] == {"matched_pairs": 28, "abs_imag": 0.0}

    def test_validation_exit_2(self, tmp_path):
        assert main(["moment", "--N", "5", "--s", "0", "--out", str(tmp_path)]) == 2
        assert main(["moment", "--N", "5", "--s", "2", "--p", "4.0",
                     "--out", str(tmp_path)]) == 2
        for bad in ("nan", "inf"):
            assert main(["moment", "--N", "4", "--s", "2", "--method", "quad",
                         "--oversample", bad, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["--budget-tuples", "0"], ["--method", "brute", "--budget-tuples", "0"],
         ["--method", "quad", "--budget-cells", "0"]],
        ids=["exact-tuples", "brute-tuples", "quad-cells"],
    )
    def test_zero_budget_exit_2(self, tmp_path, argv):
        # A written zero is a budget nothing fits, not "use the default".
        assert main(["moment", "--N", "4", "--s", "2", *argv, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "argv",
        [["--budget-cells", "10"], ["--method", "brute", "--budget-cells", "10"],
         ["--method", "quad", "--budget-tuples", "10"]],
        ids=["exact-cells", "brute-cells", "quad-tuples"],
    )
    def test_budget_of_another_method_exit_2(self, tmp_path, argv):
        # The method would ignore it, yet it would enter the config digest.
        assert main(["moment", "--N", "4", "--s", "2", *argv, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("family", ["random_phase", "constant"])
    def test_negative_seed_exit_2(self, tmp_path, family):
        # random_phase used to raise ValueError and exit 1; constant ignored the seed.
        assert main(["moment", "--N", "5", "--s", "2", "--coeffs", family, "--seed", "-7",
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("p", ["nan", "inf", "0", "-2"])
    def test_quad_power_out_of_range_exit_2(self, tmp_path, p):
        # nan and inf used to print value=nan / value=inf and exit 0.
        assert main(["moment", "--N", "4", "--s", "2", "--method", "quad", f"--p={p}",
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "results").exists()

    def test_quad_power_past_float64_exit_2(self, tmp_path):
        # |S|^2000 integrates to about 4^2000; it used to print value=inf
        # err=nan and exit 0.
        assert main(["moment", "--N", "4", "--s", "2", "--method", "quad", "--p", "2000",
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "results").exists()

    def test_quad_large_power_keeps_its_value(self, tmp_path):
        # 4^500 times the grid stays inside float64, so the unscaled path runs.
        # The grid sums to 9.526047767054422e+296 at 40 digits; p = 500 makes
        # the float64 value (fold 8: the slab x1 < 1/4, x2 < 1/2) 6.6e-15
        # relative from it. With phase rows that drifted off the unit circle
        # it was 6.9e-13 (quarter box) and 9.8e-13 (fold 8).
        assert main(["moment", "--N", "4", "--s", "2", "--method", "quad", "--p", "500",
                     "--out", str(tmp_path)]) == 0
        record = read_only_json(tmp_path / "results", "moment-*.json")
        assert record["value"] == 9.526047767054485e+296

    def test_quad_huge_h0_matches_exact(self, tmp_path):
        for method in ("exact", "quad"):
            out = tmp_path / method
            rc = main(["moment", "--N", "4", "--s", "2", "--method", method,
                       "--h0", "1e308", "--out", str(out)])
            assert rc == 0
            record = read_only_json(out / "results", "moment-*.json")
            assert record["value"] == pytest.approx(28.0, rel=1e-3)
            if method == "brute":
                assert record["detail"] == {"matched_pairs": 28, "abs_imag": 0.0}

    def test_budget_exit_3(self, tmp_path):
        rc = main(["moment", "--N", "50", "--s", "4", "--budget-tuples", "1000",
                   "--out", str(tmp_path)])
        assert rc == 3
        # A huge oversample asks for an infinite grid: over budget, not an overflow.
        assert main(["moment", "--N", "4", "--s", "2", "--method", "quad",
                     "--oversample", "1e308", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "message, line",
        [("Unable to allocate 2.90 GiB", "Unable to allocate 2.90 GiB"), ("", "an allocation failed")],
    )
    def test_out_of_memory_exit_3(self, tmp_path, monkeypatch, capsys, message, line):
        # A failed allocation is a resource failure like a budget exceeded,
        # not a geometry violation (exit 1), and it writes no record.
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "moment_exact", no_memory)
        rc = main(["moment", "--N", "584", "--s", "3", "--sigma", "1", "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == f"out of memory: {line}\n"
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("family, mirrored", [("constant", True), ("random_sign", False)])
    def test_record_states_the_table_built(self, tmp_path, family, mirrored):
        # Constant coefficients are palindromic: the record describes the
        # half table. random_sign draws are not, and build the whole one.
        rc = main(["moment", "--N", "11", "--s", "3", "--sigma", "1.0", "--coeffs", family,
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        detail = read_only_json(tmp_path / "results", "moment-*.json")["detail"]
        spec = ExpSumSpec(n=11, coeffs=coeffs_for(family, 11, 3))
        table = build_group_table(spec, 3, mirrored=mirrored)
        full = build_group_table(spec, 3)
        assert detail["mirrored"] is mirrored
        assert detail["table_entries"] == table.n_entries
        assert detail["table_bytes"] == table.keys.nbytes + table.coeffs.nbytes
        assert detail["n_tuples"] == 11**3
        if mirrored:
            # The full table holds each group below the middle twice.
            assert table.n_entries < full.n_entries < 2 * table.n_entries
        else:
            assert table.n_entries == full.n_entries

    def test_record_states_the_window_spectrum(self, tmp_path):
        # sigma > 0 exact records give the spectrum's bins and distinct d in
        # their JSON detail; sweep tables keep their columns.
        rc = main(["moment", "--N", "11", "--s", "3", "--sigma", "1.0", "--coeffs",
                   "random_phase", "--seed", "3", "--out", str(tmp_path / "a")])
        assert rc == 0
        detail = read_only_json(tmp_path / "a" / "results", "moment-*.json")["detail"]
        assert detail["spectrum_bins"] > detail["distinct_d"] > 0
        assert main(["moment", "--N", "11", "--s", "3", "--out", str(tmp_path / "b")]) == 0
        flat = read_only_json(tmp_path / "b" / "results", "moment-*.json")["detail"]
        assert "spectrum_bins" not in flat and "distinct_d" not in flat
        cfg = write_config(tmp_path / "w.ini", """
[sweep]
kind = mainexp
x_values = 6, 8, 10
family = random_phase
seeds = 1
sigma = 1.0
s = 3
""")
        assert main(["sweep", cfg, "--out", str(tmp_path / "c")]) == 0
        (table,) = sorted((tmp_path / "c" / "tables").glob("*.csv"))
        header = table.read_text().split("\n")[0]
        assert header == "N,value,envelope,seed_count,method,err_estimate"

    def test_manifest_records_output_digest(self, tmp_path):
        main(["moment", "--N", "5", "--s", "2", "--out", str(tmp_path)])
        manifest = read_only_json(tmp_path / "manifests", "2*.json")
        (entry,) = manifest["outputs"]
        # The digest the writer returned is that of the bytes on disk.
        assert hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest() == entry["sha256"]
        record = json.loads(open(entry["path"]).read())
        assert record["manifest"] == manifest["run_id"]
        index = (tmp_path / "manifests" / "index.jsonl").read_text().strip()
        assert json.loads(index)["run_id"] == manifest["run_id"]


    def test_manifest_version_is_pyprojects(self, tmp_path):
        # pyproject.toml takes its version from momentcurve.__version__, so a
        # run from a checkout, with no installed metadata, records it too.
        pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^dynamic = \["version"\]$', pyproject, re.M)
        assert re.search(r'^version = \{attr = "momentcurve.__version__"\}$', pyproject, re.M)
        main(["moment", "--N", "5", "--s", "2", "--out", str(tmp_path)])
        manifest = read_only_json(tmp_path / "manifests", "2*.json")
        assert manifest["version"] == momentcurve.__version__ == "0.1.0"

    def test_sweep_manifest_digests_match_files(self, tmp_path):
        cfg = write_config(tmp_path / "s.ini", """
[sweep]
kind = mainexp
x_values = 4, 8, 16
sigma = 1.0
s = 2
""")
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == 0
        manifest = read_only_json(tmp_path / "manifests", "2*.json")
        assert len(manifest["outputs"]) == 2
        for entry in manifest["outputs"]:
            assert hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest() == entry["sha256"]


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

    @pytest.mark.parametrize(
        ("oversample", "code"), [("0.5", 2), ("nan", 2), ("inf", 2), ("1e308", 3)]
    )
    def test_maincor_oversample_out_of_range(self, tmp_path, oversample, code):
        # Below 1 the grid is under-Nyquist; nan and inf are no grid at all.
        cfg = write_config(tmp_path / "over.ini", f"""
[sweep]
kind = maincor
x_values = 16 32 64
family = random_sign
p = 4
beta = 0.5
oversample = {oversample}
""")
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == code

    @pytest.mark.parametrize("line", ["sigam = 2.0", "n_seeds = 3"], ids=["sigam", "n_seeds"])
    def test_unknown_key_exit_2(self, tmp_path, line, capsys):
        cfg = write_config(tmp_path / "typo.ini", f"""
[sweep]
kind = mainexp
x_values = 8 16 32
s = 2
{line}
""")
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        ("kind", "line"),
        [
            ("maincor", "s = 9"),
            ("maincor", "sigma = 1.5"),
            ("maincor", "h0 = 0.3"),
            ("maincor", "h0_policy = random"),
            ("maincor", "budget_tuples = 1000"),
            ("mainexp", "p = 4"),
            ("mainexp", "beta = 0.5"),
            ("mainexp", "oversample = 8"),
        ],
        ids=lambda v: v.split()[0],
    )
    def test_key_of_other_kind_exit_2(self, tmp_path, kind, line, capsys):
        # Such a key used to be ignored while still changing the digest.
        own = "p = 4\nbeta = 0.5" if kind == "maincor" else "s = 2"
        cfg = write_config(tmp_path / "other.ini", f"""
[sweep]
kind = {kind}
x_values = 16 32 64
{own}
{line}
""")
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert line.split()[0] in err and kind in err
        assert not (tmp_path / "results").exists()

    def test_h0_under_random_policy_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "h0.ini", """
[sweep]
kind = mainexp
x_values = 8 16 32
s = 2
h0_policy = random
h0 = 0.3
""")
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == 2
        assert "h0" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "line", ["budget_tuples = 0", "budget_tuples = -5"], ids=["zero", "negative"]
    )
    def test_nonpositive_budget_exit_2(self, tmp_path, line):
        # N=64, s=4 fits the default budget: only the check of the written value stops it.
        cfg = write_config(tmp_path / "zero.ini", f"""
[sweep]
kind = mainexp
x_values = 4 8 64
s = 4
{line}
""")
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "body",
        [
            "kind = mainexp\ns = 2\nx_values = 8 16 32\ntolerance = inf",
            "kind = mainexp\ns = 2\nx_values = 8 16 32\ntolerance = nan",
            "kind = mainexp\ns = 2\nx_values = 8 16 32\nfamily = random_sign\nseeds = -1",
            "kind = maincor\np = nan\nbeta = 0.5\nx_values = 16 32 64",
            "kind = maincor\np = 4\nbeta = 0.5\nx_values = 0, 1, 2",
        ],
        ids=["tolerance_inf", "tolerance_nan", "seed_negative", "p_nan", "x_zero"],
    )
    def test_bad_value_exit_2_before_any_row(self, tmp_path, body):
        # Each used to run rows: tolerance = inf passed any slope, nan failed
        # every one, p = nan stopped inside the first row, and a negative seed
        # or R = 0 raised (exit 1).
        cfg = write_config(tmp_path / "bad.ini", "[sweep]\n" + body + "\n")
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_exit_2(self, tmp_path, workers):
        cfg = write_config(tmp_path / "ok.ini", "[sweep]\nx_values = 4 8 16\ns = 2\n")
        assert main(["sweep", cfg, "--workers", workers, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "results").exists()

    def test_every_key_is_a_config_field(self):
        assert set(SWEEP_KEYS) == {f.name for f in dataclasses.fields(SweepConfig)}

    @pytest.mark.parametrize(
        ("text", "cfg"),
        [
            ("kind = mainexp\nx_values = 8, 16, 32\nfamily = random_phase\n"
             "seeds = 2 3\nsigma = 1.5\ns = 2\nh0_policy = random\n",
             SweepConfig(x_values=(8, 16, 32), family="random_phase", seeds=(2, 3),
                         sigma=1.5, s=2, h0_policy="random")),
            ("kind = maincor\nx_values = 16 32 64\nfamily = random_sign\n"
             "seeds = 4\np = 4\nbeta = 0.5\n",
             SweepConfig(x_values=(16, 32, 64), kind="maincor", family="random_sign",
                         seeds=(4,), p=4.0, beta=0.5)),
        ],
        ids=["mainexp", "maincor"],
    )
    def test_library_rows_match_cli_table(self, tmp_path, text, cfg):
        path = write_config(tmp_path / "same.ini", "[sweep]\n" + text)
        assert main(["sweep", path, "--out", str(tmp_path)]) == 0
        (table,) = sorted((tmp_path / "tables").glob("*.csv"))
        report = verify_envelope(cfg)
        expected = [
            ",".join(format_cell(c) for c in (r.x, r.value, r.envelope, r.seed_count,
                                              r.method, r.err_estimate))
            for r in report.rows
        ]
        assert table.read_text().splitlines()[1:] == expected
        summary = read_only_json(tmp_path / "results", "sweep-*-fit.json")
        assert summary["config"] == json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert summary["target"] == report.target

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

    def test_out_of_memory_exit_3_flushes_failed_manifest(self, tmp_path, monkeypatch, capsys):
        # As a budget exceeded: the rows done so far are flushed, the
        # manifest says failed, and stderr names the failure.
        cfg = write_config(tmp_path / "tiny.ini", """
[sweep]
kind = mainexp
x_values = 4 8 64
s = 2
""")
        row = cli.mainexp_row

        def row_or_no_memory(cfg, x):
            if x == 64:
                raise MemoryError("Unable to allocate 2.90 GiB")
            return row(cfg, x)

        monkeypatch.setattr(cli, "mainexp_row", row_or_no_memory)
        assert main(["sweep", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "out of memory: Unable to allocate 2.90 GiB\n"
        manifest = read_only_json(tmp_path / "manifests", "2*.json")
        assert manifest["status"] == "failed"
        (table,) = sorted((tmp_path / "tables").glob("*.csv"))
        assert len(table.read_text().strip().splitlines()) == 3
        assert not list((tmp_path / "results").glob("sweep-*-fit.json"))


class TestGeometryCommand:
    def test_geo1_defaults_exit_0(self, tmp_path):
        rc = main(["geometry", "geo1", "--samples", "1500", "--out", str(tmp_path)])
        assert rc == 0
        report = read_only_json(tmp_path / "results", "geometry-geo1-*.json")
        assert report["violations"] == 0
        assert report["payload"]["report"]["far_pairs_checked"] > 0

    def test_geo1_huge_r_next_exit_0(self, tmp_path):
        # The near window covers every index, so there are no far probes.
        rc = main(["geometry", "geo1", "--r-k", "256", "--r-next", "1e308",
                   "--samples", "500", "--out", str(tmp_path)])
        assert rc == 0
        report = read_only_json(tmp_path / "results", "geometry-geo1-*.json")
        assert report["payload"]["report"]["far_pairs_checked"] == 0

    @pytest.mark.parametrize("r_k, rc", [("9007199254740992", 0), ("9007199254740994", 2)])
    def test_geo1_index_resolution_bound(self, tmp_path, r_k, rc):
        # r_k = 2^53 is the largest whose neighbouring l'/r_k are distinct
        # floats; the next float up is refused as a validation error.
        argv = ["geometry", "geo1", "--r-k", r_k, "--r-next", str(2 * int(r_k)),
                "--R", str(2**60), "--samples", "64", "--out", str(tmp_path)]
        assert main(argv) == rc
        if rc == 0:
            report = read_only_json(tmp_path / "results", "geometry-geo1-*.json")
            assert report["violations"] == 0

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

    @pytest.mark.parametrize("case, r_k", [("2", "2048"), ("1", "256")])
    def test_geo2_scales_of_the_other_case_exit_2(self, tmp_path, capsys, case, r_k):
        # At R = 2^20, r_k = 2048 >= sqrt(R) is case 1 and r_k = 256 case 2:
        # the report would be filed under the case that was not run.
        argv = ["geometry", "geo2", "--case", case, "--r-k", r_k,
                "--r-next", str(2 * int(r_k)), "--samples", "50", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"--case {case} asked" in err and f"is case {'1' if case == '2' else '2'}" in err
        assert not list(tmp_path.glob("results/geometry-geo2-*.json"))


    @pytest.mark.parametrize(
        "argv",
        [
            ["geo1", "--samples", "0"],
            ["geo2", "--samples", "0"],
            ["geo3", "--samples", "0"],
            ["rescale", "--samples", "0"],
            ["partition", "--samples", "0"],
            ["broad-narrow", "--samples", "0"],
            ["geo1", "--r-k", "0.5", "--r-next", "1"],
            # Out-of-range numbers are validation failures, not tracebacks.
            ["geo2", "--r", "0"],
            ["geo2", "--r", "-4"],
            ["geo3", "--r", "0"],
            ["geo1", "--R", "0"],
            ["geo2", "--R", "0"],
            ["geo3", "--R", "0"],
            ["geo1", "--R", "nan"],
            ["geo3", "--c-eps", "0"],
            ["geo3", "--r-k", "512", "--r-next", "nan"],
            ["broad-narrow", "--e-sep", "nan"],
            ["geo1", "--c-eps", "nan"],
            ["geo2", "--c-eps", "inf"],
            ["geo1", "--r-k", "256", "--r-next", "inf"],
            ["geo2", "--case", "2", "--r-k", "0", "--r-next", "512"],
            ["rescale", "--r-prev", "inf"],
            ["geo1", "--beta", "nan"],
            ["geo2", "--beta", "inf"],
            ["partition", "--R", "1e308"],
            # R^(-2 beta) = 1e-18 is below float64 resolution; this used to
            # report about 100 false violations and exit 1.
            ["partition", "--R", "1e9", "--beta", "1.0"],
            ["rescale", "--R", "1e9", "--beta", "1.0"],
            ["geo3", "--c-eps", "1e308"],
            # The default ladder scale at this R has more indices than int64 holds.
            ["geo1", "--R", "1e300"],
            ["geo2", "--R", "1e300"],
            # numpy generators take no negative seed; this used to exit 1.
            ["geo1", "--seed", "-2", "--samples", "100"],
        ],
        ids=["geo1", "geo2", "geo3", "rescale", "partition", "broad-narrow", "geo1-r_k",
             "geo2-r_zero", "geo2-r_negative", "geo3-r_zero", "geo1-R_zero", "geo2-R_zero",
             "geo3-R_zero", "geo1-R_nan", "geo3-c_eps_zero", "geo3-r_next_nan",
             "broad-narrow-e_sep_nan", "geo1-c_eps_nan", "geo2-c_eps_inf",
             "geo1-r_next_inf", "geo2-r_k_zero", "rescale-r_prev_inf", "geo1-beta_nan",
             "geo2-beta_inf", "partition-R_huge", "partition-R_unresolved",
             "rescale-R_unresolved", "geo3-c_eps_huge", "geo1-R_1e300",
             "geo2-R_1e300", "geo1-seed_negative"],
    )
    def test_bad_argument_exit_2(self, tmp_path, argv):
        assert main(["geometry", *argv, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "results").exists()


class TestEntrypoint:
    def test_module_invocation(self, tmp_path, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "momentcurve.cli", "moment", "--N", "3",
             "--s", "2", "--out", str(tmp_path)],
            env=child_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "value=15" in proc.stdout

    def test_geometry_commands_skip_numpy_ma_and_metadata(self, tmp_path, child_env):
        # A fresh process running geo1 and geo2 imports neither numpy.ma
        # (np.unique's first call does) nor importlib.metadata (a version
        # lookup of installed distributions).
        code = (
            "import sys\n"
            "from momentcurve.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "for check in ('geo1', 'geo2'):\n"
            "    assert main(['geometry', check, '--samples', '500', '--out', out]) == 0\n"
            "print(sorted(m for m in ('numpy.ma', 'importlib.metadata') if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_usage_error_is_exit_2(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "momentcurve.cli", "unknown-command"],
            env=child_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2

    def test_one_parser_serves_every_command_of_a_process(self, tmp_path, monkeypatch):
        # After a usage error (exit 2) the kept parser reads the next argv as a
        # fresh one does: same result bodies, bar the run id and wall time.
        fresh_parser = cli.build_parser
        built = []

        def counting_build_parser():
            built.append(1)
            return fresh_parser()

        def body(out, pattern):
            record = read_only_json(out / "results", pattern)
            del record["manifest"], record["wall_time_s"]
            return json.dumps(record, sort_keys=True).encode()

        commands = [
            ("geometry", ["geometry", "partition", "--samples", "2000"], "geometry-partition-*.json"),
            ("moment", ["moment", "--N", "8", "--s", "2"], "moment-*.json"),
        ]
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._shared_parser.cache_clear()
        try:
            with pytest.raises(SystemExit) as exc:
                main(["geometry", "no-such-check"])
            assert exc.value.code == 2
            kept = {}
            for name, argv, pattern in commands:
                assert main([*argv, "--out", str(tmp_path / "kept" / name)]) == 0
                kept[name] = body(tmp_path / "kept" / name, pattern)
            assert len(built) == 1
        finally:
            cli._shared_parser.cache_clear()

        monkeypatch.setattr(cli, "_shared_parser", fresh_parser)
        for name, argv, pattern in commands:
            assert main([*argv, "--out", str(tmp_path / "fresh" / name)]) == 0
            assert body(tmp_path / "fresh" / name, pattern) == kept[name]
