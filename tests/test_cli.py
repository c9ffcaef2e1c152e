import pytest

from dphist import cli
from dphist.cli import main
from dphist.grid import load_matrix, load_points
from dphist.histogram import PrivateHistogram
from dphist.queries import WorkloadSpec, generate_workload, save_workload


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def matrix_file(tmp_path):
    run(["generate", "--out", tmp_path / "pts.txt", "--n", 5000, "--sigma", 8,
         "--grid", 32, "--seed", 4])
    run(["ingest", "--points", tmp_path / "pts.txt", "--grid", 32,
         "--out", tmp_path / "matrix.txt"])
    return tmp_path / "matrix.txt"


class TestGenerate:
    def test_writes_points(self, tmp_path):
        out = tmp_path / "pts.txt"
        assert run(["generate", "--out", out, "--n", 100, "--sigma", 5, "--grid", 16, "--seed", 1]) == 0
        assert len(load_points(out)) == 100

    def test_empty_dataset_keeps_header(self, tmp_path):
        out = tmp_path / "pts.txt"
        assert run(["generate", "--out", out, "--n", 0, "--sigma", 5, "--grid", 16]) == 0
        assert out.read_text().startswith("#")
        assert len(load_points(out)) == 0

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf"])
    def test_bad_sigma_exits_2_naming_it(self, tmp_path, capsys, sigma):
        out = tmp_path / "pts.txt"
        assert run(["generate", "--out", out, "--n", 10, "--sigma", sigma, "--grid", 16]) == 2
        assert "sigma must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_sigma_clamps_every_point_without_a_warning(self, tmp_path, capsys):
        # every draw times 1e308 overflows to +-inf, is redrawn 100 times and then clamped to a grid corner
        out = tmp_path / "pts.txt"
        assert run(["generate", "--out", out, "--n", 50, "--grid", 4, "--sigma", 1e308, "--seed", 1]) == 0
        assert capsys.readouterr().err == ""
        pts = load_points(out)
        assert len(pts) == 50 and set(pts.ravel().tolist()) <= {0.0, 3.999999996}

    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys):
        out = tmp_path / "pts.txt"
        assert run(["generate", "--out", out, "--n", 10, "--grid", 8, "--seed", -1]) == 2
        assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_config_seed_exits_2_naming_the_flag(self, tmp_path, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "pts.txt"
        cfg.write_text("seed=-4\n")
        assert run(["generate", "--config", cfg, "--out", out, "--n", 10, "--grid", 8]) == 2
        assert "argument --seed: expected a non-negative integer, got '-4'" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(["generate", "--out", a, "--n", 500, "--sigma", 9, "--grid", 64, "--seed", 3])
        run(["generate", "--out", b, "--n", 500, "--sigma", 9, "--grid", 64, "--seed", 3])
        assert a.read_bytes() == b.read_bytes()


    def test_stragglers_clamped_inside_the_grid_are_ingested(self, tmp_path, capsys):
        # sigma far above the grid: points still outside after the redraws are clamped to the far edges
        pts, out = tmp_path / "pts.txt", tmp_path / "m.txt"
        assert run(["generate", "--out", pts, "--n", 100, "--grid", 8, "--sigma", 50, "--seed", 0]) == 0
        assert run(["ingest", "--points", pts, "--grid", 8, "--out", out]) == 0
        assert "rejected=0" in capsys.readouterr().out
        assert load_matrix(out).total == 100

    @pytest.mark.parametrize("cols", ["0", "-3"])
    def test_bad_grid_cols_exits_2(self, tmp_path, capsys, cols):
        out = tmp_path / "pts.txt"
        assert run(["generate", "--out", out, "--n", 10, "--grid", 8, "--grid-cols", cols]) == 2
        assert "grid dimensions must be positive" in capsys.readouterr().err
        assert not out.exists()


class TestIngest:
    @pytest.mark.parametrize("cols", ["0", "-3"])
    def test_bad_grid_cols_exits_2(self, tmp_path, capsys, cols):
        pts, out = tmp_path / "pts.txt", tmp_path / "m.txt"
        run(["generate", "--out", pts, "--n", 10, "--grid", 8])
        assert run(["ingest", "--points", pts, "--grid", 8, "--grid-cols", cols, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_matrix_total(self, tmp_path, matrix_file):
        matrix = load_matrix(matrix_file)
        assert matrix.total == 5000
        assert matrix.shape == (32, 32)

    def test_custom_bounds_reject_outside(self, tmp_path):
        pts = tmp_path / "p.txt"
        pts.write_text("0.5,0.5\n5.0,5.0\n")
        out = tmp_path / "m.txt"
        assert run(["ingest", "--points", pts, "--grid", 4, "--bounds", "0,1,0,1", "--out", out]) == 0
        assert load_matrix(out).total == 1


class TestRelease:
    def test_htf_release_writes_outputs(self, tmp_path, matrix_file):
        out = tmp_path / "hist.txt"
        code = run(["release", "--matrix", matrix_file, "--method", "htf",
                    "--eps-total", 0.5, "--eps-partition-level", 5e-4,
                    "--eps-height", 1e-4, "--T", 3, "--stop-count", 20,
                    "--stop-cells", 5, "--seed", 2, "--out", out])
        assert code == 0
        hist = PrivateHistogram.load(out)
        hist.validate_cover()
        assert (tmp_path / "hist.txt.ledger.csv").exists()

    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys, matrix_file):
        out = tmp_path / "hist.txt"
        assert run(["release", "--matrix", matrix_file, "--method", "ug", "--seed", -1, "--out", out]) == 2
        assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not out.exists()

    def test_all_methods_run(self, tmp_path, matrix_file):
        for method in ("ug", "ag", "quadtree", "kdtree", "singular", "uniform"):
            out = tmp_path / f"{method}.txt"
            code = run(["release", "--matrix", matrix_file, "--method", method,
                        "--eps-total", 0.4, "--height", 3, "--seed", 1, "--out", out])
            assert code == 0, method
            PrivateHistogram.load(out).validate_cover()

    def test_invalid_budget_exits_2_without_outputs(self, tmp_path, matrix_file):
        out = tmp_path / "hist.txt"
        code = run(["release", "--matrix", matrix_file, "--method", "htf",
                    "--eps-total", 0.001, "--eps-partition-level", 1e-3,
                    "--height", 5, "--out", out])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("method", cli.METHODS)
    def test_bad_eps_total_exits_2_without_outputs(self, tmp_path, matrix_file, capsys, method, eps):
        out = tmp_path / "hist.txt"
        code = run(["release", "--matrix", matrix_file, "--method", method, "--eps-total", eps, "--out", out])
        assert code == 2
        assert "eps_total must be positive and finite" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "hist.txt.ledger.csv").exists()

    def test_nan_stop_count_exits_2_without_outputs(self, tmp_path, matrix_file, capsys):
        out = tmp_path / "hist.txt"
        code = run(["release", "--matrix", matrix_file, "--method", "htf", "--stop-count", "nan",
                    "--eps-total", 0.5, "--out", out])
        assert code == 2
        assert "stop_count must not be NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("c0", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("method", ["ug", "ag"])
    def test_bad_c0_exits_2_naming_it(self, tmp_path, matrix_file, capsys, method, c0):
        out = tmp_path / "hist.txt"
        assert run(["release", "--matrix", matrix_file, "--method", method, "--c0", c0, "--out", out]) == 2
        assert "c0 must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["quadtree", "kdtree"])
    def test_height_zero_exits_2_without_outputs(self, tmp_path, matrix_file, capsys, method):
        out = tmp_path / "hist.txt"
        code = run(["release", "--matrix", matrix_file, "--method", method,
                    "--eps-total", 0.4, "--height", 0, "--out", out])
        assert code == 2
        assert "height must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", cli.METHODS)
    def test_matrix_past_int64_exits_2(self, tmp_path, capsys, method):
        # four cells of 2^62: an int64 total wraps to 0, which the header states
        matrix = tmp_path / "matrix.txt"
        matrix.write_text("2 2 0\n" + f"{2**62} {2**62}\n" * 2)
        out = tmp_path / "hist.txt"
        assert run(["release", "--matrix", matrix, "--method", method, "--eps-total", 0.5, "--out", out]) == 2
        assert "2^63" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_matrix_exits_3(self, tmp_path):
        code = run(["release", "--matrix", tmp_path / "nope.txt", "--out", tmp_path / "h.txt"])
        assert code == 3

    def test_clamp_flag(self, tmp_path, matrix_file):
        out = tmp_path / "hist.txt"
        run(["release", "--matrix", matrix_file, "--method", "singular",
             "--eps-total", 0.1, "--seed", 5, "--out", out, "--clamp-nonnegative"])
        hist = PrivateHistogram.load(out)
        assert (hist.ncounts >= 0).all()

    @pytest.mark.parametrize("key, value", [("smooth", "off"), ("stop_cout", "5")])
    def test_config_bad_key_exits_2_naming_it(self, tmp_path, matrix_file, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        out = tmp_path / "hist.txt"
        assert run(["release", "--config", cfg, "--matrix", matrix_file, "--out", out]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_config_switches_match_flags(self, tmp_path, matrix_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zero_noise=yes\nclamp_nonnegative=TRUE\nsmooth=no\n")
        common = ["--matrix", matrix_file, "--method", "kdtree", "--height", 3]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(["release", "--config", cfg, *common, "--out", a]) == 0
        assert run(["release", "--zero-noise", "--clamp-nonnegative", "--no-smooth", *common, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_abbreviated_flag_overrides_config(self, tmp_path, matrix_file):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("eps_total=0.5\n")
        out = tmp_path / "hist.txt"
        assert run(["release", "--config", cfg, "--matrix", matrix_file, "--eps-t", 0.7, "--out", out]) == 0
        assert PrivateHistogram.load(out).eps_total == 0.7

    def test_abbreviated_switch_overrides_config(self, tmp_path, matrix_file):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("smooth=1\n")
        common = ["--matrix", matrix_file, "--method", "kdtree", "--height", 3]
        abbreviated, full, config = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
        assert run(["release", "--config", cfg, *common, "--no-smo", "--out", abbreviated]) == 0
        assert run(["release", *common, "--no-smooth", "--out", full]) == 0
        assert run(["release", "--config", cfg, *common, "--out", config]) == 0
        assert abbreviated.read_bytes() == full.read_bytes() != config.read_bytes()

    def test_rejected_config_value_exits_2_naming_the_option(self, tmp_path, matrix_file, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("stop_count=abc\n")
        out = tmp_path / "hist.txt"
        assert run(["release", "--config", cfg, "--matrix", matrix_file, "--out", out]) == 2
        assert "--stop-count" in capsys.readouterr().err
        assert not out.exists()

    def test_ambiguous_config_abbreviation_exits_2_naming_the_options(self, tmp_path, matrix_file, capsys):
        # --c could be --config or --c0, so no config file named 5 is opened
        out = tmp_path / "hist.txt"
        assert run(["release", "--matrix", matrix_file, "--c", 5, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "ambiguous option: --c" in err and "--config" in err and "--c0" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--conf", "--co"])
    def test_unique_config_abbreviation_loads_the_config(self, tmp_path, matrix_file, flag):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("eps_total=0.7\n")
        out = tmp_path / "hist.txt"
        assert run(["release", flag, cfg, "--matrix", matrix_file, "--out", out]) == 0
        assert PrivateHistogram.load(out).eps_total == 0.7

    def test_both_structure_budgets_exit_2(self, tmp_path, matrix_file, capsys):
        out = tmp_path / "hist.txt"
        code = run(["release", "--matrix", matrix_file, "--eps-partition", 0.01,
                    "--eps-partition-level", 0.5, "--out", out])
        assert code == 2
        assert "set at most one of eps_partition / eps_partition_level" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["release", "--help"])
        assert exc.value.code == 0
        assert "--eps-total" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path, matrix_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"matrix={matrix_file}\nmethod=htf\neps-total=0.5\nstop-count=20\nseed=9\n"
        )
        out = tmp_path / "hist.txt"
        code = run(["release", "--config", cfg, "--out", out, "--eps-total", "0.6"])
        assert code == 0
        assert PrivateHistogram.load(out).eps_total == pytest.approx(0.6)

    def test_main_builds_one_parser(self, tmp_path, matrix_file, monkeypatch):
        built = []
        original = cli.build_parser

        def counted():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        cfg = tmp_path / "r.cfg"
        cfg.write_text(f"matrix={matrix_file}\n")
        assert run(["release", "--config", cfg, "--out", tmp_path / "hist.txt"]) == 0
        assert built == [1]

    def test_required_flag_from_config_then_missing_exits_2(self, tmp_path, matrix_file, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(f"matrix={matrix_file}\n")
        assert run(["release", "--config", cfg, "--out", tmp_path / "a.txt"]) == 0
        assert PrivateHistogram.load(tmp_path / "a.txt").shape == (32, 32)
        capsys.readouterr()
        assert run(["release", "--out", tmp_path / "b.txt"]) == 2
        assert "--matrix" in capsys.readouterr().err
        assert not (tmp_path / "b.txt").exists()

    @pytest.mark.parametrize("argv", [["--config", "r.cfg"], ["--c", "5"]], ids=["found", "ambiguous"])
    def test_config_lookup_leaves_required_flags_required(self, argv):
        parser = cli.build_parser()
        release = cli._subparsers(parser)["release"]
        try:
            cli._config_path(release, argv)
        except ValueError:
            pass  # --c could be --config or --c0
        assert [a.dest for a in release._actions if a.required] == ["matrix"]
        with pytest.raises(ValueError, match="--matrix"):
            parser.parse_args(["release"])


class TestEvaluate:
    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys, matrix_file):
        hist, report = tmp_path / "hist.txt", tmp_path / "report.csv"
        run(["release", "--matrix", matrix_file, "--method", "ug", "--seed", 1, "--out", hist])
        assert run(["evaluate", "--matrix", matrix_file, "--hist", hist, "--seed", -1, "--out", report]) == 2
        assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
        assert not report.exists()

    def test_report_rows_match_query_count(self, tmp_path, matrix_file):
        hist = tmp_path / "hist.txt"
        run(["release", "--matrix", matrix_file, "--method", "ug",
             "--eps-total", 0.5, "--seed", 1, "--out", hist])
        report = tmp_path / "report.csv"
        code = run(["evaluate", "--matrix", matrix_file, "--hist", hist,
                    "--queries", 50, "--seed", 3, "--out", report])
        assert code == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 52  # header + 50 rows + footer

    def test_config_abbreviation_loads_the_config(self, tmp_path, matrix_file):
        # --c names only --config among evaluate's options
        hist = tmp_path / "hist.txt"
        run(["release", "--matrix", matrix_file, "--method", "ug", "--eps-total", 0.5, "--out", hist])
        cfg = tmp_path / "e.cfg"
        cfg.write_text("queries=7\n")
        report = tmp_path / "report.csv"
        assert run(["evaluate", "--c", cfg, "--matrix", matrix_file, "--hist", hist, "--out", report]) == 0
        assert len(report.read_text().splitlines()) == 9

    def test_workload_file_row_count(self, tmp_path, matrix_file):
        hist = tmp_path / "hist.txt"
        run(["release", "--matrix", matrix_file, "--method", "uniform",
             "--eps-total", 0.5, "--seed", 1, "--out", hist])
        wl = tmp_path / "wl.txt"
        wl.write_text("0 4 0 4\n1 32 1 32\n0 32 0 32\n")
        report = tmp_path / "report.csv"
        assert run(["evaluate", "--matrix", matrix_file, "--hist", hist,
                    "--workload", wl, "--out", report]) == 0
        assert len(report.read_text().splitlines()) == 5

    @pytest.mark.parametrize("shape_args", [[], ["--qshape", "square", "--qsize", 0.05]], ids=["random", "square"])
    def test_generated_workload_reports_as_its_file(self, tmp_path, matrix_file, shape_args):
        hist = tmp_path / "hist.txt"
        run(["release", "--matrix", matrix_file, "--method", "htf", "--eps-total", 0.5, "--seed", 1, "--out", hist])
        generated, from_file = tmp_path / "generated.csv", tmp_path / "from-file.csv"
        assert run(["evaluate", "--matrix", matrix_file, "--hist", hist, "--queries", 300, "--seed", 6,
                    *shape_args, "--out", generated]) == 0
        shape, size = ("square", 0.05) if shape_args else ("random", "random")
        wl = tmp_path / "wl.txt"
        save_workload(generate_workload(WorkloadSpec(300, shape, size, seed=6), 32, 32), wl)
        assert run(["evaluate", "--matrix", matrix_file, "--hist", hist, "--workload", wl, "--out", from_file]) == 0
        assert generated.read_bytes() == from_file.read_bytes()

    @pytest.mark.parametrize(
        "leaves",
        [
            ["0 2 0 2 3", "0 1 0 1 1"],  # overlap
            ["0 1 0 2 3"],  # gap
            ["0 3 0 2 3"],  # outside the grid
            ["0 1 0 2 3", "0 1 0 2 1"],  # overlap and gap that cancel in the cell total
        ],
        ids=["overlap", "gap", "outside", "overlap-and-gap"],
    )
    def test_leaves_that_do_not_tile_exit_2(self, tmp_path, capsys, leaves):
        matrix = tmp_path / "m.txt"
        matrix.write_text("2 2 3\n1 1\n0 1\n")
        hist = tmp_path / "h.txt"
        hist.write_text(f"2 2 0.1 {len(leaves)}\n" + "".join(line + "\n" for line in leaves))
        wl = tmp_path / "wl.txt"
        wl.write_text("0 2 0 2\n1 2 1 2\n")
        report = tmp_path / "r.csv"
        code = run(["evaluate", "--matrix", matrix, "--hist", hist, "--workload", wl, "--out", report])
        assert code == 2
        assert str(hist) in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("count", ["nan", "inf", "-inf"])
    def test_non_finite_count_rejected(self, tmp_path, matrix_file, count):
        hist = tmp_path / "h.txt"
        hist.write_text(f"32 32 0.1 2\n0 16 0 32 5\n16 32 0 32 {count}\n")
        with pytest.raises(ValueError, match="leaf line 2"):
            PrivateHistogram.load(hist)
        assert run(["evaluate", "--matrix", matrix_file, "--hist", hist, "--out", tmp_path / "r.csv"]) == 2

    @pytest.mark.parametrize("eps", ["nan", "-3", "0", "inf"])
    def test_header_eps_total_must_be_positive_and_finite(self, tmp_path, capsys, eps):
        matrix = tmp_path / "m.txt"
        matrix.write_text("2 2 3\n1 1\n0 1\n")
        hist = tmp_path / "h.txt"
        hist.write_text(f"2 2 {eps} 1\n0 2 0 2 3\n")
        with pytest.raises(ValueError, match="eps_total must be positive and finite") as err:
            PrivateHistogram.load(hist)
        assert str(hist) in str(err.value)
        report = tmp_path / "r.csv"
        assert run(["evaluate", "--matrix", matrix, "--hist", hist, "--queries", 5, "--out", report]) == 2
        assert str(hist) in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("smoothing", ["0", "-1", "nan", "inf"])
    def test_bad_smoothing_exits_2_naming_it(self, tmp_path, matrix_file, capsys, smoothing):
        hist, report = tmp_path / "h.txt", tmp_path / "r.csv"
        run(["release", "--matrix", matrix_file, "--method", "uniform", "--out", hist])
        code = run(["evaluate", "--matrix", matrix_file, "--hist", hist, "--smoothing", smoothing, "--out", report])
        assert code == 2
        assert "smoothing must be positive and finite" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("source", ["--queries", "--workload"])
    def test_no_queries_exits_2(self, tmp_path, matrix_file, capsys, source):
        hist, report, empty = tmp_path / "h.txt", tmp_path / "r.csv", tmp_path / "empty.txt"
        run(["release", "--matrix", matrix_file, "--method", "uniform", "--out", hist])
        empty.write_text("# no queries\n")
        workload = [source, 0 if source == "--queries" else empty]
        assert run(["evaluate", "--matrix", matrix_file, "--hist", hist, *workload, "--out", report]) == 2
        assert "holds no queries" in capsys.readouterr().err
        assert not report.exists()

    def test_missing_histogram_exits_3(self, tmp_path, matrix_file):
        assert run(["evaluate", "--matrix", matrix_file,
                    "--hist", tmp_path / "nope.txt", "--out", tmp_path / "r.csv"]) == 3


class TestSweep:
    def write_config(self, tmp_path, **overrides):
        cfg = {
            "methods": "htf,ug,uniform",
            "eps": "0.5",
            "sizes": "random",
            "seeds": "0,1",
            "sigmas": "6",
            "n": "2000",
            "grid": "32",
            "queries": "40",
        }
        cfg.update(overrides)
        path = tmp_path / "sweep.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in cfg.items()))
        return path

    def test_row_count_is_cartesian_product(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "table.csv"
        assert run(["sweep", "--config", cfg, "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,sigma,eps_total,size,seed,mre,status"
        assert len(lines) == 1 + 3 * 2  # methods x seeds
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_repeat_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["sweep", "--config", cfg, "--out", a])
        run(["sweep", "--config", cfg, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_height_zero_fails_tree_rows(self, tmp_path):
        cfg = self.write_config(tmp_path, methods="quadtree,kdtree", seeds="0", height="0")
        out = tmp_path / "table.csv"
        assert run(["sweep", "--config", cfg, "--out", out]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["error:ValueError: height must be at least 1"] * 2

    def test_unknown_method_exits_2(self, tmp_path):
        cfg = self.write_config(tmp_path, methods="htf,wavelet")
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "t.csv"]) == 2

    @pytest.mark.parametrize("key", ["methods", "eps", "sizes", "seeds", "sigmas"])
    def test_empty_axis_exits_2_naming_it(self, tmp_path, capsys, key):
        cfg = self.write_config(tmp_path, **{key: ""})
        out = tmp_path / "t.csv"
        assert run(["sweep", "--config", cfg, "--out", out]) == 2
        assert f"sweep config key {key!r} lists no value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_jobs_below_1_exits_2(self, tmp_path, capsys, jobs):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "t.csv"
        assert run(["sweep", "--config", cfg, "--out", out, "--jobs", jobs]) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_two_jobs_write_the_bytes_of_one(self, tmp_path):
        cfg = self.write_config(tmp_path, methods="htf,ug,quadtree", sigmas="6,10", sizes="random,0.05")
        tables = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}.csv"
            assert run(["sweep", "--config", cfg, "--out", out, "--jobs", jobs]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]
        assert len(tables[0].splitlines()) == 1 + 3 * 2 * 2 * 2

    def test_each_dataset_and_workload_built_once(self, tmp_path, monkeypatch):
        calls = {"sample_gaussian_points": [], "generate_workload": []}
        for module, name in ((cli.grid, "sample_gaussian_points"), (cli.queries, "generate_workload")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name].append(args)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        cfg = self.write_config(tmp_path, eps="0.3,0.5", sigmas="6,10", sizes="random,0.05")
        out = tmp_path / "table.csv"
        assert run(["sweep", "--config", cfg, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 2 * 2 * 2 * 2
        assert len(calls["sample_gaussian_points"]) == 2 * 2  # sigmas x seeds
        assert len(calls["generate_workload"]) == 2 * 2  # sizes x seeds

    @pytest.mark.parametrize(
        "key, value",
        [("smoothing", "0"), ("n", "-1"), ("grid", "0"), ("queries", "-5"), ("queries", "0"), ("seeds", "1,-1")],
    )
    def test_setting_of_every_row_exits_2_before_any_row(self, tmp_path, capsys, monkeypatch, key, value):
        built = []
        monkeypatch.setattr(cli, "build_release", lambda *args: built.append(args))
        cfg = self.write_config(tmp_path, **{key: value})
        out = tmp_path / "table.csv"
        assert run(["sweep", "--config", cfg, "--out", out]) == 2
        assert f"sweep config key {key!r}" in capsys.readouterr().err
        assert not out.exists() and not built

    def test_failed_dataset_fails_only_its_rows(self, tmp_path):
        cfg = self.write_config(tmp_path, sigmas="-1,6", seeds="0")
        out = tmp_path / "table.csv"
        assert run(["sweep", "--config", cfg, "--out", out]) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert {len(row) for row in rows} == {7}  # the message's comma is not a field separator
        error = "error:ValueError: sigma must be positive and finite; got -1.0"
        assert [row[-1] for row in rows] == [error] * 3 + ["ok"] * 3

    def test_error_message_keeps_the_row_one_line_of_seven_fields(self):
        mre, status = cli._sweep_row((ValueError("bad, worse\nworst\r\nend"), None, None, None, None))
        assert (mre, status) == ("nan", "error:ValueError: bad; worse worst end")

    def test_smooth_false_gives_the_rows_of_smooth_0(self, tmp_path):
        tables = {}
        for value in ("False", "0", "1"):
            cfg = self.write_config(tmp_path, methods="quadtree,kdtree", height="3", smooth=value)
            out = tmp_path / f"smooth-{value}.csv"
            assert run(["sweep", "--config", cfg, "--out", out]) == 0
            tables[value] = out.read_bytes()
        assert tables["False"] == tables["0"]
        assert tables["0"] != tables["1"]

    @pytest.mark.parametrize(
        "key, value", [("smooth", "off"), ("stop_cout", "5"), ("seed", "3"), ("eps_total", "0.2")]
    )
    def test_bad_key_exits_2_before_any_row(self, tmp_path, capsys, monkeypatch, key, value):
        built = []
        monkeypatch.setattr(cli, "build_release", lambda *args: built.append(args))
        cfg = self.write_config(tmp_path, **{key: value})
        out = tmp_path / "table.csv"
        assert run(["sweep", "--config", cfg, "--out", out]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists() and not built

    def test_rejected_value_exits_2_before_any_row(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_release", lambda *args: built.append(args))
        cfg = self.write_config(tmp_path, stop_count="abc")
        out = tmp_path / "table.csv"
        assert run(["sweep", "--config", cfg, "--out", out]) == 2
        assert "--stop-count" in capsys.readouterr().err
        assert not out.exists() and not built

    def test_row_settings_are_those_of_release_config(self, tmp_path, matrix_file, monkeypatch):
        settings = {"stop_count": "20", "smooth": "False", "alloc": "geometric", "T": "2", "zero_noise": "yes"}
        seen = []

        def capture(matrix, args, noise):
            seen.append(vars(args))
            raise ValueError("settings captured")

        monkeypatch.setattr(cli, "build_release", capture)
        cfg = self.write_config(tmp_path, methods="kdtree", seeds="0", **settings)
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "table.csv"]) == 0
        release_cfg = tmp_path / "release.cfg"
        release_cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        run(["release", "--config", release_cfg, "--matrix", matrix_file, "--method", "kdtree", "--eps-total", 0.5])
        unset = ("command", "matrix", "config", "out", "seed", "func")
        sweep_row, release = ({k: v for k, v in s.items() if k not in unset} for s in seen)
        assert sweep_row == release
        assert release["smooth"] is False and release["zero_noise"] is True and release["search_iters"] == 2


class TestDeterminism:
    def test_release_byte_identical(self, tmp_path, matrix_file):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            run(["release", "--matrix", matrix_file, "--method", "htf",
                 "--eps-total", 0.5, "--seed", 11, "--out", out,
                 "--ledger-out", str(out) + ".ledger"])
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.txt.ledger").read_bytes() == (tmp_path / "b.txt.ledger").read_bytes()
