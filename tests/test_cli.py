import numpy as np
import pytest

from fdbands import FunctionalSample, Grid, ModelSpec, StreamKey, cli, sample_model
from fdbands.cli import main
from fdbands.fdata import read_sample_csv, write_sample_csv
from fdbands.verify import OracleReport, write_oracle_csv


def test_simulate_writes_valid_sample(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["simulate", "--model", "A", "--n", "10", "--t", "25", "--seed", "1", "--out", str(out)])
    assert code == 0
    sample = read_sample_csv(out)
    assert sample.n == 10 and sample.t == 25


def test_simulate_is_seed_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["simulate", "--model", "C", "--n", "5", "--t", "12", "--seed", "9", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_band_csv_shape(tmp_path):
    sample_path = tmp_path / "s.csv"
    main(["simulate", "--model", "A", "--n", "40", "--t", "20", "--seed", "2", "--out", str(sample_path)])
    band_path = tmp_path / "band.csv"
    code = main([
        "band", "--in", str(sample_path), "--stat", "cohens_d", "--method", "mult",
        "--alpha", "0.05", "--b", "200", "--seed", "3", "--out", str(band_path),
    ])
    assert code == 0
    lines = band_path.read_text().strip().split("\n")
    assert lines[0] == "s,center,lower,upper,q,method"
    assert len(lines) == 21
    s, center, lower, upper, q, method = lines[1].split(",")
    assert float(lower) <= float(center) <= float(upper)
    assert float(q) > 0 and method == "mult"


def test_quantile_stdout_and_file(tmp_path, capsys):
    sample_path = tmp_path / "s.csv"
    main(["simulate", "--model", "A", "--n", "30", "--t", "15", "--seed", "4", "--out", str(sample_path)])
    code = main(["quantile", "--in", str(sample_path), "--stat", "mean", "--method", "gkf"])
    assert code == 0
    q = float(capsys.readouterr().out.strip())
    assert q > 1.0
    out = tmp_path / "q.csv"
    main(["quantile", "--in", str(sample_path), "--stat", "mean", "--method", "gkf", "--out", str(out)])
    assert out.read_text().startswith("statistic,method,alpha,q")


def test_gauss_test_subcommand(tmp_path):
    sample_path = tmp_path / "s.csv"
    main(["simulate", "--model", "A", "--n", "60", "--t", "15", "--seed", "5", "--out", str(sample_path)])
    out = tmp_path / "g.csv"
    code = main([
        "gauss-test", "--in", str(sample_path), "--stat", "skewness_z", "--method", "mult",
        "--b", "200", "--seed", "6", "--out", str(out),
    ])
    assert code == 0
    header, row = out.read_text().strip().split("\n")
    assert header == "statistic,method,alpha,max_stat,threshold,reject"
    assert row.split(",")[-1] in ("true", "false")


@pytest.mark.parametrize("method", ["tmult", "rtmult"])
def test_gauss_test_vanished_se_is_a_numeric_error(tmp_path, capsys, method):
    # column 2 is +-1 in equal shares, so its kurtosis se is exactly 0
    sample = sample_model(ModelSpec("A"), 40, Grid.equispaced(5), StreamKey(4))
    values = sample.values.copy()
    values[:, 2] = np.tile([1.0, -1.0], 20)
    sample_path = tmp_path / "s.csv"
    write_sample_csv(FunctionalSample(sample.grid, values), sample_path)
    code = main([
        "gauss-test", "--in", str(sample_path), "--stat", "kurtosis", "--method", method,
        "--se-mode", "estimated", "--b", "200",
    ])
    assert code == 2
    assert "estimated se vanished" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["mult", "tmult", "gkf"])
@pytest.mark.parametrize("statistic", ["variance", "kurtosis"])
def test_two_curves_are_below_the_minimum_n_on_the_band_path(tmp_path, capsys, statistic, method):
    # at N = 2 the variance and kurtosis residuals vanish, so the se is 0:
    # a config error, not a numeric failure or a zero-width band
    sample_path = tmp_path / "s.csv"
    assert main(["simulate", "--model", "A", "--n", "2", "--t", "10", "--seed", "1", "--out", str(sample_path)]) == 0
    capsys.readouterr()
    band_path = tmp_path / "band.csv"
    common = ["--in", str(sample_path), "--stat", statistic, "--method", method, "--b", "100"]
    assert main(["band", *common, "--out", str(band_path)]) == 1
    assert main(["quantile", *common]) == 1
    assert capsys.readouterr().err == f"error: {statistic} needs n >= 3, got 2\n" * 2
    assert not band_path.exists()


def test_coverage_subcommand(tmp_path):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "cov.csv"
    cfg.write_text(
        "model = A\nstatistic = mean\nmethods = mult\nsample_sizes = 20\n"
        "grid_size = 8\nreplicates = 100\nbootstrap_b = 100\nseed = 3\nworkers = 1\n"
        f"output = {out}\n"
    )
    assert main(["coverage", "--config", str(cfg)]) == 0
    assert out.read_text().startswith("model,statistic,method")


def test_verify_subcommand(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["verify", "--oracle", "bessel", "--out", str(out)]) == 0
    assert "bessel_k" in out.read_text()


def test_verify_with_no_oracle_selected_exits_one(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    for selection in (",", ""):
        assert main(["verify", "--oracle", selection, "--out", str(out)]) == 1
        assert "no oracle selected" in capsys.readouterr().err
    assert not out.exists()


def test_coverage_without_a_truth_curve_exits_one_before_any_work(tmp_path, monkeypatch):
    def no_run(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_coverage", no_run)
    out = tmp_path / "cov.csv"
    for statistic in ("skewness_z", "kurtosis_z"):
        cfg = tmp_path / f"{statistic}.cfg"
        cfg.write_text(f"model = C\nstatistic = {statistic}\noutput = {out}\n")
        assert main(["coverage", "--config", str(cfg)]) == 1
    assert not out.exists()


def test_missing_output_directory_exits_two_before_any_work(tmp_path, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_coverage", no_run)
    monkeypatch.setattr(cli, "run_oracles", no_run)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model = A\nstatistic = mean\n")
    out = tmp_path / "missing" / "x.csv"
    assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 2
    assert main(["verify", "--oracle", "bessel", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: no directory to write {str(out)!r} in\n" * 2


def test_exit_code_one_on_bad_arguments(tmp_path):
    assert main(["band", "--stat", "cohens_d"]) == 1  # missing --in/--out
    assert main(["simulate", "--model", "Q", "--n", "5", "--t", "5", "--seed", "1", "--out", "x"]) == 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = Z\n")
    assert main(["coverage", "--config", str(cfg)]) == 1
    assert main(["verify", "--oracle", "nonsense", "--out", str(tmp_path / "o.csv")]) == 1


def test_non_finite_noise_sigma_is_a_bad_argument(tmp_path, capsys):
    out = tmp_path / "s.csv"
    for sigma in ("nan", "inf"):
        args = ["simulate", "--model", "A", "--n", "5", "--t", "5", "--seed", "1", "--noise-sigma", sigma, "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: noise_sigma must be finite and nonnegative, got {sigma}\n"
    assert not out.exists()


def test_exit_code_two_on_runtime_failure(tmp_path):
    missing = tmp_path / "missing.csv"
    assert main(["band", "--in", str(missing), "--stat", "mean", "--method", "mult",
                 "--out", str(tmp_path / "b.csv")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0.5,1\n1,zebra,3\n")
    assert main(["quantile", "--in", str(bad), "--stat", "mean", "--method", "gkf"]) == 2


def test_exit_code_two_on_undecodable_sample(tmp_path, capsys):
    bad = tmp_path / "binary.csv"
    bad.write_bytes(b"0,0.5,1\n1,2,3\n\xff\xfe")
    assert main(["band", "--in", str(bad), "--stat", "mean", "--method", "mult",
                 "--out", str(tmp_path / "b.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("method", ["mult", "gkf"])
def test_band_holds_when_the_curve_lines_are_permuted(tmp_path, method):
    # q and the band depend on the curves, not on their order in the file:
    # mult's q within the relative bound of its eigen-factor draws (1e-9),
    # so the edges center -/+ q se within 1e-9 of the band's scale
    sample = tmp_path / "s.csv"
    main(["simulate", "--model", "A", "--n", "90", "--t", "40", "--seed", "12", "--out", str(sample)])
    header, *curves = sample.read_text().splitlines()
    order = np.random.default_rng(13).permutation(len(curves))
    permuted = tmp_path / "p.csv"
    permuted.write_text("\n".join([header, *(curves[i] for i in order)]) + "\n")
    bands = []
    for path in (sample, permuted):
        out = tmp_path / f"band_{path.stem}.csv"
        args = ["band", "--in", str(path), "--stat", "cohens_d", "--method", method, "--b", "300", "--seed", "4"]
        assert main([*args, "--out", str(out)]) == 0
        bands.append(np.loadtxt(out, delimiter=",", skiprows=1, usecols=range(5)))
    base, got = bands
    np.testing.assert_allclose(got[:, 4], base[:, 4], rtol=1e-9, atol=0)
    np.testing.assert_allclose(got[:, :4], base[:, :4], rtol=0, atol=1e-9 * np.abs(base[:, 1:4]).max())


def test_result_csv_formats_are_pinned_byte_for_byte(tmp_path, capsys):
    """Exact text of every result format on a fixed 24 x 4 sample: floats
    as %.17g, booleans as true/false, LF line endings, no trailing blanks."""
    rows = [",".join(str(((7 * i + 3 * j) % 11 - 5) / 4 + (i * j % 5) / 8) for j in range(4)) for i in range(24)]
    sample = tmp_path / "s.csv"
    sample.write_text("0,0.25,0.5,1\n" + "\n".join(rows) + "\n")
    common = ["--in", str(sample), "--method", "gkf"]

    assert main(["band", *common, "--stat", "cohens_d", "--out", str(tmp_path / "b.csv")]) == 0
    band = (tmp_path / "b.csv").read_bytes().split(b"\n")
    assert band[:2] == [
        b"s,center,lower,upper,q,method",
        b"0,-0.038836781869030869,-0.58237035211671395,0.50469678837865228,2.6639137952269953,gkf",
    ]
    assert len(band) == 6 and band[-1] == b""

    assert main(["quantile", *common, "--stat", "mean", "--out", str(tmp_path / "q.csv")]) == 0
    assert (tmp_path / "q.csv").read_bytes() == (
        b"statistic,method,alpha,q\nmean,gkf,0.050000000000000003,2.6596348358772595\n"
    )
    capsys.readouterr()
    assert main(["quantile", *common, "--stat", "mean"]) == 0
    assert capsys.readouterr().out == "2.6596348358772595\n"

    gauss = [*common, "--stat", "kurtosis"]
    assert main(["gauss-test", *gauss, "--se-mode", "gaussian_exact", "--out", str(tmp_path / "g.csv")]) == 0
    assert (tmp_path / "g.csv").read_bytes() == (
        b"statistic,method,alpha,max_stat,threshold,reject\n"
        b"kurtosis,gkf,0.050000000000000003,1.0043598160925815,1.9556425031406985,false\n"
    )
    capsys.readouterr()
    assert main(["gauss-test", *gauss, "--se-mode", "estimated"]) == 0
    assert capsys.readouterr().out == (
        "kurtosis,gkf,0.050000000000000003,5.6040824387970201,2.6520281384102096,true\n"
    )

    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "model = A\nstatistic = mean\nmethods = gkf\nsample_sizes = 10\ngrid_size = 4\n"
        "replicates = 100\nseed = 3\nworkers = 1\n"
    )
    assert main(["coverage", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0
    assert (tmp_path / "c.csv").read_bytes() == (
        b"model,statistic,method,se_mode,bias_correction,n,t,replicates,successes,"
        b"guard_violations,coverage,mc_se\n"
        b"A,mean,gkf,estimated,false,10,4,100,100,0,0.91000000000000003,0.028618176042508364\n"
    )

    report = OracleReport("grad[mean]", 1.5e-10, 0.1, 100, 1e-6, "rel", True)
    write_oracle_csv([report], tmp_path / "o.csv")
    assert (tmp_path / "o.csv").read_bytes() == (
        b"name,max_abs_err,max_rel_err,samples,tolerance,criterion,passed\n"
        b"grad[mean],1.5e-10,0.10000000000000001,100,9.9999999999999995e-07,rel,true\n"
    )
