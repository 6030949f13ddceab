from fdbands.cli import main
from fdbands.fdata import read_sample_csv


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


def test_exit_code_one_on_bad_arguments(tmp_path):
    assert main(["band", "--stat", "cohens_d"]) == 1  # missing --in/--out
    assert main(["simulate", "--model", "Q", "--n", "5", "--t", "5", "--seed", "1", "--out", "x"]) == 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = Z\n")
    assert main(["coverage", "--config", str(cfg)]) == 1
    assert main(["verify", "--oracle", "nonsense", "--out", str(tmp_path / "o.csv")]) == 1


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
