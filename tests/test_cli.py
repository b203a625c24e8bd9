import csv
import json
from fractions import Fraction as F

from momentkit import cli, gaps, hamburger
from momentkit.cli import main
from momentkit.moments import sequence_from_1d
from momentkit.scalars import RationalMode
from momentkit.serialization import save_moment_sequence

R = RationalMode()


def write_spec(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def gaussian_spec(tmp_path, degree=80):
    return write_spec(tmp_path / "gauss.json", {
        "measure": {"variant": "gaussian_product", "variances": ["1"]},
        "dimension": 1, "max_degree": degree, "mode": "rational"})


def qlattice_spec(tmp_path, degree=62):
    return write_spec(tmp_path / "ql.json", {
        "measure": {"variant": "q_lattice", "q": "2"},
        "dimension": 1, "max_degree": degree, "mode": "rational"})


def exponential_spec(tmp_path, degree=41):
    return write_spec(tmp_path / "expo.json", {
        "measure": {"variant": "exponential"},
        "dimension": 1, "max_degree": degree, "mode": "rational"})


def count_factorizations(monkeypatch):
    """Orders of the factorizations made, i.e. of the recurrence_from_moments
    calls that the per-sequence memo could not serve."""
    calls = []
    real = hamburger._factorize
    monkeypatch.setattr(hamburger, "_factorize",
                        lambda seq, n: calls.append(n) or real(seq, n))
    return calls


def mixed_spec(tmp_path, degree=60):
    return write_spec(tmp_path / "mix.json", {
        "measure": {"variant": "product", "factors": [
            {"measure": {"variant": "gaussian_product", "variances": ["1"]},
             "dimension": 1},
            {"measure": {"variant": "q_lattice", "q": "2"}, "dimension": 1}]},
        "dimension": 2, "max_degree": degree, "mode": "rational"})


def test_analyze_gaussian_determinate(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["analyze", "--input", gaussian_spec(tmp_path),
               "--criteria", "verdict,admissibility,carleman,christoffel,weyl",
               "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"]["status"] == "determinate"
    names = [c["name"] for c in rep["criteria"]]
    assert names == ["admissibility", "carleman", "christoffel", "weyl"]
    car = rep["criteria"][1]
    assert car["diverging"] is True
    assert car["sufficiency"] == "rigorous-sufficient"
    assert "input_sha256" in rep["provenance"]
    assert all("sufficiency" in c for c in rep["criteria"])


def test_weyl_criterion_degree_matches_verdict(tmp_path):
    """The weyl criterion and the verdict's weyl-radius item use one degree."""
    for spec in (gaussian_spec(tmp_path), qlattice_spec(tmp_path),
                 exponential_spec(tmp_path)):
        out = tmp_path / "report.json"
        rc = main(["analyze", "--input", spec, "--criteria", "verdict,weyl",
                   "--out", str(out)])
        assert rc == 0
        rep = json.loads(out.read_text())
        degrees = [e["degree"] for e in rep["verdict"]["evidence"]
                   if e["criterion"].startswith("weyl-radius")]
        assert degrees == [rep["criteria"][0]["degree"]]
        assert degrees[0] == (rep["input_summary"]["max_degree"] - 2) // 2


def test_analyze_qlattice_indeterminate(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["analyze", "--input", qlattice_spec(tmp_path), "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"]["status"] == "indeterminate"
    assert rep["verdict"]["numeric_flagged"] is True
    crits = {e["criterion"] for e in rep["verdict"]["evidence"]}
    assert "christoffel-plateau" in crits


def test_analyze_negative_m2_exits_2(tmp_path):
    bad = sequence_from_1d([F(1), F(0), F(-1)], R)
    path = tmp_path / "bad.json"
    save_moment_sequence(bad, str(path))
    out = tmp_path / "report.json"
    rc = main(["analyze", "--input", str(path), "--out", str(out)])
    assert rc == 2
    rep = json.loads(out.read_text())
    assert any(e["error"] == "NotAdmissible" for e in rep["errors"])


def test_analyze_singular_data_exits_2(tmp_path):
    path = tmp_path / "singular.json"
    save_moment_sequence(sequence_from_1d([F(1), F(0), F(0), F(0), F(1)], R), str(path))
    out = tmp_path / "report.json"
    rc = main(["analyze", "--input", str(path), "--out", str(out)])
    assert rc == 2
    rep = json.loads(out.read_text())
    assert [e["error"] for e in rep["errors"]] == ["NotAdmissible"]
    assert "verdict" not in rep


def test_analyze_nan_moment_exits_2(tmp_path):
    path = write_spec(tmp_path / "nan.json", {
        "dimension": 1, "max_degree": 2, "mode": "float:128",
        "support_hint": {"kind": "full_space"},
        "entries": [{"alpha": [0], "value": "1"}, {"alpha": [1], "value": "nan"},
                    {"alpha": [2], "value": "1"}]})
    out = tmp_path / "report.json"
    rc = main(["analyze", "--input", path, "--out", str(out)])
    assert rc == 2
    rep = json.loads(out.read_text())
    assert [e["error"] for e in rep["errors"]] == ["InvalidParameter"]
    assert "verdict" not in rep


def test_analyze_rejects_cone_criteria_on_full_space(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["analyze", "--input", gaussian_spec(tmp_path, 20),
               "--criteria", "fantappie", "--out", str(out)])
    assert rc == 2
    rep = json.loads(out.read_text())
    assert rep["errors"]


def test_determinism_modulo_timestamp(tmp_path):
    spec = qlattice_spec(tmp_path, 20)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["analyze", "--input", spec, "--out", str(out1)]) == 0
    assert main(["analyze", "--input", spec, "--out", str(out2)]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("generated_at")
    b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_scan_csv(tmp_path):
    dirs = write_spec(tmp_path / "dirs.json", [["1", "0"], ["0", "1"]])
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--input", mixed_spec(tmp_path), "--directions", dirs,
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][:2] == ["xi_0", "xi_1"]
    assert rows[-1][0] == "aggregate"
    assert rows[-1][2] == "indeterminate"
    data_rows = rows[1:-1]
    assert {r[2] for r in data_rows} >= {"indeterminate"}


def test_scan_direction_count(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--input", mixed_spec(tmp_path, 40), "--directions", "4",
               "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 6  # header + 4 + aggregate


def test_kappa_field_1d(tmp_path):
    out = tmp_path / "kappa.csv"
    rc = main(["kappa", "--input", qlattice_spec(tmp_path, 22),
               "--field=-1:1:3,1:2:2", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["x", "t", "kappa", "method", "certified", "crosscheck_1d"]
    assert len(rows) == 7
    assert all(float(r[2]) > 0 for r in rows[1:])
    assert all(r[3] == "weyl-disk-1d" for r in rows[1:])


def test_kappa_field_factorizes_once(tmp_path, monkeypatch):
    calls = count_factorizations(monkeypatch)
    out = tmp_path / "kappa.csv"
    rc = main(["kappa", "--input", qlattice_spec(tmp_path, 22),
               "--field=-1:1:3,1:2:2", "--out", str(out)])
    assert rc == 0
    assert calls == [11]


def test_kappa_sphere_average_shares_the_field_factorization(tmp_path, monkeypatch):
    calls = count_factorizations(monkeypatch)
    out = tmp_path / "kappa.csv"
    rc = main(["kappa", "--input", qlattice_spec(tmp_path, 22),
               "--field=-1:1:3,1:2:2", "--sphere-average", "--out", str(out)])
    assert rc == 0
    assert calls == [11]


def test_analyze_2d_scans_once_and_pushes_forward_once(tmp_path, monkeypatch):
    """One direction scan serves the verdict and the scan entry; one
    first-axis push-forward, factorized once, serves every 1D criterion."""
    spec = write_spec(tmp_path / "gauss2d.json", {
        "measure": {"variant": "gaussian_product", "variances": ["1", "1"]},
        "dimension": 2, "max_degree": 24, "mode": "rational"})
    verdicts, pushed = [], []
    real_verdict, real_push = gaps.verdict_1d, cli.pushforward_direction
    monkeypatch.setattr(gaps, "verdict_1d",
                        lambda *args: verdicts.append(args) or real_verdict(*args))
    monkeypatch.setattr(cli, "pushforward_direction",
                        lambda seq, xi: pushed.append(xi) or real_push(seq, xi))
    factorized = count_factorizations(monkeypatch)
    out = tmp_path / "report.json"
    for criteria in ("verdict,scan", "scan"):
        verdicts.clear()
        assert main(["analyze", "--input", spec, "--criteria", criteria,
                     "--out", str(out)]) == 0
        assert len(verdicts) == 4                   # 2 * dimension directions, once each
        assert not pushed
    factorized.clear()
    assert main(["analyze", "--input", spec, "--criteria",
                 "verdict,admissibility,carleman,christoffel,weyl,cosine",
                 "--out", str(out)]) == 0
    assert pushed == [(1, 0)]
    assert factorized == [12] * 5                   # 4 scan directions + e_1


def test_analyze_runs_one_forward_pass_per_point(tmp_path, monkeypatch):
    """The verdict and every 1D and cone criterion share one forward
    recurrence pass at each point they visit (i, -1 and 0)."""
    points = []
    real = hamburger._forward_pass
    monkeypatch.setattr(hamburger, "_forward_pass",
                        lambda rec, z: points.append(z.to_complex()) or real(rec, z))
    out = tmp_path / "report.json"
    rc = main(["analyze", "--input", qlattice_spec(tmp_path, 40), "--criteria",
               "verdict,admissibility,carleman,christoffel,weyl,fantappie,cosine,"
               "poisson,orthant,hyperplane", "--out", str(out)])
    assert rc == 0
    assert not json.loads(out.read_text())["errors"]
    assert sorted(points, key=lambda c: (c.real, c.imag)) == [-1, 0, 1j]


def test_kappa_field_dirac_zero(tmp_path):
    spec = write_spec(tmp_path / "dirac.json", {
        "measure": {"variant": "atomic", "points": [["0"]], "weights": ["1"]},
        "dimension": 1, "max_degree": 16, "mode": "rational"})
    out = tmp_path / "kappa.csv"
    rc = main(["kappa", "--input", spec, "--field=-1:1:3,1:2:3", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 10
    assert all(float(r[2]) == 0 for r in rows[1:])


def test_curve_subcommand(tmp_path):
    out = tmp_path / "curve.json"
    rc = main(["curve", "--curve", "catalog:parabola",
               "--sigma", qlattice_spec(tmp_path, 60),
               "--degree", "6", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"]["status"] == "indeterminate"
    assert rep["curve"]["name"] == "parabola"


def test_curve_gaussian_determinate(tmp_path):
    out = tmp_path / "curve.json"
    rc = main(["curve", "--curve", "catalog:parabola",
               "--sigma", gaussian_spec(tmp_path, 80),
               "--degree", "6", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"]["status"] == "determinate"


def test_curve_rejects_bad_mode_with_interchange_sigma(tmp_path):
    # an interchange file carries its own mode, so --mode is checked alone
    sigma = tmp_path / "sigma.json"
    save_moment_sequence(sequence_from_1d([F(1), F(0), F(1), F(0), F(3)], R), str(sigma))
    out = tmp_path / "curve.json"
    rc = main(["curve", "--curve", "catalog:parabola", "--sigma", str(sigma),
               "--mode", "decimal", "--degree", "2", "--out", str(out)])
    assert rc == 2
    rep = json.loads(out.read_text())
    assert [e["error"] for e in rep["errors"]] == ["InvalidParameter"]
    assert "decimal" in rep["errors"][0]["detail"]


def test_missing_input_reports_error(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["analyze", "--input", str(tmp_path / "nope.json"), "--out", str(out)])
    assert rc == 2


def test_analyze_float_mode_spec(tmp_path):
    spec = write_spec(tmp_path / "ln.json", {
        "measure": {"variant": "log_normal", "s": "1"},
        "dimension": 1, "max_degree": 40, "mode": "float:6464"})
    out = tmp_path / "report.json"
    rc = main(["analyze", "--input", spec, "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["provenance"]["mode"] == "float:6464"
    # log-normal is the classical indeterminate reference; at shape s = 1 the
    # Christoffel plateau is already unambiguous within this degree budget
    assert rep["verdict"]["status"] == "indeterminate"
