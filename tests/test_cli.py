import csv
import json
import math
import signal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentkit import cli, curves, gaps, hamburger
from momentkit.cli import main
from momentkit.moments import sequence_from_1d
from momentkit.scalars import RationalMode, default_float_bits
from momentkit.serialization import format_value, save_moment_sequence

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
                        lambda seq, n, base=None: calls.append(n) or real(seq, n, base))
    return calls


def signature(report):
    """Status and the sorted (criterion, sufficiency) pairs of a verdict."""
    verdict = report["verdict"]
    return verdict["status"], sorted((e["criterion"], e["sufficiency"])
                                     for e in verdict["evidence"])


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


def test_analyze_sums_the_carleman_series_once(tmp_path, monkeypatch):
    """The verdict's Carleman item and the carleman entry read one sum,
    kept on the sequence."""
    made = []
    real = hamburger.CarlemanResult
    monkeypatch.setattr(hamburger, "CarlemanResult", lambda *a: made.append(a) or real(*a))
    out = tmp_path / "report.json"
    assert main(["analyze", "--input", gaussian_spec(tmp_path),
                 "--criteria", "verdict,carleman", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    item = next(e for e in rep["verdict"]["evidence"] if e["criterion"] == "carleman")
    assert len(made) == 1 and item["value"] == rep["criteria"][0]["partial_sum"]


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


def single_error(rc, report):
    """The (error, detail) of a report that exits 2 with one error entry."""
    assert rc == 2
    assert "verdict" not in report
    [error] = report["errors"]
    return error["error"], error["detail"]


@pytest.mark.parametrize("criteria", ["verdict", "carleman", "admissibility"])
def test_analyze_moment_beyond_the_exponent_range_exits_2(tmp_path, criteria):
    """A float moment whose binary exponent does not fit a binary64 is
    refused where the data enters, naming the first such moment."""
    huge = "0x1p+" + "9" * 320
    path = write_spec(tmp_path / "huge.json", {
        "dimension": 1, "max_degree": 4, "mode": "float:64",
        "support_hint": {"kind": "full_space"},
        "entries": [{"alpha": [k], "value": v}
                    for k, v in enumerate(["1", "0", huge, "0", huge])]})
    error, detail = single_error(*analyze_report(path, tmp_path, "--criteria", criteria))
    assert error == "InvalidParameter"
    assert "moment (2,) is out of range" in detail


@pytest.mark.parametrize("mode", [None, "float:128"])
def test_analyze_log_normal_beyond_the_exponent_range_exits_2(tmp_path, mode):
    doc = {"measure": {"variant": "log_normal", "s": "1e400"},
           "dimension": 1, "max_degree": 8}
    if mode is not None:
        doc["mode"] = mode
    path = write_spec(tmp_path / "ln.json", doc)
    error, detail = single_error(*analyze_report(path, tmp_path))
    assert error == "InvalidParameter"
    assert "moment (1,) is out of range" in detail


def test_precision_beyond_the_bound_is_one_structured_error(tmp_path):
    """A precision too large to compute with is refused when the mode is
    read, from a spec or from --mode; nothing runs at it."""
    mode = "float:99999999999999999999"
    spec = write_spec(tmp_path / "gauss.json", {
        "measure": {"variant": "gaussian_product", "variances": ["1"]},
        "dimension": 1, "max_degree": 8, "mode": mode})
    for extra in ((), ("--mode", mode)):
        error, detail = single_error(*analyze_report(spec, tmp_path, *extra))
        assert error == "InvalidParameter"
        assert repr(mode) in detail


def test_precision_past_the_int_digit_limit_is_one_structured_error(tmp_path):
    """A precision of 5000 digits, past Python's int<->str digit limit, is
    the same structured InvalidParameter, from a spec and from --mode."""
    mode = "float:" + "9" * 5000
    spec = write_spec(tmp_path / "huge.json", {
        "measure": {"variant": "gaussian_product", "variances": ["1"]},
        "dimension": 1, "max_degree": 8, "mode": mode})
    for spec, extra in ((spec, ()), (gaussian_spec(tmp_path, 8), ("--mode", mode))):
        error, detail = single_error(*analyze_report(spec, tmp_path, *extra))
        assert error == "InvalidParameter"
        assert repr(mode) in detail and "precision above" in detail


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


@pytest.mark.parametrize("variances, extra", [(["1", "1"], []),
                                             (["1"], ["--sphere-average"]),
                                             (["1"], [])])
def test_kappa_negative_lp_degree_is_one_structured_error(tmp_path, variances, extra):
    # a 2D field point solves a grid LP at that degree and a 1D sphere
    # average takes it as the Weyl-disk truncation; a 1D field reads no LP
    # degree, and a negative one is refused all the same
    spec = write_spec(tmp_path / "gauss.json", {
        "measure": {"variant": "gaussian_product", "variances": variances},
        "dimension": len(variances), "max_degree": 8, "mode": "rational"})
    out = tmp_path / "kappa.csv"
    rc = main(["kappa", "--input", spec, "--field=0:0:1,1:1:1", "--lp-degree", "-1",
               *extra, "--out", str(out)])
    assert rc == 2
    errors = json.loads(out.read_text())["errors"]
    assert [e["error"] for e in errors] == ["InvalidParameter"]
    assert "negative" in errors[0]["detail"]


@pytest.mark.parametrize("field", [
    "0:0:0,1:1:1",  # a count of 0
    "0:0:-3,1:1:1",  # a negative count
    "a:b,1:1:1",  # two parts
    "0:1:2:3,1:1:1",  # four parts
    "0:1:2.5,1:1:1",  # a count that is not an integer
    "nan:1:2,1:1:1",  # a NaN bound
    "0:1:2,nan:nan:1",  # a NaN t
    "0:inf:2,1:1:1",  # an infinite bound
    "0:1:2",  # no t range
    "0:1:2,1:2:2,3:4:5",  # a third range
    "0:1:2,-1:1:3",  # a t <= 0
])
def test_kappa_malformed_field_is_one_structured_error(tmp_path, field):
    out = tmp_path / "kappa.csv"
    rc = main(["kappa", "--input", gaussian_spec(tmp_path, 8), f"--field={field}",
               "--out", str(out)])
    assert rc == 2
    errors = json.loads(out.read_text())["errors"]
    assert [e["error"] for e in errors] == ["InvalidParameter"]
    assert repr(field) in errors[0]["detail"]


@pytest.mark.parametrize("variances", [["1"], ["1", "1"]], ids=["1d", "2d"])
def test_kappa_t_that_rationalizes_to_zero_is_one_structured_error(tmp_path, variances):
    """t = 1e-7 is positive, but the field reads it as the nearest rational
    of denominator at most 10**6, which is 0: a kernel with t0 = 0 divides
    by 0 at x0, so the field is refused."""
    spec = write_spec(tmp_path / "gauss.json", {
        "measure": {"variant": "gaussian_product", "variances": variances},
        "dimension": len(variances), "max_degree": 8, "mode": "rational"})
    out = tmp_path / "kappa.csv"
    field = "0:0:1,1e-7:1e-7:1"
    rc = main(["kappa", "--input", spec, f"--field={field}", "--out", str(out)])
    error, detail = single_error(rc, json.loads(out.read_text()))
    assert error == "InvalidParameter" and repr(field) in detail


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
    """One direction scan serves the verdict and the scan entry, with one
    1D verdict per line (the rational 2D set holds two lines, each with
    both of its directions); one first-axis push-forward, factorized once,
    serves every 1D criterion."""
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
        assert len(verdicts) == 2                   # 2 * dimension directions on 2 lines
        assert not pushed
    factorized.clear()
    assert main(["analyze", "--input", spec, "--criteria",
                 "verdict,admissibility,carleman,christoffel,weyl,cosine",
                 "--out", str(out)]) == 0
    assert pushed == [(1, 0)]
    assert factorized == [12] * 3                   # 2 scanned lines + e_1


def test_analyze_cone_input_reads_1d_criteria_on_the_half_line(tmp_path):
    """The first-axis push-forward of an orthant measure lies on [0, inf):
    the axis is on the boundary of the dual cone, not outside it."""
    spec = write_spec(tmp_path / "expo2d.json", {
        "measure": {"variant": "product", "factors": [
            {"measure": {"variant": "exponential"}, "dimension": 1},
            {"measure": {"variant": "exponential"}, "dimension": 1}]},
        "dimension": 2, "max_degree": 12, "mode": "rational"})
    out = tmp_path / "report.json"
    assert main(["analyze", "--input", spec, "--criteria", "fantappie,carleman",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert not rep["errors"]
    assert {c["name"]: c for c in rep["criteria"]}["carleman"]["flavor"] == "stieltjes"


def test_analyze_runs_one_forward_pass_per_point(tmp_path, monkeypatch):
    """The verdict and every 1D and cone criterion share one forward
    recurrence pass, at the one point they visit (i): the Stieltjes
    convergents need no pass."""
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
    assert points == [1j]


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


def test_curve_provenance_records_the_square_weight(tmp_path):
    """The lift is weighted by weight**2, which the report's provenance
    records; no flag chooses another power."""
    out = tmp_path / "curve.json"
    args = ["curve", "--curve", "catalog:parabola", "--sigma", qlattice_spec(tmp_path, 60),
            "--degree", "6", "--out", str(out)]
    assert main(args) == 0
    prov = json.loads(out.read_text())["provenance"]
    assert sorted(prov) == ["curve", "input_path", "input_sha256", "max_degree", "mode",
                            "toolkit_version", "weight_exponent"]
    assert (prov["curve"], prov["mode"], prov["weight_exponent"]) == ("parabola", "rational", 2)
    with pytest.raises(SystemExit) as exc:
        main(args + ["--weight-exponent", "4"])
    assert exc.value.code == 2


def test_curve_gaussian_determinate(tmp_path):
    out = tmp_path / "curve.json"
    rc = main(["curve", "--curve", "catalog:parabola",
               "--sigma", gaussian_spec(tmp_path, 80),
               "--degree", "6", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"]["status"] == "determinate"


def test_curve_short_spec_lift_regenerates_and_reports_its_degree(tmp_path):
    # the nodal cubic at curve degree 8 needs lift degree 8 * 3 = 24; the
    # spec says 20, so the lift is regenerated and provenance names 24
    out = tmp_path / "curve.json"
    rc = main(["curve", "--curve", "catalog:nodal_cubic",
               "--sigma", gaussian_spec(tmp_path, 20),
               "--degree", "8", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["provenance"]["max_degree"] == 24
    assert rep["provenance"]["mode"] == "rational"


def test_curve_short_interchange_lift_is_an_error(tmp_path):
    # an interchange file keeps its own degree
    sigma = tmp_path / "sigma.json"
    save_moment_sequence(sequence_from_1d([F(1), F(0), F(1), F(0), F(3)], R), str(sigma))
    out = tmp_path / "curve.json"
    rc = main(["curve", "--curve", "catalog:parabola", "--sigma", str(sigma),
               "--degree", "3", "--out", str(out)])
    assert rc == 2
    rep = json.loads(out.read_text())
    assert [e["error"] for e in rep["errors"]] == ["MomentKitError"]
    assert "below required 6" in rep["errors"][0]["detail"]


def test_curve_does_not_push_the_lift_onto_the_curve(tmp_path, monkeypatch):
    """The lift test reads the lift and the curve only, so the curve
    command never builds the curve's own moments (under either name)."""
    def refused(*args):
        raise AssertionError("pushforward_to_curve called")
    monkeypatch.setattr(curves, "pushforward_to_curve", refused)
    monkeypatch.setattr(cli, "pushforward_to_curve", refused, raising=False)
    out = tmp_path / "curve.json"
    rc = main(["curve", "--curve", "catalog:nodal_cubic",
               "--sigma", qlattice_spec(tmp_path, 60), "--degree", "6", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["verdict"]["status"] == "indeterminate"


def test_curve_negative_degree_is_one_structured_error(tmp_path):
    out = tmp_path / "curve.json"
    rc = main(["curve", "--curve", "catalog:parabola", "--sigma", qlattice_spec(tmp_path, 20),
               "--degree", "-2", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert single_error(rc, rep) == ("InvalidParameter", "--degree -2 is negative")


def test_curve_two_dimensional_lift_is_one_structured_error(tmp_path):
    out = tmp_path / "curve.json"
    rc = main(["curve", "--curve", "catalog:parabola", "--sigma", mixed_spec(tmp_path, 12),
               "--degree", "6", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert single_error(rc, rep) == ("InvalidParameter", "the lift must be one-dimensional")


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


def test_curve_spec_mode_is_kept(tmp_path):
    # with no --mode a spec's own mode holds, as in analyze
    spec = write_spec(tmp_path / "ql.json", {
        "measure": {"variant": "q_lattice", "q": "2"},
        "dimension": 1, "max_degree": 40, "mode": "float:128"})
    out = tmp_path / "curve.json"
    rc = main(["curve", "--curve", "catalog:parabola", "--sigma", spec,
               "--degree", "6", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["provenance"]["mode"] == "float:128"


def test_curve_modeless_irrational_spec_runs_in_float_mode(tmp_path):
    # log-normal moments have no rational mode; a mode-less spec starts at
    # 64 + 2N bits
    spec = modeless_spec(tmp_path, {"variant": "log_normal", "s": "1/2"}, 30)
    out = tmp_path / "curve.json"
    rc = main(["curve", "--curve", "catalog:parabola", "--sigma", spec,
               "--degree", "6", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert not rep["errors"] and rep["provenance"]["mode"] == "float:124"


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


# ---------------------------------------------------------------------------
# working precision of a measure spec without a mode


def modeless_spec(tmp_path, measure, degree):
    return write_spec(tmp_path / "modeless.json", {
        "measure": measure, "dimension": 1, "max_degree": degree})


def analyze_report(spec, tmp_path, *extra):
    out = tmp_path / "report.json"
    rc = main(["analyze", "--input", spec, *extra, "--out", str(out)])
    return rc, json.loads(out.read_text())


LOG_NORMAL_SPEC = {"variant": "log_normal", "s": "1"}


def test_modeless_spec_doubles_its_precision_until_the_pivots_have_headroom(tmp_path):
    """Log-normal s = 1/8, N = 20 starts at 64 + 2N = 104 bits, where a
    pivot keeps fewer than half the bits, and is rerun at 208; the verdict
    is the one at the cap (its moments have no rational mode)."""
    spec = modeless_spec(tmp_path, {"variant": "log_normal", "s": "1/8"}, 20)
    rc, rep = analyze_report(spec, tmp_path)
    assert rc == 0 and not rep["errors"]
    assert rep["provenance"]["mode"] == "float:208"
    rc, wide = analyze_report(spec, tmp_path, "--mode", f"float:{default_float_bits(20)}")
    assert rc == 0
    assert signature(rep) == signature(wide)


def test_curve_modeless_spec_doubles_its_precision(tmp_path):
    # log-normal s = 1/8, N = 20: the lift's recurrence keeps too few bits
    # at the starting 104, so curve reruns at 208, as analyze does, and
    # reports what an explicit float:208 run reports
    spec = modeless_spec(tmp_path, {"variant": "log_normal", "s": "1/8"}, 20)
    reports = []
    for extra in ((), ("--mode", "float:208")):
        out = tmp_path / "curve.json"
        rc = main(["curve", "--curve", "catalog:parabola", "--sigma", spec,
                   "--degree", "6", *extra, "--out", str(out)])
        assert rc == 0
        reports.append(json.loads(out.read_text()))
    modeless, explicit = reports
    assert not modeless["errors"] and modeless["provenance"]["mode"] == "float:208"
    assert modeless["verdict"] == explicit["verdict"]


def test_explicit_mode_is_not_raised(tmp_path):
    """At an explicit float:128 the recurrence keeps too few bits; the
    error is reported, not a verdict, and no other precision is tried."""
    spec = modeless_spec(tmp_path, {"variant": "exponential"}, 80)
    rc, rep = analyze_report(spec, tmp_path, "--mode", "float:128")
    assert rc == 2
    assert [e["error"] for e in rep["errors"]] == ["PrecisionExhausted"]
    assert "verdict" not in rep


def test_modeless_report_reruns_at_its_recorded_mode(tmp_path):
    """The recorded mode is "rational" for the exponential, and the float
    mode the doubling loop reached for log-normal s = 1/8."""
    criteria = ["--criteria", "verdict,admissibility,carleman,christoffel,weyl"]
    for measure, degree, mode in (({"variant": "exponential"}, 80, "rational"),
                                  ({"variant": "log_normal", "s": "1/8"}, 20, "float:208")):
        spec = modeless_spec(tmp_path, measure, degree)
        rc, first = analyze_report(spec, tmp_path, *criteria)
        assert rc == 0 and first["provenance"]["mode"] == mode
        rc, again = analyze_report(spec, tmp_path, *criteria,
                                   "--mode", first["provenance"]["mode"])
        assert rc == 0
        first.pop("generated_at")
        again.pop("generated_at")
        assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_precision_exhausted_in_a_criterion_entry_raises_the_precision(tmp_path,
                                                                        monkeypatch):
    """A PrecisionExhausted from one criterion entry reruns the whole
    command at twice the bits, and the report holds no error."""
    from momentkit.errors import PrecisionExhausted

    real = cli.cosine_envelope

    def cosine_envelope(seq, order):
        if seq.mode.precision_bits < 200:
            raise PrecisionExhausted("test: too few bits")
        return real(seq, order)

    monkeypatch.setattr(cli, "cosine_envelope", cosine_envelope)
    spec = modeless_spec(tmp_path, LOG_NORMAL_SPEC, 40)
    rc, rep = analyze_report(spec, tmp_path, "--criteria", "verdict,cosine")
    assert rc == 0 and not rep["errors"]
    assert rep["provenance"]["mode"] == "float:288"


def test_precision_exhausted_at_the_cap_is_reported(tmp_path, monkeypatch):
    """The loop stops at default_float_bits(N); there the criterion error
    is reported as it is for an explicit mode."""
    from momentkit.errors import PrecisionExhausted

    def cosine_envelope(seq, order):
        raise PrecisionExhausted("test: never enough bits")

    monkeypatch.setattr(cli, "cosine_envelope", cosine_envelope)
    spec = modeless_spec(tmp_path, LOG_NORMAL_SPEC, 10)
    rc, rep = analyze_report(spec, tmp_path, "--criteria", "verdict,cosine")
    assert rc == 2
    assert rep["provenance"]["mode"] == "float:464"          # 84, 168, 336, then the cap
    assert rep["verdict"]["status"] == "indeterminate"
    assert [(e["criterion"], e["error"]) for e in rep["errors"]] == \
        [("cosine", "PrecisionExhausted")]


def test_modeless_hyperplane_lp_solves_at_its_starting_precision(tmp_path):
    """The grid LP solves a float LP exactly on its binary data, so the
    log-normal (s = 1) hyperplane entry holds at the starting float:104: an
    explicit float:104 run reports it, a mode-less run stays there, and
    both agree with the run at the cap."""
    spec = modeless_spec(tmp_path, LOG_NORMAL_SPEC, 20)
    criteria = ("--criteria", "hyperplane")
    rc, low = analyze_report(spec, tmp_path, *criteria, "--mode", "float:104")
    assert rc == 0 and not low["errors"]
    rc, approx = analyze_report(spec, tmp_path, *criteria)
    assert rc == 0 and not approx["errors"]
    assert approx["provenance"]["mode"] == "float:104"
    rc, wide = analyze_report(spec, tmp_path, *criteria,
                              "--mode", f"float:{default_float_bits(20)}")
    assert rc == 0
    (want,) = wide["criteria"]
    for (got,) in (low["criteria"], approx["criteria"]):
        for side in ("value_plus", "value_minus"):
            value = float(want[side]["decimal"])
            assert abs(float(got[side]["decimal"]) - value) <= 1e-12 * abs(value)


MODELESS_CATALOG = {
    "gaussian": {"variant": "gaussian_product", "variances": ["1"]},
    "exponential": {"variant": "exponential"},
    "q_lattice": {"variant": "q_lattice", "q": "2"},
    "atomic": {"variant": "atomic", "points": [["0"], ["1/2"], ["3"]],
               "weights": ["1", "2", "1/3"]},
}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(MODELESS_CATALOG)), st.integers(min_value=8, max_value=80))
def test_modeless_verdict_agrees_with_rational(tmp_path_factory, name, degree):
    """A family with rational moments runs in rational mode: the report is
    the ``--mode rational`` one byte for byte (an atomic spec's finite rank
    is a rigorous item, so it reads determinate)."""
    tmp_path = tmp_path_factory.mktemp("modeless")
    spec = modeless_spec(tmp_path, MODELESS_CATALOG[name], degree)
    rc, modeless = analyze_report(spec, tmp_path)
    assert rc == 0 and modeless["provenance"]["mode"] == "rational"
    rc, exact = analyze_report(spec, tmp_path, "--mode", "rational")
    assert rc == 0
    if name == "atomic":
        assert exact["verdict"]["status"] == "determinate"
    modeless.pop("generated_at")
    exact.pop("generated_at")
    assert json.dumps(modeless, sort_keys=True) == json.dumps(exact, sort_keys=True)


@pytest.mark.parametrize("measure, dimension", [
    (LOG_NORMAL_SPEC, 1),
    ({"variant": "product", "factors": [
        {"measure": {"variant": "gaussian_product", "variances": ["1"]}, "dimension": 1},
        {"measure": LOG_NORMAL_SPEC, "dimension": 1}]}, 2),
])
def test_modeless_spec_without_rational_moments_starts_in_float(tmp_path, measure, dimension):
    """Log-normal moments exp(k^2 s^2 / 2) have no rational mode, in a
    product too: such a spec starts at float:64+2N and may double up to
    the cap."""
    spec = write_spec(tmp_path / "spec.json", {"measure": measure, "dimension": dimension,
                                               "max_degree": 10})
    _seq, provenance, cap = cli.load_input(spec, None, None)
    assert provenance["mode"] == "float:84" and cap == default_float_bits(10)


# ---------------------------------------------------------------------------
# one factorization per sequence


def test_analyze_1d_scan_shares_the_verdict_factorization(tmp_path, monkeypatch):
    """In 1D the scan's only direction is (1,), whose push-forward is the
    input itself; it reads the recurrence the verdict already made."""
    calls = count_factorizations(monkeypatch)
    rc, rep = analyze_report(qlattice_spec(tmp_path, 40), tmp_path,
                             "--criteria", "verdict,scan")
    assert rc == 0
    assert calls == [20]
    rows = rep["criteria"][0]["rows"]
    assert rows == [{"direction": [1.0], "status": rep["verdict"]["status"]}]



def interchange(**entry):
    """A 1D rational interchange document whose m_1 entry is replaced by ``entry``."""
    entries = [{"alpha": [0], "value": "1"}, dict({"alpha": [1], "value": "0"}, **entry),
               {"alpha": [2], "value": "1"}]
    return {"dimension": 1, "max_degree": 2, "mode": "rational", "entries": entries}


GAUSS_SPEC = {"measure": {"variant": "gaussian_product", "variances": ["1"]},
              "dimension": 1, "max_degree": 4, "mode": "rational"}


@pytest.mark.parametrize("doc, extra, detail", [
    ([1], (), "the input document"),
    ("measure", (), "the input document"),
    (dict(GAUSS_SPEC, measure=5), (), "measure"),
    (dict(GAUSS_SPEC, measure={"variant": "gaussian_product", "variances": 1}), (), "variances"),
    (dict(GAUSS_SPEC, measure={"variant": "q_lattice", "q": "2/0"}), (), "'q'"),
    (interchange(alpha=0), (), "'alpha'"),
    (interchange(value=None), (), "'value'"),
    (GAUSS_SPEC, ("--mode", "float:abc"), "unknown mode 'float:abc'"),
    ([1], ("curve",), "a curve document"),
    (dict(interchange(), support_hint={"kind": "cone", "generators": [["1", "2"]]}), (),
     "'generators'"),
    (5, ("scan",), "'directions'"),
    ([1, 2], ("scan",), "'directions'"),
    ([[1, None]], ("scan",), "'directions'"),
    ([[math.inf, 1]], ("scan",), "'directions'"),
    (dict(GAUSS_SPEC, max_degree=math.inf), (), "'max_degree'"),
])
def test_malformed_documents_give_one_structured_error(tmp_path, doc, extra, detail):
    """A document no reader can take is one InvalidParameter entry naming
    the field, with exit code 2, never a traceback."""
    path = write_spec(tmp_path / "doc.json", doc)
    out = tmp_path / "report.json"
    if extra == ("curve",):
        argv = ["curve", "--curve", path, "--sigma", gaussian_spec(tmp_path, 8)]
    elif extra == ("scan",):
        spec = write_spec(tmp_path / "gauss2.json", dict(GAUSS_SPEC, dimension=2, measure={
            "variant": "gaussian_product", "variances": ["1", "1"]}))
        argv = ["scan", "--input", spec, "--directions", path]
    else:
        argv = ["analyze", "--input", path, *extra]
    assert main([*argv, "--out", str(out)]) == 2
    errors = json.loads(out.read_text())["errors"]
    assert [e["error"] for e in errors] == ["InvalidParameter"]
    assert detail in errors[0]["detail"]


@pytest.mark.parametrize("measure, dimension, error", [
    ({"variant": "exponential"}, 2, "DimensionMismatch"),
    ({"variant": "q_lattice", "q": "1"}, 1, "InvalidParameter"),
    ({"variant": "log_normal", "s": "0"}, 1, "InvalidParameter"),
    ({"variant": "gaussian_product", "variances": ["1"]}, 2, "DimensionMismatch"),
    ({"variant": "atomic", "points": [["0"], ["1"]], "weights": ["1"]}, 1,
     "InvalidParameter"),
], ids=["exponential-2d", "q-lattice-q1", "log-normal-s0", "gaussian-one-variance",
        "atomic-two-points-one-weight"])
def test_specs_no_measure_fits_give_one_structured_error(tmp_path, measure, dimension,
                                                         error):
    """A spec whose parameters describe no measure of its dimension is one
    structured error with exit code 2 (the log-normal one is mode-less,
    since rational mode refuses it as irrational first)."""
    path = write_spec(tmp_path / "spec.json", {"measure": measure, "dimension": dimension,
                                               "max_degree": 4})
    rc, rep = analyze_report(path, tmp_path)
    assert rc == 2
    assert [e["error"] for e in rep["errors"]] == [error]


@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_an_unwritable_out_reports_to_stderr(tmp_path, capsys, command):
    """When ``--out`` cannot be written, the JSON report of ``analyze`` or
    the CSV of ``scan`` becomes one structured error on stderr, exit 2."""
    out = tmp_path / "missing" / "report"
    assert main([command, "--input", gauss_spec(tmp_path, 2, 4), "--out", str(out)]) == 2
    errors = json.loads(capsys.readouterr().err)["errors"]
    assert [e["error"] for e in errors] == ["FileNotFoundError"]
    assert str(out) in errors[0]["detail"]


def test_degree_zero_is_honoured_for_a_spec(tmp_path):
    """``--degree 0`` truncates a measure spec to degree 0 as it does an
    interchange file, which no recurrence can run on: one structured
    error, exit code 2."""
    spec = gaussian_spec(tmp_path, 8)
    _seq, provenance, _cap = cli.load_input(spec, None, 0)
    assert provenance["max_degree"] == 0
    rc, rep = analyze_report(spec, tmp_path, "--degree", "0")
    assert rc == 2
    assert rep["errors"] == [{"error": "InvalidParameter",
                              "detail": "recurrence order must be at least 1"}]


@pytest.mark.parametrize("doc, detail", [
    (dict(interchange(), dimension=2 ** 70), "field 'dimension'"),
    (dict(GAUSS_SPEC, max_degree=2 ** 70), "field 'max_degree'"),
    (dict(GAUSS_SPEC, max_degree=10 ** 9), "field 'max_degree'"),
    (dict(interchange(), dimension=10000), "field 'dimension'"),
    (dict(interchange(), dimension=10000, max_degree=0),
     "missing entry for multi-index (0, 0, 0, 0, 0, 0, 0, 0, ... 10000 entries)"),
    (dict(GAUSS_SPEC, dimension=0), "field 'dimension'"),
])
def test_unbounded_documents_give_one_short_structured_error(tmp_path, doc, detail):
    """A document asking for more moments than ``MAX_MOMENT_ENTRIES``, or
    for no variables, is refused before anything is allocated: exit 2 and
    one InvalidParameter naming the field within 5 s, and a multi-index in
    a detail is cut to a short prefix."""
    def timeout(signum, frame):
        raise TimeoutError("no answer within 5 s")

    path = write_spec(tmp_path / "doc.json", doc)
    out = tmp_path / "report.json"
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        assert main(["analyze", "--input", path, "--out", str(out)]) == 2
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    errors = json.loads(out.read_text())["errors"]
    assert [e["error"] for e in errors] == ["InvalidParameter"]
    assert detail in errors[0]["detail"] and len(errors[0]["detail"]) < 200


def gauss_spec(tmp_path, dimension, degree, mode="rational"):
    return write_spec(tmp_path / f"gauss{dimension}.json", {
        "measure": {"variant": "gaussian_product", "variances": ["1"] * dimension},
        "dimension": dimension, "max_degree": degree, "mode": mode})


def csv_rows(path):
    return list(csv.reader(path.read_text().splitlines()))


def test_scan_4d_rows_have_as_many_fields_as_the_header(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--input", gauss_spec(tmp_path, 4, 4), "--directions", "3",
                 "--out", str(out)]) == 0
    rows = csv_rows(out)
    assert rows[0] == ["xi_0", "xi_1", "xi_2", "xi_3", "status", "numeric_flagged",
                       "criteria"]
    assert [len(r) for r in rows] == [7] * 5
    assert rows[-1][:4] == ["aggregate", "", "", ""]
    assert rows[-1][4] in ("determinate", "indeterminate", "inconclusive")


def test_scan_on_a_1d_input_is_one_structured_error(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--input", gaussian_spec(tmp_path, 8), "--out", str(out)]) == 2
    assert json.loads(out.read_text())["errors"] == [
        {"error": "MomentKitError", "detail": "scan needs a multivariate input"}]


def test_float_scan_writes_directions_as_shortest_decimals(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--input", gauss_spec(tmp_path, 2, 8, "float:128"),
                 "--directions", "2", "--out", str(out)]) == 0
    rows = csv_rows(out)
    assert rows[1][:2] == ["1.0", "0.0"]
    assert all(repr(float(c)) == c for row in rows[1:-1] for c in row[:2])
    assert rows[-1][:3] == ["aggregate", "", "determinate"]


# a measure on the cone spanned by (1, 0) and (1, 1): the image of two
# independent unit exponentials s, t under (s, t) -> (s + t, t)
CONE_2D = {"dimension": 2, "max_degree": 2, "mode": "rational",
           "support_hint": {"kind": "cone", "generators": [["1", "0"], ["1", "1"]]},
           "entries": [{"alpha": [i, j], "value": v} for (i, j), v in
                       (((0, 0), "1"), ((1, 0), "2"), ((0, 1), "1"),
                        ((2, 0), "6"), ((1, 1), "3"), ((0, 2), "2"))]}


@pytest.mark.parametrize("criterion", ["fantappie", "hyperplane"])
def test_cone_criteria_off_the_orthant_name_the_support(tmp_path, criterion):
    rc, rep = analyze_report(write_spec(tmp_path / "cone.json", CONE_2D), tmp_path,
                             "--criteria", criterion)
    assert rc == 2
    assert rep["errors"] == [{"error": "WrongSupport",
                              "detail": f"criterion '{criterion}' needs the nonnegative "
                                        "orthant; input support is cone"}]


def test_analyze_poisson_on_a_2d_input_is_the_grid_lp_estimate(tmp_path):
    spec = gauss_spec(tmp_path, 2, 4)
    rc, rep = analyze_report(spec, tmp_path, "--criteria", "poisson")
    assert rc == 0 and not rep["errors"]
    seq, _provenance, _cap = cli.load_input(spec, None, None)
    est = gaps.poisson_kappa_estimate(seq, (0, 0), 1, 2)
    [entry] = rep["criteria"]
    assert entry["gap"] == format_value(R, est.gap)
    assert (entry["certified"], entry["degree"], entry["sufficiency"]) == (False, 2, "heuristic")
    assert entry["grid"]["size"] == est.grid["size"] == 49


def test_degree_truncates_an_interchange_file(tmp_path):
    """``--degree 2`` on a degree-4 interchange file reads the file's
    entries up to degree 2, as a degree-2 file of the same entries."""
    def doc(degree):
        values = ("1", "0", "1", "0", "3")[: degree + 1]
        return {"dimension": 1, "max_degree": degree, "mode": "rational",
                "entries": [{"alpha": [k], "value": v} for k, v in enumerate(values)]}

    rc, rep = analyze_report(write_spec(tmp_path / "d4.json", doc(4)), tmp_path,
                             "--degree", "2", "--criteria", "verdict,admissibility")
    rc2, rep2 = analyze_report(write_spec(tmp_path / "d2.json", doc(2)), tmp_path,
                               "--criteria", "verdict,admissibility")
    assert rc == rc2 == 0
    assert rep["provenance"]["max_degree"] == rep["input_summary"]["max_degree"] == 2
    assert (rep["verdict"], rep["criteria"]) == (rep2["verdict"], rep2["criteria"])


def test_float_kappa_field_agrees_with_rational(tmp_path):
    """The exact 1D Poisson gap at float:128 (its square root and pi in
    the float mode) agrees with the rational run's to 1e-12 relative."""
    fields = []
    for mode in ("float:128", "rational"):
        out = tmp_path / f"kappa-{mode}.csv"
        assert main(["kappa", "--input", gauss_spec(tmp_path, 1, 12, mode),
                     "--field=-1:1:3,1:2:2", "--out", str(out)]) == 0
        fields.append(csv_rows(out)[1:])
    for got, want in zip(*fields):
        assert got[3] == want[3] == "weyl-disk-1d"
        assert math.isclose(float(got[2]), float(want[2]), rel_tol=1e-12)
        assert float(got[2]) > 0
