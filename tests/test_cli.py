import csv
import json
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

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


# ---------------------------------------------------------------------------
# working precision of a measure spec without a mode


def modeless_spec(tmp_path, measure, degree):
    return write_spec(tmp_path / "modeless.json", {
        "measure": measure, "dimension": 1, "max_degree": degree})


def analyze_report(spec, tmp_path, *extra):
    out = tmp_path / "report.json"
    rc = main(["analyze", "--input", spec, *extra, "--out", str(out)])
    return rc, json.loads(out.read_text())


def test_modeless_spec_doubles_its_precision_until_the_pivots_have_headroom(tmp_path):
    """Exponential N = 80 starts at 64 + 2N = 224 bits, where a pivot keeps
    fewer than half the bits, and is rerun at 448; the verdict is the
    rational one."""
    spec = modeless_spec(tmp_path, {"variant": "exponential"}, 80)
    rc, rep = analyze_report(spec, tmp_path)
    assert rc == 0 and not rep["errors"]
    assert rep["provenance"]["mode"] == "float:448"
    rc, exact = analyze_report(spec, tmp_path, "--mode", "rational")
    assert rc == 0
    assert signature(rep) == signature(exact)


def test_explicit_mode_is_not_raised(tmp_path):
    """At an explicit float:128 the recurrence keeps too few bits; the
    error is reported, not a verdict, and no other precision is tried."""
    spec = modeless_spec(tmp_path, {"variant": "exponential"}, 80)
    rc, rep = analyze_report(spec, tmp_path, "--mode", "float:128")
    assert rc == 2
    assert [e["error"] for e in rep["errors"]] == ["PrecisionExhausted"]
    assert "verdict" not in rep


def test_modeless_report_reruns_at_its_recorded_mode(tmp_path):
    spec = modeless_spec(tmp_path, {"variant": "exponential"}, 80)
    criteria = ["--criteria", "verdict,admissibility,carleman,christoffel,weyl"]
    rc, first = analyze_report(spec, tmp_path, *criteria)
    assert rc == 0
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
    spec = modeless_spec(tmp_path, {"variant": "gaussian_product", "variances": ["1"]}, 40)
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
    spec = modeless_spec(tmp_path, {"variant": "gaussian_product", "variances": ["1"]}, 10)
    rc, rep = analyze_report(spec, tmp_path, "--criteria", "verdict,cosine")
    assert rc == 2
    assert rep["provenance"]["mode"] == "float:464"          # 84, 168, 336, then the cap
    assert rep["verdict"]["status"] == "determinate"
    assert [(e["criterion"], e["error"]) for e in rep["errors"]] == \
        [("cosine", "PrecisionExhausted")]


def test_modeless_hyperplane_lp_reruns_until_its_grid_measure_holds(tmp_path):
    """At the starting float:104 rounding carries the q-lattice grid LP to a
    wrong vertex (value_plus 0.8233 against the exact 0.4564).  The check of
    the optimal grid measure raises PrecisionExhausted, which an explicit
    mode reports and a mode-less run answers with twice the bits, until the
    values are the rational ones."""
    spec = modeless_spec(tmp_path, {"variant": "q_lattice", "q": "2"}, 20)
    criteria = ("--criteria", "hyperplane")
    rc, low = analyze_report(spec, tmp_path, *criteria, "--mode", "float:104")
    assert rc == 2 and not low["criteria"]
    assert [e["error"] for e in low["errors"]] == ["PrecisionExhausted"]
    rc, approx = analyze_report(spec, tmp_path, *criteria)
    assert rc == 0 and not approx["errors"]
    assert approx["provenance"]["mode"] == "float:416"        # 104, 208, then 416
    rc, exact = analyze_report(spec, tmp_path, *criteria, "--mode", "rational")
    assert rc == 0
    (got,), (want,) = approx["criteria"], exact["criteria"]
    for side in ("value_plus", "value_minus"):
        value = float(F(want[side]["rational"]))
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
    tmp_path = tmp_path_factory.mktemp("modeless")
    spec = modeless_spec(tmp_path, MODELESS_CATALOG[name], degree)
    rc, approx = analyze_report(spec, tmp_path)
    assert rc == 0 and approx["provenance"]["mode"].startswith("float:")
    rc, exact = analyze_report(spec, tmp_path, "--mode", "rational")
    assert rc == 0
    if name == "atomic":
        # a float finite-rank item is limit-rigorous, which the status rules
        # do not let decide: the same rank, but inconclusive
        assert exact["verdict"]["status"] == "determinate"
        assert approx["verdict"]["status"] == "inconclusive"
    else:
        assert approx["verdict"]["status"] == exact["verdict"]["status"]


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

