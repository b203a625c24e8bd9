"""Batch front end: analyze / scan / kappa / curve subcommands.

Inputs are moment-sequence interchange files or measure-definition specs
(JSON with a top-level "measure" block); outputs are JSON reports or CSV
tables with a provenance block (input hash, mode, degree, grid descriptors,
toolkit version).  Reports are deterministic: identical config and input
produce byte-identical output except the isolable "generated_at" field.
Exit code 0 for any verdict, 2 on errors (which are themselves reported as
structured entries).

A measure spec with neither a "mode" of its own nor ``--mode`` runs in
rational mode, exactly, whenever its closed-form moments are rational (every
catalog family but log-normal, and every product of them).  A spec whose
moment rule raises UnrepresentableInMode in rational mode runs in float mode
at ``64 + 2N`` bits instead.  Wherever that command raises
PrecisionExhausted (the verdict, a scan direction, a curve lift, one
criterion entry of ``analyze``), the moments are regenerated at twice the
bits and the command reruns, up to ``scalars.default_float_bits(N)``; at
that cap the error is reported.  The provenance "mode" names the mode and
precision used.  Rational runs, explicit modes and interchange files run
once.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import json
import math
import sys
from fractions import Fraction
from typing import Any

from . import __version__
from .curves import catalog, curve_from_json, lift_and_test
from .envelopes import cosine_envelope, geometric_envelope
from .errors import (InvalidParameter, MomentKitError, NotAdmissible, PrecisionExhausted,
                     UnrepresentableInMode)
from .gaps import (
    GapEstimate,
    direction_scan,
    direction_set,
    hyperplane_gap,
    orthant_criterion,
    poisson_kappa_1d,
    poisson_kappa_estimate,
    sphere_average_kappa,
)
from .hamburger import carleman, christoffel, recurrence_from_moments, verdict_1d, weyl_disk
from .moments import (
    Atomic,
    Exponential1D,
    GaussianProduct,
    LogNormal1D,
    MomentSequence,
    NonnegativeOrthant,
    Product,
    QLattice1D,
    check_moment_count,
    generate_moments,
    pushforward_direction,
)
from .polynomials import multi_indices
from .scalars import (Mode, RationalMode, complex_scalar, default_float_bits, mode_from_string,
                      mode_to_string)
from .serialization import (format_value, json_list, json_object, rationals, read_field,
                            sequence_from_json, support_to_json)
from .verdicts import Flavor

CRITERIA = ("admissibility", "carleman", "christoffel", "weyl", "fantappie",
            "cosine", "poisson", "orthant", "hyperplane", "scan")
CONE_ONLY = {"fantappie", "hyperplane"}
#: criteria read off a 1D sequence: the input itself, or the first-axis
#: push-forward of a multivariate input
ONE_D = {"admissibility", "carleman", "christoffel", "weyl", "fantappie", "cosine"}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "scan":
            return cmd_scan(args)
        if args.command == "kappa":
            return cmd_kappa(args)
        if args.command == "curve":
            return cmd_curve(args)
    except (MomentKitError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _write_error_report(args, exc)
        return 2
    return 2


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of ``main`` rather than
    at import, and kept for every later call."""
    parser = argparse.ArgumentParser(prog="momentkit",
                                     description="moment determinacy analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run a criterion suite, emit a JSON report")
    _common_input_args(pa)
    pa.add_argument("--criteria", default="verdict",
                    help="comma list from: verdict," + ",".join(CRITERIA))
    pa.add_argument("--out", required=True)

    ps = sub.add_parser("scan", help="direction scan (d >= 2), emit CSV")
    _common_input_args(ps)
    ps.add_argument("--directions", default="8",
                    help="direction count, or a JSON file with a list of vectors")
    ps.add_argument("--out", required=True)

    pk = sub.add_parser("kappa", help="Poisson gap field, emit CSV")
    _common_input_args(pk)
    pk.add_argument("--field", default="-2:2:5,0.5:2:4",
                    help="x0:x1:nx,t0:t1:nt grid specification")
    pk.add_argument("--lp-degree", type=int, default=2)
    pk.add_argument("--sphere-average", action="store_true")
    pk.add_argument("--out", required=True)

    pc = sub.add_parser("curve", help="curve lift analysis, emit a JSON report")
    pc.add_argument("--curve", required=True,
                    help="catalog:<name> or a curve description file")
    pc.add_argument("--sigma", required=True, help="1D lift: spec or interchange file")
    pc.add_argument("--mode", default=None,
                    help="rational | float:<bits>; spec files may set their own")
    pc.add_argument("--degree", type=int, default=8)
    pc.add_argument("--out", required=True)
    return parser


def _common_input_args(p) -> None:
    p.add_argument("--input", required=True, help="interchange file or measure spec")
    p.add_argument("--mode", default=None,
                   help="rational | float:<bits>; spec files may set their own")
    p.add_argument("--degree", type=int, default=None)


# ---------------------------------------------------------------------------
# input loading


def load_input(path: str, mode_arg: str | None, degree_arg: int | None,
               bits: int | None = None) -> tuple:
    """(sequence, provenance dict, cap).  Measure specs carry closed-form
    moment rules; interchange files carry the numbers themselves.  A spec
    whose mode is left open is generated in rational mode unless its rule
    raises UnrepresentableInMode there, and then at ``float:<bits>``
    (default ``64 + 2N``, never above ``cap = default_float_bits(N)``, the
    most bits a rerun may ask for); ``cap`` is None when the mode is fixed
    or rational."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    doc = json_object(json.loads(raw.decode("utf-8")), "the input document")
    cap = None
    if "measure" in doc:
        dimension = read_field(doc, "dimension", int, 1)
        max_degree = (degree_arg if degree_arg is not None
                      else read_field(doc, "max_degree", int, 20))
        check_moment_count(dimension, max_degree)
        mode_str = mode_arg or doc.get("mode")
        mode = None if mode_str is None else mode_from_string(mode_str)
        defn = _measure_from_json(doc["measure"])
        if mode is None:
            seq, cap = _modeless_moments(defn, dimension, max_degree, bits)
        else:
            seq = generate_moments(defn, dimension, max_degree, mode)
    else:
        seq = sequence_from_json(raw.decode("utf-8"))
        if degree_arg is not None and degree_arg < seq.max_degree:
            entries = {a: seq.entries[a] for a in multi_indices(seq.dimension, degree_arg)}
            seq = MomentSequence(seq.dimension, degree_arg, seq.mode, entries,
                                 seq.support, seq.meta)
    provenance = {
        "input_path": path,
        "input_sha256": digest,
        "mode": mode_to_string(seq.mode),
        "max_degree": seq.max_degree,
        "toolkit_version": __version__,
    }
    return seq, provenance, cap


def _modeless_moments(defn, dimension: int, max_degree: int, bits: int | None) -> tuple:
    """(sequence, cap) of a spec with no mode, as ``load_input`` describes.
    Only a float-mode run is rerun, and a rerun passes ``bits``."""
    if bits is None:
        try:
            return generate_moments(defn, dimension, max_degree, RationalMode()), None
        except UnrepresentableInMode:
            pass
    cap = default_float_bits(max_degree)
    mode = mode_from_string(f"float:{min(bits or 64 + 2 * max_degree, cap)}")
    return generate_moments(defn, dimension, max_degree, mode), cap


def _with_precision(command):
    """``command(args, seq, provenance, retry)`` on the loaded ``--input``,
    through ``_rerun``."""
    @functools.wraps(command)
    def run(args) -> int:
        return _rerun(lambda bits: load_input(args.input, args.mode, args.degree, bits),
                      functools.partial(command, args))
    return run


def _rerun(load, command) -> int:
    """``command(seq, provenance, retry)`` on ``load(None)``, rerun on
    ``load(bits)`` at twice the bits on PrecisionExhausted while the loader
    leaves the mode open and the cap allows.  ``retry`` tells the command
    whether such an error will be retried, so that ``analyze`` raises it
    out of a criterion entry rather than report it."""
    seq, provenance, cap = load(None)
    while True:
        retry = cap is not None and seq.mode.precision_bits < cap
        try:
            return command(seq, provenance, retry)
        except PrecisionExhausted:
            if not retry:
                raise
        seq, provenance, cap = load(2 * seq.mode.precision_bits)


def _measure_from_json(doc):
    doc = json_object(doc, "measure")
    kind = read_field(doc, "variant")
    if kind == "gaussian_product":
        return GaussianProduct(read_field(doc, "variances", rationals))
    if kind == "exponential":
        return Exponential1D()
    if kind == "log_normal":
        return LogNormal1D(read_field(doc, "s"))
    if kind == "q_lattice":
        return QLattice1D(read_field(doc, "q", Fraction))
    if kind == "atomic":
        return Atomic(read_field(doc, "points", lambda ps: tuple(map(rationals, json_list(ps)))),
                      read_field(doc, "weights", rationals))
    if kind == "product":
        factors = [json_object(f, "a factor") for f in read_field(doc, "factors", json_list)]
        return Product(tuple((_measure_from_json(read_field(f, "measure")),
                              read_field(f, "dimension", int)) for f in factors))
    raise MomentKitError(f"unknown measure variant {kind!r}")


# ---------------------------------------------------------------------------
# analyze


@_with_precision
def cmd_analyze(args, seq: MomentSequence, provenance: dict, retry: bool) -> int:
    wanted = [c.strip() for c in args.criteria.split(",") if c.strip()]
    for name in wanted:
        if name not in CRITERIA and name != "verdict":
            raise MomentKitError(f"unknown criterion {name!r}")
        if name in CONE_ONLY and not isinstance(seq.support, NonnegativeOrthant):
            raise MomentKitError(
                f"criterion {name!r} needs cone support; input is full-space"
            )
    report: dict[str, Any] = {
        "schema_version": "1",
        "provenance": dict(provenance, criteria=wanted),
        "input_summary": {
            "dimension": seq.dimension,
            "max_degree": seq.max_degree,
            "support": support_to_json(seq.support),
        },
        "criteria": [],
        "errors": [],
    }
    mode = seq.mode
    fmt = lambda v: format_value(mode, v)

    verdict = scan = None
    try:
        if seq.dimension == 1:
            verdict = verdict_1d(seq)
        elif "scan" in wanted or "verdict" in wanted:
            scan = _scan(seq)
            verdict = scan["aggregate"]
    except NotAdmissible as exc:
        report["errors"].append({"error": "NotAdmissible", "detail": str(exc)})
        _finish_report(report, args.out)
        return 2

    if verdict is not None:
        report["verdict"] = verdict.as_dict(lambda v: fmt(v))

    s1 = _as_1d(seq) if ONE_D.intersection(wanted) else None
    for name in wanted:
        if name == "verdict":
            continue
        try:
            report["criteria"].append(_run_criterion(name, seq, s1, scan))
        except MomentKitError as exc:
            if retry and isinstance(exc, PrecisionExhausted):
                raise
            report["errors"].append({"criterion": name, "error": type(exc).__name__,
                                     "detail": str(exc)})
    _finish_report(report, args.out)
    return 0 if not report["errors"] else 2


def _run_criterion(name: str, seq: MomentSequence, s1: MomentSequence | None,
                   scan: dict | None) -> dict:
    """One criterion entry of an analyze report.  ``s1`` is the 1D sequence
    of the ``ONE_D`` criteria and ``scan`` the direction scan the verdict
    already ran, if any."""
    mode = seq.mode
    fmt = lambda v: format_value(mode, v)
    out: dict[str, Any] = {"name": name}
    if name == "admissibility":
        # the recurrence raises NotAdmissible for data no measure has
        n = s1.max_degree // 2
        rec = recurrence_from_moments(s1, n)
        out.update(classification=("positive_definite" if rec.rank > n
                                   else "positive_semidefinite"),
                   rank=rec.rank, sufficiency="necessary-only")
        return out
    if name == "carleman":
        flavor = (Flavor.STIELTJES if isinstance(s1.support, NonnegativeOrthant)
                  else Flavor.HAMBURGER)
        res = carleman(s1, flavor, max(s1.max_degree // 2, 1))
        out.update(partial_sum=fmt(res.partial_sum), diverging=res.diverging,
                   horizon=res.horizon, flavor=res.flavor.value,
                   sufficiency=("rigorous-sufficient" if res.diverging and
                                s1.is_certified_carleman() else "limit-rigorous-numeric"))
        return out
    if name in ("christoffel", "weyl"):
        rec = recurrence_from_moments(s1, s1.max_degree // 2)
        z = complex_scalar(mode, 0, 1)
        top = min(rec.order - 1, rec.rank - 1)
        if name == "christoffel":
            values = {n: fmt(christoffel(rec, z, n))
                      for n in sorted({max(top // 4, 1), max(top // 2, 1), top})}
            out.update(values={str(k): v for k, v in values.items()},
                       sufficiency="limit-rigorous-numeric")
        else:
            disk = weyl_disk(rec, z, top)
            out.update(center_re=fmt(disk.center.re), center_im=fmt(disk.center.im),
                       radius_sq=fmt(disk.radius_sq), degree=top,
                       degenerate=disk.degenerate,
                       sufficiency="limit-rigorous-numeric")
        return out
    if name == "fantappie":
        env = geometric_envelope(s1, min(4, s1.max_degree // 2))
        est = GapEstimate.from_envelope(env, s1)
        out.update(envelope_gap=fmt(env.gap_functional), order=env.order,
                   sup_side=fmt(est.sup_side), inf_side=fmt(est.inf_side),
                   certified=True, sufficiency="necessary-only")
        return out
    if name == "cosine":
        env = cosine_envelope(s1, min(4, s1.max_degree // 2))
        out.update(envelope_gap=fmt(env.gap_functional), order=env.order,
                   certified=True, sufficiency="necessary-only")
        return out
    if name == "poisson":
        if seq.dimension == 1:
            k = poisson_kappa_1d(seq, 0, 1, max((seq.max_degree - 2) // 2, 1))
            out.update(kappa=fmt(k), point=[0.0, 1.0], exact=True,
                       sufficiency="limit-rigorous-numeric")
        else:
            est = poisson_kappa_estimate(seq, (0,) * seq.dimension, 1,
                                         min(2, seq.max_degree))
            out.update(gap=fmt(est.gap), certified=False, degree=est.degree,
                       grid=est.grid, sufficiency="heuristic")
        return out
    if name == "orthant":
        corners = [(0,) * seq.dimension]
        one = mode.one()
        corners += [tuple((one if i == j else -one) for j in range(seq.dimension))
                    for i in range(seq.dimension)]
        slacks = []
        for corner in corners:
            res = orthant_criterion(seq, corner)
            slacks.append({"corner": [mode.to_float(c) for c in corner],
                           "slack": fmt(res["slack"])})
        out.update(slacks=slacks, sufficiency="necessary-only")
        return out
    if name == "hyperplane":
        a = (mode.one(),) * seq.dimension
        res = hyperplane_gap(seq, a, min(6, seq.max_degree))
        out.update(value_plus=fmt(res["value_plus"]), value_minus=fmt(res["value_minus"]),
                   certified=False, degree=res["degree"], grid=res["grid"],
                   sufficiency="heuristic")
        return out
    if name == "scan":
        scan = scan or _scan(seq)
        out.update(aggregate=scan["aggregate"].as_dict(lambda v: fmt(v)),
                   rows=[{"direction": [mode.to_float(c) for c in r["direction"]],
                          "status": r["verdict"].status.value}
                         for r in scan["rows"]],
                   basis_covered=scan["basis_covered"])
        return out
    raise MomentKitError(f"criterion {name} not implemented")


def _scan(seq: MomentSequence) -> dict:
    return direction_scan(seq, direction_set(seq.dimension, 2 * seq.dimension, seq.mode))


def _as_1d(seq: MomentSequence) -> MomentSequence:
    if seq.dimension == 1:
        return seq
    return pushforward_direction(seq, (1,) + (0,) * (seq.dimension - 1))


# ---------------------------------------------------------------------------
# scan


@_with_precision
def cmd_scan(args, seq: MomentSequence, _provenance: dict, _retry: bool) -> int:
    if seq.dimension < 2:
        raise MomentKitError("scan needs a multivariate input")
    mode = seq.mode
    try:
        count = int(args.directions)
        directions = direction_set(seq.dimension, count, mode)
    except ValueError:
        with open(args.directions) as fh:
            directions = read_field({"directions": json.load(fh)}, "directions",
                                    lambda rows: [rationals(row) for row in json_list(rows)])
    scan = direction_scan(seq, directions)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"xi_{i}" for i in range(seq.dimension)]
        header += ["status", "numeric_flagged", "criteria"]
        writer.writerow(header)
        for row in scan["rows"]:
            v = row["verdict"]
            crits = ";".join(sorted({e.criterion for e in v.evidence}))
            writer.writerow([_csv_value(mode, c) for c in row["direction"]]
                            + [v.status.value, v.numeric_flagged, crits])
        agg = scan["aggregate"]
        writer.writerow(["aggregate", "", ""][: max(seq.dimension, 1)]
                        + [agg.status.value, agg.numeric_flagged,
                           f"basis_covered={scan['basis_covered']}"])
    return 0


def _csv_value(mode: Mode, v) -> str:
    """Rationals as p/q; floats as shortest round-trip decimal (the hex form
    goes in a companion column where bit-exactness matters)."""
    if isinstance(mode, RationalMode):
        return mode.to_string(v)
    return repr(float(v))


# ---------------------------------------------------------------------------
# kappa field


@_with_precision
def cmd_kappa(args, seq: MomentSequence, _provenance: dict, _retry: bool) -> int:
    xs, ts = _parse_field(args.field)
    mode = seq.mode
    rows = []
    max_level = max((seq.max_degree - 2) // 2, 1)
    # the exact 1D values come from seq itself, or from its first-axis
    # push-forward as the crosscheck of a multivariate field; factorizing it
    # up front reports inadmissible input before any field point, and every
    # point then reuses this factorization
    s1 = _as_1d(seq)
    recurrence_from_moments(s1, s1.max_degree // 2)
    for t in ts:
        for x in xs:
            xq = Fraction(x).limit_denominator(10 ** 6)
            tq = Fraction(t).limit_denominator(10 ** 6)
            if seq.dimension == 1:
                k = poisson_kappa_1d(seq, xq, tq, max_level)
                rows.append([x, t, mode.to_float(k), "weyl-disk-1d", True, ""])
            else:
                est = poisson_kappa_estimate(seq, (xq,) * seq.dimension, tq,
                                             args.lp_degree)
                k1 = poisson_kappa_1d(s1, xq, tq, max_level)
                rows.append([x, t, mode.to_float(est.gap), "grid-lp", False,
                             repr(mode.to_float(k1))])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "t", "kappa", "method", "certified", "crosscheck_1d"])
        writer.writerows(rows)
        if args.sphere_average:
            avg = sphere_average_kappa(seq, (0,) * seq.dimension, 1, Fraction(1, 2),
                                       8, min(args.lp_degree, max_level))
            writer.writerow(["sphere_average", 1.0, avg, "average", False, ""])
    return 0


def _parse_field(spec: str) -> tuple:
    """``--field XMIN:XMAX:NX,TMIN:TMAX:NT`` as the x and the t values; one
    InvalidParameter naming the spec for any other form, a count below 1, a
    bound that is not finite or a t that is not positive."""
    try:
        xs, ts = map(_parse_range, spec.split(","))
        if any(t <= 0 for t in ts):
            raise ValueError(spec)
    except ValueError:
        raise InvalidParameter(f"--field {spec!r} is not XMIN:XMAX:NX,TMIN:TMAX:NT "
                               "with finite bounds, counts of at least 1 and t > 0") from None
    return xs, ts


def _parse_range(spec: str) -> list:
    """``LO:HI:N`` as N evenly spaced values from LO to HI; ValueError for
    any other form, N < 1 or a bound that is not finite."""
    lo, hi, n = spec.split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    if n < 1 or not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError(spec)
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


# ---------------------------------------------------------------------------
# curve


def cmd_curve(args) -> int:
    if args.curve.startswith("catalog:"):
        curve = catalog(args.curve.split(":", 1)[1])
    else:
        with open(args.curve) as fh:
            curve = curve_from_json(fh.read())
    # an interchange-file lift ignores --mode, so reject a malformed one here
    if args.mode is not None:
        mode_from_string(args.mode)
    need = args.degree * curve.max_component_degree

    def load(bits):
        sigma, provenance, cap = load_input(args.sigma, args.mode, None, bits)
        if sigma.max_degree < need:
            # a spec regenerates at the required degree; an interchange file
            # keeps its own
            sigma, provenance, cap = load_input(args.sigma, args.mode, need, bits)
            if sigma.max_degree < need:
                raise MomentKitError(
                    f"lift degree {sigma.max_degree} below required {need}"
                )
        return sigma, provenance, cap

    def lift(sigma, provenance, _retry):
        verdict = lift_and_test(sigma, curve)
        report = {
            "schema_version": "1",
            # lift_and_test weights the lift by weight**2
            "provenance": dict(provenance, curve=curve.name, weight_exponent=2),
            "curve": {"name": curve.name, "dimension": curve.dimension,
                      "weight_degree": len(curve.weight) - 1},
            "verdict": verdict.as_dict(lambda v: format_value(sigma.mode, v)),
            "errors": [],
        }
        _finish_report(report, args.out)
        return 0
    return _rerun(load, lift)


# ---------------------------------------------------------------------------
# report plumbing


def _finish_report(report: dict, out_path: str) -> None:
    report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_error_report(args, exc: Exception) -> None:
    out = getattr(args, "out", None)
    report = {
        "schema_version": "1",
        "errors": [{"error": type(exc).__name__, "detail": str(exc)}],
    }
    if out:
        _finish_report(report, out)
    else:
        json.dump(report, sys.stderr, indent=2)


if __name__ == "__main__":
    sys.exit(main())
