"""Command-line front end.

Subcommands: region (export a region's constraints), sumrate-sweep (CSV
curves over a fronthaul grid), gap-audit (randomized constant-gap check),
fme (project a text-format inequality system), verify-examples (the two
benchmark topologies).  Exit codes: 0 all checks pass, 1 verification
failure, 2 usage error, a Fourier-Motzkin blow-up past --max-constraints or
scipy missing for the data-sharing check.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import gapaudit, verify
from .discrete import Channel, JointPmf, atom_valuation, compose
from .gaussian import CranNetwork, JointCovariance
from .polytope import (FMEBlowupError, SystemParseError, eliminate_all,
                       format_system, parse_system)
from .regions import RegionSpec, cutset_region, make_region, region_to_json
from .schemes import sweep_rows

CSV_COLUMNS = ("C", "T", "scheme", "sum_rate", "cutset", "rsum_star")


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _write_text(path: str | None, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_caps(text: str | None) -> dict[str, float]:
    caps = {"C1": 0.0, "C2": 0.0, "C12": 0.0, "C21": 0.0}
    if not text:
        return caps
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ValueError(f"bad capacity assignment {item!r} (want NAME=VALUE)")
        k, v = item.split("=", 1)
        caps[k.strip()] = float(v)
    return caps


def cmd_region(args) -> int:
    spec = RegionSpec(args.scheme, N=args.n, L=args.l)
    caps = _parse_caps(args.caps)
    if args.scheme == "CUTSET":
        if not args.network:
            return _fail_usage("CUTSET needs --network")
        net = CranNetwork.from_json(open(args.network).read())
        if args.cov:
            K = np.asarray(json.loads(open(args.cov).read()), dtype=float)
        else:
            K = net.P * np.eye(net.N)
        cov = JointCovariance.make([(f"X{k}", 1) for k in range(1, net.N + 1)], K)
        system = cutset_region(net, cov)
        payload = region_to_json(system, {})
        _write_text(args.output, json.dumps(payload, indent=2) + "\n")
        return 0
    system = make_region(spec)
    valuation = None
    if args.valuation:
        valuation = {str(k): float(v) for k, v in json.loads(open(args.valuation).read()).items()}
    elif args.pmf:
        pmf = JointPmf.from_json(open(args.pmf).read())
        if args.channel:
            pmf = compose(pmf, Channel.from_json(open(args.channel).read()))
        valuation = atom_valuation(pmf, sorted(a for a in system.atoms()
                                               if a not in caps), constants=caps)
        valuation.update({k: caps[k] for k in system.atoms() & caps.keys()})
    payload = region_to_json(system, valuation)
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_sweep(args) -> int:
    config = json.loads(open(args.config).read())
    for key in ("P", "G", "C_grid", "seed"):
        if key not in config:
            return _fail_usage(f"sweep config is missing required field {key!r}")
    rows = sweep_rows(config)
    if args.rcf_csv:
        rows.extend(_load_reference_csv(args.rcf_csv, config))
        rows.sort(key=lambda r: (r["C"], r["T"], r["scheme"]))
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join([
            f"{r['C']:.6f}", f"{r['T']:.6f}", r["scheme"],
            f"{r['sum_rate']:.6f}", f"{r['cutset']:.6f}", f"{r['rsum_star']:.6f}"]))
    _write_text(args.output or config.get("out"), "\n".join(lines) + "\n")
    return 0


def _load_reference_csv(path: str, config: dict) -> list[dict]:
    """External reference curves (e.g. lattice-based schemes evaluated
    elsewhere) as rows scheme=name; columns C,scheme,sum_rate."""
    out = []
    t_values = config.get("T", 0.0)
    t0 = float(t_values[0]) if isinstance(t_values, (list, tuple)) else float(t_values)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        idx = {name: i for i, name in enumerate(header)}
        for need in ("C", "scheme", "sum_rate"):
            if need not in idx:
                raise ValueError(f"reference CSV missing column {need!r}")
        for line in fh:
            if not line.strip():
                continue
            parts = line.strip().split(",")
            out.append({"C": float(parts[idx["C"]]), "T": t0,
                        "scheme": parts[idx["scheme"]],
                        "sum_rate": float(parts[idx["sum_rate"]]),
                        "cutset": float("nan"), "rsum_star": float("nan")})
    return out


def cmd_gap_audit(args) -> int:
    report = gapaudit.audit_random_instances(args.instances, args.seed,
                                             nmax=args.nmax, lmax=args.lmax)
    _write_text(args.output, json.dumps(report, indent=2) + "\n")
    return 0 if report["all_pass"] else 1


def cmd_fme(args) -> int:
    try:
        text = open(args.input).read()
        system = parse_system(text)
    except SystemParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    drop = []
    for item in args.eliminate or []:
        drop.extend(v.strip() for v in item.split(",") if v.strip())
    unknown = [v for v in drop if v not in system.variables]
    if unknown:
        return _fail_usage(f"unknown variables to eliminate: {unknown}")
    projected = eliminate_all(system, drop, max_constraints=args.max_constraints)
    _write_text(args.output, format_system(projected))
    return 0


def cmd_verify_examples(args) -> int:
    reports = []
    if args.example in (None, 1):
        noiseless = Channel.make([("X1", 2)], [("Y1", 2)], np.eye(2))
        reports.append(verify.example1_run(noiseless, 0.5, samples=args.samples // 10,
                                           seed=args.seed))
        eps = 0.1
        bsc = Channel.make([("X1", 2)], [("Y1", 2)],
                           [[1 - eps, eps], [eps, 1 - eps]])
        reports.append(verify.example1_run(bsc, 0.3, samples=args.samples,
                                           seed=args.seed))
    if args.example in (None, 2):
        try:
            reports.append(verify.example2_run(samples=args.samples, seed=args.seed))
        except ImportError as exc:
            return _fail_usage(f"the data-sharing check needs scipy ({exc})")
    payload = [{"example": r.example, "verdict": r.verdict, "values": r.values}
               for r in reports]
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    ok = all(r.verdict in ("confirmed", "sampled-consistent") for r in reports)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cranbounds",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region", help="export a rate region as JSON")
    p.add_argument("--scheme", required=True,
                   choices=["GDS-T1", "GDS-I", "GDS-II", "GDS-III", "COR4",
                            "COR5", "GCOMP-T2", "DDF-P1", "CUTSET"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--valuation", help="JSON file of atom values")
    p.add_argument("--pmf", help="JSON joint pmf to evaluate atoms on")
    p.add_argument("--channel", help="JSON channel composed onto the pmf")
    p.add_argument("--caps", help="capacity constants, e.g. C1=1,C2=1,C12=0,C21=0")
    p.add_argument("--network", help="JSON network (CUTSET only)")
    p.add_argument("--cov", help="JSON input covariance matrix (CUTSET only)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("sumrate-sweep", help="sum-rate curves over a C grid")
    p.add_argument("config", help="JSON sweep configuration")
    p.add_argument("--rcf-csv", help="external reference curve to merge")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gap-audit", help="randomized constant-gap audit")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gap_audit)

    p = sub.add_parser("fme", help="project a text-format inequality system")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("-e", "--eliminate", action="append",
                   help="variable(s) to eliminate; repeatable or comma separated")
    p.add_argument("--max-constraints", type=int, default=100_000)
    p.set_defaults(func=cmd_fme)

    p = sub.add_parser("verify-examples", help="run the benchmark topology checks")
    p.add_argument("--example", type=int, choices=[1, 2])
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_verify_examples)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, FMEBlowupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
