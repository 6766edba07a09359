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
import math
import sys

import numpy as np

from . import gapaudit, verify
from .discrete import Channel, JointPmf, atom_valuation, compose
from .gaussian import CranNetwork, JointCovariance
from .polytope import FMEBlowupError, eliminate_all, format_system, parse_system
from .regions import SCHEME_IDS, cutset_region, make_region, region_to_json
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


def _read(flag: str, path: str, parse):
    """`parse` of the text of the file at `path`, which is closed before
    `parse` runs; a file that cannot be read or parsed is a usage error
    naming `flag`."""
    try:
        with open(path) as fh:
            text = fh.read()
        return parse(text)
    except (OSError, ValueError, TypeError, KeyError, AttributeError, IndexError) as exc:
        raise ValueError(f"{flag} {path}: {type(exc).__name__}: {exc}") from None


def _parse_caps(text: str) -> dict[str, float]:
    """--caps NAME=VALUE,... with every VALUE a finite number >= 0."""
    caps = {}
    for item in filter(str.strip, text.split(",")):
        name, eq, value = (x.strip() for x in item.partition("="))
        try:
            caps[name] = float(value)
        except ValueError:
            caps[name] = math.nan
        if not (eq and 0.0 <= caps[name] < math.inf):
            raise ValueError(f"--caps wants NAME=VALUE with VALUE finite and >= 0, got {item!r}")
    return caps


def cmd_region(args) -> int:
    given = _parse_caps(args.caps or "")
    if given and not args.pmf:
        return _fail_usage("--caps needs --pmf: it sets the capacities of a pmf's valuation")
    if args.channel and not args.pmf:
        return _fail_usage("--channel needs --pmf: it is composed onto the pmf")
    caps = {"C1": 0.0, "C2": 0.0, "C12": 0.0, "C21": 0.0} | given
    if args.scheme == "CUTSET":
        if not args.network:
            return _fail_usage("CUTSET needs --network")
        net = _read("--network", args.network, CranNetwork.from_json)
        if args.cov:
            K = _read("--cov", args.cov, lambda t: np.asarray(json.loads(t), dtype=float))
        else:
            K = net.P * np.eye(net.N)
        cov = JointCovariance.make([(f"X{k}", 1) for k in range(1, net.N + 1)], K)
        system, valuation = cutset_region(net, cov), {}
    else:
        system, valuation = make_region(args.scheme, args.n, args.l), None
        if args.valuation:
            valuation = _read("--valuation", args.valuation, lambda t: {
                str(k): float(v) for k, v in json.loads(t).items()})
        elif args.pmf:
            pmf = _read("--pmf", args.pmf, JointPmf.from_json)
            if args.channel:
                pmf = compose(pmf, _read("--channel", args.channel, Channel.from_json))
            valuation = atom_valuation(pmf, sorted(system.atoms()), constants=caps)
    unused = sorted(given.keys() - system.atoms())
    if unused:
        return _fail_usage(f"--caps names {unused}, which {args.scheme} does not use")
    bad = sorted(k for k, v in (valuation or {}).items() if not np.isfinite(v))
    if bad:
        return _fail_usage(f"valuation values must be finite numbers: {bad}")
    payload = region_to_json(system, valuation)
    _write_text(args.output, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return 0


def cmd_sweep(args) -> int:
    config = _read("config", args.config, json.loads)
    reference = _read("--rcf-csv", args.rcf_csv, _reference_rows) if args.rcf_csv else []
    rows = sweep_rows(config)
    if reference:
        t0 = config.get("T", 0.0)  # the first T, now that sweep_rows has checked it
        t0, star = float(t0[0] if isinstance(t0, list) else t0), rows[0]["rsum_star"]
        rows.extend({"C": c, "T": t0, "scheme": name, "sum_rate": rate,
                     "cutset": min(2.0 * c, star), "rsum_star": star}
                    for c, name, rate in reference)
        rows.sort(key=lambda r: (r["C"], r["T"], r["scheme"]))
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join([
            f"{r['C']:.6f}", f"{r['T']:.6f}", r["scheme"],
            f"{r['sum_rate']:.6f}", f"{r['cutset']:.6f}", f"{r['rsum_star']:.6f}"]))
    _write_text(args.output or config.get("out"), "\n".join(lines) + "\n")
    return 0


def _reference_rows(text: str) -> list[tuple[float, str, float]]:
    """External reference curves (e.g. lattice-based schemes evaluated
    elsewhere) as (C, scheme, sum_rate) rows, which the sweep prints at its
    first T with its own cut-set bound; columns C,scheme,sum_rate, with C and
    sum_rate finite numbers >= 0."""
    head, *lines = text.splitlines() or [""]
    header = head.strip().split(",")
    idx = {name: i for i, name in enumerate(header)}
    for need in ("C", "scheme", "sum_rate"):
        if need not in idx:
            raise ValueError(f"reference CSV missing column {need!r}")
    out = []
    for n, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.strip().split(",")
        if len(parts) != len(header):
            raise ValueError(f"line {n} has {len(parts)} fields, want {len(header)}")
        c, rate = float(parts[idx["C"]]), float(parts[idx["sum_rate"]])
        if not (0.0 <= c < math.inf and 0.0 <= rate < math.inf):
            raise ValueError(f"line {n}: C and sum_rate must be finite numbers >= 0")
        out.append((c, parts[idx["scheme"]], rate))
    return out


def cmd_gap_audit(args) -> int:
    report = gapaudit.audit_random_instances(args.instances, args.seed,
                                             nmax=args.nmax, lmax=args.lmax)
    _write_text(args.output, json.dumps(report, indent=2) + "\n")
    return 0 if report["all_pass"] else 1


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < lo:
            raise argparse.ArgumentTypeError(f"want an integer of at least {lo}, got {text!r}")
        return int(text)
    return parse


_positive_int, _seed = _int_at_least(1), _int_at_least(0)


def cmd_fme(args) -> int:
    system = _read("--input", args.input, parse_system)
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


class _Parser(argparse.ArgumentParser):
    """Raises its errors, so that `main` prints each as one line with no
    usage block; subcommand parsers are of the same class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="cranbounds", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region", help="export a rate region as JSON")
    p.add_argument("--scheme", required=True, choices=SCHEME_IDS)
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--l", type=_positive_int, default=2)
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
    p.add_argument("--instances", type=_positive_int, default=200)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--nmax", type=_positive_int, default=4)
    p.add_argument("--lmax", type=_positive_int, default=4)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gap_audit)

    p = sub.add_parser("fme", help="project a text-format inequality system")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("-e", "--eliminate", action="append",
                   help="variable(s) to eliminate; repeatable or comma separated")
    p.add_argument("--max-constraints", type=_positive_int, default=100_000)
    p.set_defaults(func=cmd_fme)

    p = sub.add_parser("verify-examples", help="run the benchmark topology checks")
    p.add_argument("--example", type=int, choices=[1, 2])
    p.add_argument("--samples", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_verify_examples)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code or 0
    except (ValueError, KeyError, OSError, FMEBlowupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
