"""Command-line front end.

Subcommands: region (export a region's constraints), sumrate-sweep (CSV
curves over a fronthaul grid), gap-audit (randomized constant-gap check),
fme (project a text-format inequality system), verify-examples (the two
benchmark topologies).  Exit codes: 0 all checks pass, 1 verification
failure, 2 usage error or a Fourier-Motzkin blow-up past --max-constraints.
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
from .regions import CAPACITIES, MAX_NODES, SCHEME_IDS, cuts, make_region, region_to_json
from .schemes import SWEEP_SCHEMES, sweep_rows

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
    except (OSError, ValueError, TypeError, LookupError, AttributeError, OverflowError) as exc:
        raise ValueError(f"{flag} {path}: {type(exc).__name__}: {exc}") from None


def _parse_caps(text: str) -> dict[str, float]:
    """--caps NAME=VALUE,... with every VALUE a finite number >= 0 and no
    NAME twice."""
    caps = {}
    for item in filter(str.strip, text.split(",")):
        name, eq, value = (x.strip() for x in item.partition("="))
        if name in caps:
            raise ValueError(f"--caps names {name!r} twice")
        try:
            caps[name] = float(value)
        except ValueError:
            caps[name] = math.nan
        if not (eq and 0.0 <= caps[name] < math.inf):
            raise ValueError(f"--caps wants NAME=VALUE with VALUE finite and >= 0, got {item!r}")
    return caps


def _parse_valuation(text: str) -> dict[str, float]:
    """A JSON object of atom values, each a JSON number (a bool or a string is not)."""
    values = json.loads(text)
    if bad := sorted(k for k, v in values.items() if type(v) not in (int, float)):
        raise ValueError(f"atom values must be JSON numbers: {bad}")
    return {k: float(v) for k, v in values.items()}


# the optional flags `region` reads: CUTSET's network and covariance, or atom values
_REGION_FLAGS = {"CUTSET": ("--network", "--cov"),
                 "symbolic": ("--n", "--l", "--valuation", "--pmf", "--channel", "--caps")}


def cmd_region(args) -> int:
    reads = _REGION_FLAGS["CUTSET" if args.scheme == "CUTSET" else "symbolic"]
    for flag in (f for flags in _REGION_FLAGS.values() for f in flags if f not in reads):
        if getattr(args, flag[2:]) is not None:
            return _fail_usage(f"{flag} does not apply to {args.scheme}, which reads "
                               f"only {', '.join(reads)}")
    given = _parse_caps(args.caps or "")
    if given and not args.pmf:
        return _fail_usage("--caps needs --pmf: it sets the capacities of a pmf's valuation")
    if args.channel and not args.pmf:
        return _fail_usage("--channel needs --pmf: it is composed onto the pmf")
    caps = dict.fromkeys(CAPACITIES, 0.0) | given
    if args.scheme == "CUTSET":
        if not args.network:
            return _fail_usage("CUTSET needs --network")
        net = _read("--network", args.network, CranNetwork.from_json)
        cuts(net.N, net.L)  # the node bound, before --cov is read or K = P I built
        names = [(f"X{k}", 1) for k in range(1, net.N + 1)]
        cov = (_read("--cov", args.cov, lambda t: JointCovariance.make(names, json.loads(t)))
               if args.cov else JointCovariance.make(names, net.P * np.eye(net.N)))
        system, valuation = gapaudit.cutset_region(net, cov), {}
    else:
        system, valuation = make_region(args.scheme, args.n or 2, args.l or 2), None
        if args.valuation:
            valuation = _read("--valuation", args.valuation, _parse_valuation)
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
    printed = config.get("schemes", SWEEP_SCHEMES) if isinstance(config, dict) else ()
    printed = printed if isinstance(printed, (list, tuple)) else ()  # else sweep_rows rejects it
    reference = (_read("--rcf-csv", args.rcf_csv, lambda text: _reference_rows(text, printed))
                 if args.rcf_csv else [])
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
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def _reference_rows(text: str, printed) -> list[tuple[float, str, float]]:
    """External reference curves (e.g. lattice-based schemes evaluated
    elsewhere) as (C, scheme, sum_rate) rows, which the sweep prints at its
    first T with its own cut-set bound; columns C,scheme,sum_rate, with C and
    sum_rate finite numbers >= 0, no scheme in `printed` (the sweep's own)
    and no (C, scheme) pair twice."""
    head, *lines = text.splitlines() or [""]
    header = head.strip().split(",")
    idx = {name: i for i, name in enumerate(header)}
    for need in ("C", "scheme", "sum_rate"):
        if need not in idx:
            raise ValueError(f"reference CSV missing column {need!r}")
    out, seen = [], {}
    for n, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.strip().split(",")
        if len(parts) != len(header):
            raise ValueError(f"line {n} has {len(parts)} fields, want {len(header)}")
        c, rate = float(parts[idx["C"]]), float(parts[idx["sum_rate"]])
        if not (0.0 <= c < math.inf and 0.0 <= rate < math.inf):
            raise ValueError(f"line {n}: C and sum_rate must be finite numbers >= 0")
        name = parts[idx["scheme"]]
        if name in printed:
            raise ValueError(f"line {n}: scheme {name!r} is one the sweep prints")
        if seen.setdefault((c, name), n) != n:
            raise ValueError(f"line {n}: C = {c:g} and scheme {name!r} repeat line {seen[c, name]}")
        out.append((c, name, rate))
    return out


def cmd_gap_audit(args) -> int:
    report = gapaudit.audit_random_instances(args.instances, args.seed,
                                             nmax=args.nmax, lmax=args.lmax)
    _write_text(args.output, json.dumps(report, indent=2) + "\n")
    return 0 if report["all_pass"] else 1


def _int_in(lo: int, hi: float = math.inf):
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or not lo <= int(text) <= hi:
            want = f"of at least {lo}" if hi == math.inf else f"from {lo} to {hi}"
            raise argparse.ArgumentTypeError(f"want an integer {want}, got {text!r}")
        return int(text)
    return parse


_positive_int, _seed, _node_count = _int_in(1), _int_in(0), _int_in(1, MAX_NODES)


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
        reports.append(verify.example2_run(samples=args.samples, seed=args.seed))
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
    p.add_argument("--n", type=_node_count, help="BSs (DDF-P1; 2 if not given)")
    p.add_argument("--l", type=_node_count, help="users (DDF-P1; 2 if not given)")
    values = p.add_mutually_exclusive_group()  # each gives the atom values
    values.add_argument("--valuation", help="JSON file of atom values")
    values.add_argument("--pmf", help="JSON joint pmf to evaluate atoms on")
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
    p.add_argument("--nmax", type=_node_count, default=4)
    p.add_argument("--lmax", type=_node_count, default=4)
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
