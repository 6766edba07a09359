"""Command-line front end.

Subcommands: region (export a region's constraints), sumrate-sweep (CSV
curves over a fronthaul grid), gap-audit (randomized constant-gap check),
fme (project a text-format inequality system), verify-examples (the two
benchmark topologies).  Exit codes: 0 all checks pass, 1 verification
failure, 2 usage error or a Fourier-Motzkin blow-up past --max-constraints.
This is the one module that reads input files; an error a file's content
causes, while read or used, is a usage error that names the file's flag.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import gapaudit, verify
from .atoms import checked_reals
from .discrete import Channel, JointPmf, atom_valuation, compose
from .gaussian import CranNetwork, JointCovariance
from .polytope import FMEBlowupError, eliminate_all, format_system, parse_system, region_to_json
from .regions import CAPACITIES, MAX_NODES, SCHEME_IDS, cuts, make_region
from .schemes import SWEEP_SCHEMES, sweep_rows

CSV_COLUMNS = ("C", "T", "scheme", "sum_rate", "cutset", "rsum_star")


def _write_text(path: str | None, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _naming(flag: str, path: str, fn):
    """fn(), where an error it raises, a float overflow or invalid operation
    included, becomes a usage error naming `flag` and the file at `path`."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return fn()
    except (OSError, ValueError, TypeError, LookupError, AttributeError, ArithmeticError,
            RecursionError) as exc:  # RecursionError: a deeply nested file
        raise ValueError(f"{flag} {path}: {type(exc).__name__}: {exc}") from None


def _read(flag: str, path: str, parse):
    """`parse` of the text of the file at `path`, closed before `parse` runs, under `_naming`."""
    return _naming(flag, path, lambda: parse(Path(path).read_text()))


def _object(value: dict, keys, where: str = "") -> dict:
    if unknown := sorted(value.keys() - keys):
        raise ValueError(f"unknown keys {unknown}{where}")
    return value


def _axes(d: dict, key: str) -> list[tuple[str, int]]:
    """The (name, size) pairs under `key`, as read: `make` checks them."""
    axes = [_object(v, {"name", "size"}, f" in a {key!r} entry") for v in d[key]]
    return [(v["name"], v["size"]) for v in axes]


def _network(text: str) -> CranNetwork:
    d = _object(json.loads(text), {"G", "P", "C", "Ccoop"})
    if d.get("Ccoop", ()) is None:  # `make` reads None as no links; a file gives a matrix
        raise ValueError("Ccoop is null, not a matrix of numbers")
    return CranNetwork.make(**d)


def _pmf(text: str) -> JointPmf:
    d = _object(json.loads(text), {"variables", "probs"})
    return JointPmf.make(_axes(d, "variables"), d["probs"])


def _channel(text: str) -> Channel:
    d = _object(json.loads(text), {"given", "variables", "probs"})
    return Channel.make(_axes(d, "given"), _axes(d, "variables"), d["probs"])


def _valuation(text: str) -> dict[str, float]:
    return {k: float(checked_reals(v, f"atom {k!r}", shape=()))
            for k, v in json.loads(text).items()}


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


# the optional flags `region` reads: CUTSET's network and covariance, or atom values
_REGION_FLAGS = {"CUTSET": ("--network", "--cov"),
                 "symbolic": ("--n", "--l", "--valuation", "--pmf", "--channel", "--caps")}


def cmd_region(args) -> int:
    reads = _REGION_FLAGS["CUTSET" if args.scheme == "CUTSET" else "symbolic"]
    for flag in (f for flags in _REGION_FLAGS.values() for f in flags if f not in reads):
        if getattr(args, flag[2:]) is not None:
            raise ValueError(f"{flag} does not apply to {args.scheme}, which reads "
                             f"only {', '.join(reads)}")
    given = _parse_caps(args.caps or "")
    if given and not args.pmf:
        raise ValueError("--caps needs --pmf: it sets the capacities of a pmf's valuation")
    if args.channel and not args.pmf:
        raise ValueError("--channel needs --pmf: it is composed onto the pmf")
    caps = dict.fromkeys(CAPACITIES, 0.0) | given

    def export(system, valuation) -> str:  # run under the name of the last file read
        return json.dumps(region_to_json(system, valuation), indent=2, allow_nan=False) + "\n"

    if args.scheme == "CUTSET":
        if not args.network:
            raise ValueError("CUTSET needs --network")
        net = _read("--network", args.network, _network)
        cuts(net.N, net.L)  # the node bound, before --cov is read or K = P I built
        names = [(f"X{k}", 1) for k in range(1, net.N + 1)]
        cov = _read("--cov", args.cov, json.loads) if args.cov else net.P * np.eye(net.N)
        last = ("--cov", args.cov) if args.cov else ("--network", args.network)
        text = _naming(*last, lambda: export(gapaudit.cutset_region(
            net, JointCovariance.make(names, cov)), {}))
    else:
        system = make_region(args.scheme, args.n or 2, args.l or 2)
        atoms = sorted(system.atoms())
        if unused := sorted(given.keys() - system.atoms()):
            raise ValueError(f"--caps names {unused}, which {args.scheme} does not use")
        if args.valuation:
            text = _read("--valuation", args.valuation, lambda t: export(system, _valuation(t)))
        elif args.pmf:
            law = _read("--pmf", args.pmf, _pmf)
            last = ("--channel", args.channel) if args.channel else ("--pmf", args.pmf)
            if args.channel:
                law = _read(*last, lambda t: compose(law, _channel(t)))
            text = _naming(*last, lambda: export(system, atom_valuation(law, atoms, caps)))
        else:
            text = export(system, None)
    _write_text(args.output, text)
    return 0


def cmd_sweep(args) -> int:
    config = _read("config", args.config, json.loads)
    printed = config.get("schemes", SWEEP_SCHEMES) if isinstance(config, dict) else ()
    printed = printed if isinstance(printed, (list, tuple)) else ()  # else sweep_rows rejects it
    reference = (_read("--rcf-csv", args.rcf_csv, lambda text: _reference_rows(text, printed))
                 if args.rcf_csv else [])
    try:
        rows = sweep_rows(config)
    except ArithmeticError as exc:  # a float overflow at a huge P, say
        raise ValueError(f"config {args.config}: {type(exc).__name__}: {exc}") from None
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
        c, rate = checked_reals([float(parts[idx[k]]) for k in ("C", "sum_rate")],
                                f"line {n}: C and sum_rate", 0.0).tolist()
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
        raise ValueError(f"unknown variables to eliminate: {unknown}")
    projected = eliminate_all(system, drop, max_constraints=args.max_constraints)
    _write_text(args.output, _naming("--input", args.input, lambda: format_system(projected)))
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
