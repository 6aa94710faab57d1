"""Command-line surface.

Configs are JSON files with a ``space`` block and a ``measure`` block;
points travel as element-syntax strings ("b", "0.25", "(1,0.25)") and
interval unions in bracket syntax ("(0.2,0.7],[0.9,1]").

Exit codes: 0 ok, 2 config error, 3 domain error, 4 unsupported space,
5 verification failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import dataclass

from .cdf import Cdf, measure_uniqueness_check
from .errors import (
    ConfigError, ConstructionError, DomainError,
    PropositionViolation, UndefinedPointError, UnsupportedSpaceError,
)
from .intervals import format_interval, parse_interval, parse_union
from .measure import MeasureSpec
from .oracle import check_proposition_suite, suite_passed
from .quantile import PseudoInverse, bijectivity_report
from .sampling import (
    RNG_ID, QuadratureSpec, Sampler, indicator, indicator_split_levels, integrate,
)
from .spaces import OrderedSpace, config_number, space_from_config, space_to_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_UNSUPPORTED = 4
EXIT_VERIFY = 5


@dataclass
class RunConfig:
    space: OrderedSpace
    spec: MeasureSpec
    seed: int


def _parse_element(space, value):
    if isinstance(value, str):
        return space.parse_point(value)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return space.require(value)
    raise ConfigError(f"bad element {value!r}")


def _measure_from_config(space, block) -> MeasureSpec:
    if not isinstance(block, dict):
        raise ConfigError("measure block must be an object")
    parsed = {}
    for field, key, parse in (("atoms", "at", _parse_element),
                              ("segments", "interval", parse_interval)):
        parsed[field] = []
        for i, entry in enumerate(block.get(field, ())):
            path = f"measure.{field}[{i}]"
            if not isinstance(entry, dict):
                raise ConfigError(f"{path}: must be an object")
            try:
                where = parse(space, entry[key])
            except (KeyError, DomainError) as exc:
                raise ConfigError(f"{path}: {exc}") from exc
            parsed[field].append((where, config_number(entry.get("mass"), f"{path}.mass")))
    try:
        return MeasureSpec(space, **parsed)
    except ConstructionError as exc:
        raise ConfigError(str(exc)) from exc


def measure_to_config(space, spec: MeasureSpec) -> dict:
    return {
        "atoms": [{"at": space.format_point(a.at), "mass": a.mass}
                  for a in spec.atoms],
        "segments": [{"interval": format_interval(space, s.interval), "mass": s.mass}
                     for s in spec.segments],
    }


def config_to_dict(config: RunConfig) -> dict:
    return {
        "space": space_to_config(config.space),
        "measure": measure_to_config(config.space, config.spec),
        "seed": config.seed,
    }


def spec_hash(config: RunConfig) -> str:
    payload = {"space": space_to_config(config.space),
               "measure": measure_to_config(config.space, config.spec)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if "space" not in raw:
        raise ConfigError("space: missing block")
    if "measure" not in raw:
        raise ConfigError("measure: missing block")
    space = space_from_config(raw["space"])
    spec = _measure_from_config(space, raw["measure"])
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed: must be a nonnegative integer")
    config = RunConfig(space, spec, seed)
    _reject_unknown_fields(raw, config_to_dict(config), "")
    return config


def _reject_unknown_fields(raw, normalized, path: str) -> None:
    """Every key of the raw JSON must appear at the same path of the
    normalized config; a list entry is held to the keys of the list's
    normalized entries."""
    if isinstance(raw, dict) and isinstance(normalized, dict):
        for key, value in raw.items():
            if key not in normalized:
                raise ConfigError(f"{path or 'config root'}: unknown field {key!r}")
            _reject_unknown_fields(value, normalized[key], f"{path}.{key}" if path else key)
    elif isinstance(raw, list) and isinstance(normalized, list):
        entry_keys = {key: value for entry in normalized if isinstance(entry, dict)
                      for key, value in entry.items()}
        for i, entry in enumerate(raw):
            _reject_unknown_fields(entry, entry_keys, f"{path}[{i}]")


def _resolve(args) -> tuple:
    """(name, RunConfig) from --config or --case."""
    if getattr(args, "config", None):
        config = load_config(args.config)
        return args.config, config
    if getattr(args, "case", None):
        from .instances import instance
        space, spec = instance(args.case)
        return args.case, RunConfig(space, spec, 0)
    raise ConfigError("one of --config or --case is required")


def _fmt(value: float) -> str:
    return f"{value:.15g}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval_cdf(args, out):
    name, config = _resolve(args)
    cdf = Cdf(config.space, config.spec)
    x = config.space.parse_point(args.at)
    value = cdf.eval_F_minus(x) if args.left else cdf.eval_F(x)
    print(_fmt(value), file=out)
    return EXIT_OK


def _cmd_eval_quantile(args, out):
    name, config = _resolve(args)
    gi = PseudoInverse(Cdf(config.space, config.spec))
    point = gi.eval(args.r)
    print(config.space.format_point(point), file=out)
    return EXIT_OK


def _cmd_interval_measure(args, out):
    name, config = _resolve(args)
    cdf = Cdf(config.space, config.spec)
    u = parse_union(config.space, args.interval)
    total = sum(cdf.interval_measure(iv) for iv in u.intervals)
    print(_fmt(total), file=out)
    return EXIT_OK


def _cmd_sample(args, out):
    name, config = _resolve(args)
    gi = PseudoInverse(Cdf(config.space, config.spec))
    seed = args.seed if args.seed is not None else config.seed
    sampler = Sampler(gi, seed)
    points = sampler.draw(args.n)
    lines = [json.dumps({"seed": seed, "rng": RNG_ID, "n": args.n,
                         "spec_hash": spec_hash(config)}, sort_keys=True)]
    lines += [config.space.format_point(p) for p in points]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


def _integrand(space, gi, expr):
    if expr in ("identity", "square") and not space.numeric_points:
        raise ConfigError(f"{expr} integrand needs numeric points; a {space.kind} space has none")
    if expr == "identity":
        return (lambda x: float(x)), ()
    if expr == "square":
        return (lambda x: float(x) ** 2), ()
    if expr.startswith("indicator:"):
        u = parse_union(space, expr[len("indicator:"):])
        return indicator(space, u), indicator_split_levels(gi, u)
    raise ConfigError(f"unknown integrand {expr!r}; "
                      "use identity, square or indicator:<intervals>")


def _cmd_integrate(args, out):
    name, config = _resolve(args)
    gi = PseudoInverse(Cdf(config.space, config.spec))
    g, splits = _integrand(config.space, gi, args.expr)
    print(_fmt(integrate(gi, g, QuadratureSpec(split_at=splits))), file=out)
    return EXIT_OK


def _cmd_verify(args, out):
    from .instances import INSTANCE_NAMES, instance_cdf
    if args.all:
        names = list(INSTANCE_NAMES)
        cdfs = [instance_cdf(n) for n in names]
    elif args.case:
        names = [args.case]
        cdfs = [instance_cdf(args.case)]
    elif args.config:
        config = load_config(args.config)
        names = [args.config]
        cdfs = [Cdf(config.space, config.spec)]
    else:
        raise ConfigError("verify needs --all, --case or --config")
    ok = True
    for name, cdf in zip(names, cdfs):
        rows = check_proposition_suite(cdf, random.Random(0), instance=name)
        ok = ok and suite_passed(rows)
        for row in rows:
            if row["witness"] is not None:
                row = dict(row, witness=repr(row["witness"]))
            print(json.dumps(row, sort_keys=True), file=out)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_report(args, out):
    if args.bijectivity:
        name, config = _resolve(args)
        gi = PseudoInverse(Cdf(config.space, config.spec))
        rep = bijectivity_report(gi)
        print(json.dumps({
            "instance": name,
            "identities_hold": rep.identities_hold,
            "f_injective_onto": rep.f_injective_onto,
            "g_bijective": rep.g_bijective,
            "support_atom_condition": rep.support_atom_condition,
            "consistent": rep.consistent,
        }, sort_keys=True), file=out)
        return EXIT_OK
    name, config = _resolve(args)
    print(json.dumps(config_to_dict(config), indent=2, sort_keys=True), file=out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordercdf",
        description="cdf, quantile and sampling toolkit for ordered spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--case", help="name of a built-in instance")
        p.set_defaults(fn=fn)
        return p

    p = add("eval-cdf", _cmd_eval_cdf, help="evaluate F (or F_minus) at a point")
    p.add_argument("--at", required=True, help="point in element syntax")
    p.add_argument("--left", action="store_true", help="evaluate F_minus instead")

    p = add("eval-quantile", _cmd_eval_quantile, help="evaluate G at a level")
    p.add_argument("--r", type=float, required=True, help="quantile level in [0,1]")

    p = add("interval-measure", _cmd_interval_measure,
            help="measure of an interval union")
    p.add_argument("--interval", required=True, help="union in bracket syntax")

    p = add("sample", _cmd_sample, help="inverse-transform sampling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output file (default: stdout)")

    p = add("integrate", _cmd_integrate, help="integrate a built-in function")
    p.add_argument("--expr", required=True,
                   help="identity | square | indicator:<intervals>")

    p = add("verify", _cmd_verify, help="run the proposition suite")
    p.add_argument("--all", action="store_true", help="verify every built-in instance")

    p = add("report", _cmd_report, help="echo the normalized config")
    p.add_argument("--bijectivity", action="store_true",
                   help="print the bijectivity diagnostics instead")

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args, out)
    except (ConfigError, ConstructionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedSpaceError as exc:
        print(f"unsupported space: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (DomainError, UndefinedPointError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PropositionViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
