"""Command-line surface.

Subcommands:

* ``norm``    -- evaluate one engine on one coefficient vector
* ``expect``  -- sign-average estimates as JSON
* ``certify`` -- run a named experiment, print one verdict line per
  assertion, and write a machine-readable report

Exit codes: 0 all assertions pass, 1 some assertion fails, 2 usage or
domain error.  Reports embed the fully resolved config and seed and are
reproducible bit for bit; the RUDLAB_SEED environment variable overrides
the configured seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .coeffs import DomainError
from .config import RunConfig, SpaceFactory, load_config_file, parse_coeffs
from .exactnum import scalar_repr
from .experiments import EXPERIMENTS, run_experiment
from .rademacher import expect_exact, expect_mc, expect_perm, expect_subsets

SCHEMA = "rudlab/1"


def _build_config(args) -> RunConfig:
    pairs: dict[str, str] = {}
    if getattr(args, "config", None):
        pairs.update(load_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise DomainError(f"override {item!r} is not key=value")
        k, _, v = item.partition("=")
        pairs[k.strip()] = v.strip()
    env_seed = os.environ.get("RUDLAB_SEED")
    if env_seed is not None:
        pairs["seed"] = env_seed
    return RunConfig().with_overrides(pairs)


def _cmd_norm(args) -> int:
    cfg = _build_config(args)
    fac = SpaceFactory(cfg)
    space = fac.space(args.space)
    a = parse_coeffs(args.coeffs, exact=cfg.arithmetic == "exact")
    print(scalar_repr(space.norm(a)))
    return 0


def _cmd_expect(args) -> int:
    cfg = _build_config(args)
    fac = SpaceFactory(cfg)
    space = fac.space(args.space)
    a = parse_coeffs(args.coeffs, exact=cfg.arithmetic == "exact")
    if args.method == "exact":
        est = expect_exact(space, a, cap=cfg.cap)
    elif args.method == "mc":
        samples = cfg.samples if args.samples is None else args.samples
        est = expect_mc(space, a, samples, cfg.seed, cfg.confidence)
    elif args.method == "subsets":
        est = expect_subsets(space, a, cap=cfg.cap)
    else:  # "perm": argparse's choices refuse any other method
        est = expect_perm(space, a)
    print(json.dumps(est.to_json(), sort_keys=True))
    return 0


def _report_payload(name: str, cfg: RunConfig, report) -> dict:
    return {
        "schema": SCHEMA,
        "experiment": name,
        "config": cfg.to_dict(),
        "passed": report.passed,
        "warned": report.warned,
        "rows": [
            {
                "id": r.rid,
                "statement": r.statement,
                "measured": r.measured,
                "bound": r.bound,
                "verdict": r.verdict,
                "exact": r.exact,
            }
            for r in report.rows
        ],
        "curves": report.curves,
    }


def _write_report(path: str, payload: dict, fmt: str):
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=1)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "statement", "measured", "bound", "verdict", "exact"])
        for row in payload["rows"]:
            writer.writerow(
                [row["id"], row["statement"], row["measured"],
                 row["bound"], row["verdict"], row["exact"] or ""]
            )
        text = buf.getvalue()
    with open(path, "w") as fh:
        fh.write(text)


def _cmd_certify(args) -> int:
    cfg = _build_config(args)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    # a sweep walk takes the masks with the signs only for a later subsets
    SpaceFactory.shared(cfg).subsets_pending = "subsets" in names
    all_pass = True
    for name in names:
        report = run_experiment(name, cfg)
        for row in report.rows:
            print(row.line())
        all_pass = all_pass and report.passed
        payload = _report_payload(name, cfg, report)
        if args.out or len(names) == 1:
            out = args.out or f"report-{name}.{cfg.format}"
            if len(names) > 1 and args.out:
                out = f"{args.out}.{name}.{cfg.format}"
            _write_report(out, payload, cfg.format)
        if cfg.plot == "svg" and report.curves:
            from .svgplot import render_curves

            with open(f"curves-{name}.svg", "w") as fh:
                fh.write(render_curves(report.curves))
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rudlab",
        description="Exact sign-average norms and divergence/convergence "
        "ratio certificates at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="config override (repeatable); unknown keys are rejected",
    )

    p = sub.add_parser("norm", parents=[common], help="evaluate one norm")
    p.add_argument("--space", required=True, help="engine spec, e.g. lp:2, summing, james")
    p.add_argument("--coeffs", required=True, help="comma-separated rationals or decimals")
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("expect", parents=[common], help="sign-average estimate as JSON")
    p.add_argument("--space", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--method", default="exact", choices=("exact", "mc", "subsets", "perm"))
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=_cmd_expect)

    p = sub.add_parser("certify", parents=[common],
                       help="run a named experiment and write its report")
    p.add_argument("experiment", help="experiment name or 'all'")
    p.add_argument("--out", default=None, help="report file path")
    p.set_defaults(fn=_cmd_certify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
