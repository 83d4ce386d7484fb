"""Command line entry point.

    semiclab list
    semiclab run --experiment NAME [--config FILE] [--seed K] [--out DIR]

Exit codes: 0 pass, 1 usage error, 2 fixture failure, 3 numerical-error
signal.
"""

import argparse
import json
import sys

from semiclab import experiments
from semiclab._errors import NumericalSignal


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; remap to 1 so that 2 is
    # reserved for fixture failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="semiclab", description="seeded numerical experiments")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run one experiment and write its report")
    runp.add_argument("--experiment", required=True, help="name from `semiclab list`")
    runp.add_argument("--config", help="JSON file of config overrides")
    runp.add_argument("--seed", type=int, help="override the seeded default")
    runp.add_argument("--out", default=".", help="directory for reports and data files")
    sub.add_parser("list", help="list experiments with defaults and config rules")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for name in experiments.experiment_names():
            exp = experiments.REGISTRY[name]
            crit = ",".join(str(c) for c in exp.criteria)
            print(f"{name:24s} [check {crit}] {exp.description}")
            print(f"{'':24s} defaults: {json.dumps(exp.defaults, sort_keys=True)}")
            rules = [text for _, text, _ in experiments.config_rules(name)]
            if not exp.reads_seed:
                rules.append("seed unread: no output depends on it")
            print(f"{'':24s} rules: {'; '.join(rules)}")
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 1
    overrides = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"semiclab: cannot read config: {exc}", file=sys.stderr)
            return 1
        if not isinstance(loaded, dict):
            print("semiclab: config must be a JSON object", file=sys.stderr)
            return 1
        overrides.update(loaded)
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        report = experiments.run_experiment(args.experiment, overrides, args.out)
    except NumericalSignal as exc:
        print(f"semiclab: numerical-error signal [{exc.signal}]: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"semiclab: {exc}", file=sys.stderr)
        return 1
    verdict = "PASS" if report["pass"] else "FAIL"
    print(f"{args.experiment}: {verdict} ({report['wall_time_s']:.2f}s)")
    return 0 if report["pass"] else 2


if __name__ == "__main__":
    sys.exit(main())
