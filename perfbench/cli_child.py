"""Traced stand-in for `python -m biphoton.cli`.

It takes the steps `biphoton.cli.main` takes, through the public
`biphoton.cli` functions, with spans around import, parsing and
`run_config`.  Given the same argv it must print the same bytes and exit
with the same code as the real entry point; the benchmark compares the two
on every op of a traced run.  Spans are written, as JSON lines, to the file
named by the PERFBENCH_SPANS environment variable when the process ends.

Usage: PYTHONPATH=src python perfbench/cli_child.py <biphoton arguments>
"""
from __future__ import annotations

import importlib
import os
import sys


def _config(cli, parser, args):
    if args.config:
        if args.command:
            parser.error("--config replaces a command line, not combines with it")
        return cli.RunConfig.load(args.config)
    if not args.command:
        parser.error("a command or --config is required")
    return cli.config_from_args(args)


def traced_main(argv: list[str], tracer) -> int:
    """biphoton.cli.main with spans; argparse errors raise SystemExit as there."""
    cli = importlib.import_module("biphoton.cli")
    try:
        with tracer.span("cli.parse"):
            parser = cli.build_parser()
            args = parser.parse_args(argv)
            cfg = _config(cli, parser, args)
        if not args.config and getattr(args, "save_config", None):
            with tracer.span("cli.save_config"):
                cfg.save(args.save_config)
        with tracer.span("cli.run_config", {"command": cfg.command}):
            return cli.run_config(cfg)
    except (cli.CliError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return cli.EXIT_IO


def main() -> int:
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    from perfbench.spans import Tracer

    tracer = Tracer()
    code: int | str | None = 1
    try:
        with tracer.span("cli.import"):
            importlib.import_module("biphoton.cli")
        tracer.install()
        code = traced_main(sys.argv[1:], tracer)
    except SystemExit as exc:
        code = exc.code
    finally:
        path = os.environ.get("PERFBENCH_SPANS")
        if path:
            tracer.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
