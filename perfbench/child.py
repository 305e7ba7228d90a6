"""One benchmark repetition: run a halfspace-active subcommand in this process.

    python3 perfbench/child.py --result FILE --entry NAME [--spans FILE]
                               [--setup-only] -- <cli arguments>

Run from the root of a source checkout.  ``src/`` is put first on the path
and the resolved package file is recorded, so an installed copy is never
measured by mistake.  Set-up ends at the first call of the cli-module
function ``--entry`` (the first piece of work after the config is resolved
and the model, update and schedule are built); ``--setup-only`` stops there.
``--spans`` installs the tracer and writes every span at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


class _SetupDone(BaseException):
    """Raised at the work entry in --setup-only mode; escapes the CLI's handlers."""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--entry", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import halfspace_active
    from halfspace_active import cli

    package_file = os.path.abspath(halfspace_active.__file__)
    if not package_file.startswith(src + os.sep):
        print(f"halfspace_active resolved outside {src}: {package_file}", file=sys.stderr)
        return 3

    tracer = None
    if args.spans:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks = {}
    entry = getattr(cli, args.entry)

    def work_entry(*a, **kw):
        marks.setdefault("setup_end", time.monotonic())
        if args.setup_only:
            raise _SetupDone
        return entry(*a, **kw)

    setattr(cli, args.entry, work_entry)
    try:
        rc = cli.main(cli_args)
    except _SetupDone:
        rc = 0
    marks["work_end"] = time.monotonic()
    if tracer is not None:
        tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "package_file": package_file, **marks}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
