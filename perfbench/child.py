"""Run one ``mcbounds`` command line as a benchmark child process.

    python3 child.py ROOT SIDECAR TRACE -- ARGV...

Imports ``mcbounds.cli`` from ``ROOT/src`` and calls ``main(ARGV)``, as the
``mcbounds`` console script does. It records the monotonic time at which
argument parsing returned, which ends the invocation's set-up. With TRACE 1
it also wraps the layer functions (see ``tracing.py``) and marks the end of
set-up on stderr, so that ``-X importtime`` lines before the mark count as
start-up imports. SIDECAR receives the record as JSON when the command ends,
also when it raises.
"""

import argparse
import json
import os
import sys
import time

SETUP_MARK = "perfbench: setup done\n"


def main() -> int:
    root, sidecar, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[5:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    record: dict = {"setup_end": None}

    parse_args = argparse.ArgumentParser.parse_args

    def parse_args_stamped(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        if record["setup_end"] is None:
            record["setup_end"] = time.monotonic()
            if trace:
                sys.stderr.write(SETUP_MARK)
                sys.stderr.flush()
        return namespace

    from mcbounds import cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the package under {src}")

    recorder = None
    if trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
        parse_args_stamped = recorder.span("cli.parse_s", parse_args_stamped)
    argparse.ArgumentParser.parse_args = parse_args_stamped

    try:
        return cli.main(argv)
    finally:
        if recorder is not None:
            record.update(recorder.to_jsonable())
        with open(sidecar, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
