"""Run one covlasso CLI job in this process and exit with its code.

    python3 job.py -- SUBCOMMAND [ARGS...]
    python3 job.py --spans FILE JOB_ID -- SUBCOMMAND [ARGS...]

The benchmark starts a fresh process per job, so no state survives from
one CLI invocation to the next.  With ``--spans`` the per-layer tracer is
installed before the CLI runs, the whole ``covlasso.cli.main`` call is the
root span ``cli.SUBCOMMAND``, and the spans are written to FILE at exit.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    spans_path = job_id = None
    if argv[:1] == ["--spans"] and len(argv) >= 3:
        spans_path, job_id, argv = argv[1], argv[2], argv[3:]
    if argv[:1] != ["--"] or len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    cli_argv = argv[1:]

    from covlasso import cli

    if spans_path is None:
        return cli.main(cli_argv)

    from tracer import Recorder

    recorder = Recorder(job_id)
    recorder.install()
    code = recorder.call(f"cli.{cli_argv[0]}", cli.main, cli_argv)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
