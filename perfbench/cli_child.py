"""One traced ``abduce``/``mpe`` process for the cli-small workload.

    python3 perfbench/cli_child.py SPANS_FILE QUERY_ID abduce solve MODEL

Times ``import abduce.cli`` and the click command, wraps the library layers
as the in-process trace does, and writes the spans to SPANS_FILE.  The
command's output goes to stdout as it would from the plain process.
"""

import sys

import spans


def main() -> None:
    out, qid, group, *args = sys.argv[1:]
    rec = spans.Recorder()
    rec.query = int(qid)
    with rec.span("cli.import"):
        import abduce.cli
    spans.install(rec)
    with rec.span("cli.command"):
        getattr(abduce.cli, group).main(args, prog_name=group,
                                         standalone_mode=False)
    rec.unpatch()
    rec.dump(out)


if __name__ == "__main__":
    main()
