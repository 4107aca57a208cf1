"""Start the `earpipe` command line the way its console script does.

    python3 perfbench/entry.py [--spans FILE] <earpipe arguments>

With --spans, the process records spans at earpipe's layer boundaries
and writes them to FILE when the command ends.
"""

import sys


def main(argv: list) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if spans_path is None:
        from earpipe.cli import main as cli_main

        return cli_main(argv)

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    import earpipe.cli

    try:
        return earpipe.cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
