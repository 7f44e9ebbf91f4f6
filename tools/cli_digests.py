"""Digest the CLI's output on the benchmark's ``cli-requests`` commands.

For each seed, ``perfbench/gen.py`` writes the workload's inputs into a
temporary directory, and every command of its manifest runs in-process
through ``reliattack.cli.main`` with that directory as the working
directory.  The output has one line per command: the seed, the argv, the
exit code, and the SHA-1 of stdout and of stderr.  Warnings go to stderr as
``Category: message``, without the source path and line of a printed
warning, so that two checkouts can be compared::

    python3 tools/cli_digests.py > new.txt          # seeds 1, 2 and 3
    python3 ../parent/tools/cli_digests.py > old.txt
    cmp old.txt new.txt

``tests/cli_digests.txt`` holds the lines of seeds 1, 2 and 3, and CI
compares the tool's output with it.  A change that alters a report on
purpose regenerates that file and names the changed lines.

Other seeds are given as arguments: ``python3 tools/cli_digests.py 4 5``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
from reliattack.cli import main  # noqa: E402


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def digests(seed: int) -> list[str]:
    """One line per ``cli-requests`` command of ``seed``, in manifest order."""
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        manifest = gen.generate("cli-requests", seed, tmp)
        os.chdir(tmp)
        try:
            for op in manifest["ops"]:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    with warnings.catch_warnings(record=True) as caught:
                        # each command sees a fresh registry, as in a new process
                        warnings.simplefilter("default")
                        code = main(list(op["argv"]))
                    for w in caught:
                        print(f"{w.category.__name__}: {w.message}", file=err)
                argv = json.dumps(op["argv"])
                lines.append(
                    f"{seed} {argv} {code} {_sha1(out.getvalue())} {_sha1(err.getvalue())}"
                )
        finally:
            os.chdir(cwd)
    return lines


if __name__ == "__main__":
    for seed in [int(s) for s in sys.argv[1:]] or [1, 2, 3]:
        print("\n".join(digests(seed)))
