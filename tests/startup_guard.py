"""Start-up guard, runnable without pytest:

    python -I -S tests/startup_guard.py

In a fresh interpreter it imports ``toricmld.cli`` from ``src/``, runs
``mld -`` on a small germ, and checks that neither ``dataclasses`` nor
``inspect`` (which would also pull in ``ast``, ``dis`` and ``tokenize``)
was imported, that the command did not build the argparse parser, and
that every name in ``toricmld.__all__`` resolves.
``-S`` leaves out the host's ``site`` processing, which on some
installations imports ``inspect`` itself.  Exits 0 when every check
holds, 1 otherwise, naming what failed on stderr.
"""

import io
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import toricmld  # noqa: E402
from toricmld import cli  # noqa: E402

out = io.StringIO()
sys.stdin, sys.stdout = io.StringIO('{"dim":2,"rays":[[0,1],[5,1]]}'), out
try:
    code = cli.main(["mld", "-"])
finally:
    sys.stdin, sys.stdout = sys.__stdin__, sys.__stdout__
expected = (0, '{"mld":"1","minimizers":[[1,1],[2,1],[3,1],[4,1]]}\n')
problems = [] if (code, out.getvalue()) == expected else [f"mld - gave {code} {out.getvalue()!r}"]
problems += [f"{name} is imported" for name in ("dataclasses", "inspect") if name in sys.modules]
problems += ["mld - built the argparse parser"] * cli._build_parser.cache_info().misses
problems += [f"toricmld.{name} does not resolve" for name in toricmld.__all__ if not hasattr(toricmld, name)]
print("\n".join(problems) or "ok", file=sys.stderr if problems else sys.stdout)
sys.exit(1 if problems else 0)
