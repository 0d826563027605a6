"""Mutation run: how many one-site faults in src/atlab does tests/ catch?

    python tests/mutate.py [MODULE ...]      # e.g. elliptic bounds; default all

A mutant swaps + and -, * and /, < and <=, or > and >= at one site, or scales
one float constant by 1 + 2**-40.  It is written into a temporary copy of
src/, and all of tests/ runs against it with PYTHONPATH at the copy (the CLI
tests' children import it too).  A failing run, or one past TIMEOUT seconds,
kills it.  Prints killed/total per module and each survivor's line.
"""

import ast
import contextlib
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 180  # seconds; all of tests/ takes about 17 s on a 2-vCPU x86-64 VM
SWAP = {ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*",
        ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">"}


def mutants(source: bytes):
    """Yield (line, change, mutated source) for each site of `source`."""
    starts = [0, *(m.end() for m in re.finditer(rb"\n", source))]

    def span(a, b):  # ast positions are (line, UTF-8 byte column)
        return starts[a.end_lineno - 1] + a.end_col_offset, starts[b.lineno - 1] + b.col_offset

    def swap(left, op, right):  # only brackets, blanks and the operator lie between
        lo, hi = span(left, right)
        old = re.sub(r"#[^\n]*", "", source[lo:hi].decode()).strip("()\\ \t\r\n")
        assert old in SWAP.values(), (right.lineno, old)
        at, new = source.index(old.encode(), lo), SWAP[type(op)]
        return right.lineno, f"{old} -> {new}", source[:at] + new.encode() + source[at + len(old):]

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAP:
            yield swap(node.left, node.op, node.right)
        elif isinstance(node, ast.Compare):
            yield from (swap(*site) for site in zip([node.left, *node.comparators], node.ops,
                                                    node.comparators) if type(site[1]) in SWAP)
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            new, (end, start) = node.value * (1 + 2**-40), span(node, node)
            if new != node.value:  # 0.0 would not change
                yield node.lineno, f"{node.value!r} -> {new!r}", \
                    source[:start] + repr(new).encode() + source[end:]


def killed(env: dict) -> bool:
    """Run tests/ in a session of its own, and end every process left in it."""
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             "tests/"], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(TIMEOUT) != 0
    except subprocess.TimeoutExpired:
        return True
    finally:
        with contextlib.suppress(ProcessLookupError):  # the group is empty
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def main(names: list[str]) -> int:
    names = names or sorted(p.stem for p in (ROOT / "src" / "atlab").glob("*.py"))
    rows = ["module       killed / total"]
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src", ignore=shutil.ignore_patterns("__pycache__"))
        # no .pyc: a mutant of the same size and mtime would load the last one's
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        if killed(env):
            sys.exit("tests/ fails on the unmutated copy of src/")
        for name in names:
            path = Path(tmp) / "src" / "atlab" / f"{name}.py"
            original, kills = path.read_bytes(), 0
            found = list(mutants(original))
            for line, change, source in found:
                path.write_bytes(source)
                if killed(env):
                    kills += 1
                else:
                    print(f"survived  src/atlab/{name}.py:{line}  {change}", flush=True)
            path.write_bytes(original)
            rows.append(f"{name:12s} {kills:6d} / {len(found)}")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
