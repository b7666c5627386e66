"""No def at module or class level of the package is memoized by
`functools.cache` or `functools.lru_cache`: such a memo lives as long as the
process, carries state from one in-process `main()` call to the next and
hides a cost that a CLI run pays every time.  A memo made inside a call,
such as `functools.cache(lambda ...)` in a function body, lives only as
long as that call and is not flagged.  Work shared within a job goes
through the caller (a `ShiftTable` is made per job and handed to its
spans)."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

MEMOS = {"cache", "lru_cache"}

ALLOWED = {
    # hashes the package source once per process by design: the source
    # does not change while the process runs
    ("cli", "_source_digest"),
}


def _is_memo(decorator) -> bool:
    """Whether a decorator is cache, lru_cache, or either called or reached
    as an attribute (functools.lru_cache(maxsize=None))."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = (decorator.attr if isinstance(decorator, ast.Attribute)
            else decorator.id if isinstance(decorator, ast.Name) else None)
    return name in MEMOS


def memoized_defs(source: str) -> list:
    """(line, qualified name) of every def in the module body or in a class
    body (classes nested in classes included) with a memo decorator."""
    found = []

    def scan(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                scan(node.body, prefix + node.name + ".")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(_is_memo, node.decorator_list)):
                    found.append((node.lineno, prefix + node.name))

    scan(ast.parse(source).body, "")
    return found


def test_guard_flags_a_planted_memo():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@functools.cache\n"
              "def a(): pass\n"
              "@lru_cache(maxsize=None)\n"
              "def b(): pass\n"
              "class C:\n"
              "    @cache\n"
              "    def c(self): pass\n"
              "    class D:\n"
              "        @functools.lru_cache\n"
              "        def d(self): pass\n"
              "def e(k):\n"
              "    above = functools.cache(lambda c: c > k)\n"
              "    @functools.cache\n"
              "    def inner(c): return c\n"
              "    return above, inner\n"
              "@staticmethod\n"
              "def f(): pass\n")
    assert memoized_defs(source) == [(4, "a"), (6, "b"), (9, "C.c"),
                                     (12, "C.D.d")]


def test_no_process_wide_memos():
    found = {(path.stem, name): line
             for path in sorted((ROOT / "src" / "hwkit").glob("*.py"))
             for line, name in memoized_defs(path.read_text(encoding="utf-8"))}
    offenders = sorted(set(found) - ALLOWED)
    assert not offenders, offenders
    # every allowlisted memo is still there to be allowed
    assert ALLOWED <= set(found)
