"""One writer of the canonical JSON text: `cli._canonical_json` writes every
`--json` envelope on stdout, every cache entry, the text a cache entry is
compared against and the blob a cache key hashes, with the bytes of
`json.dumps(obj, indent=2, sort_keys=True)`.  `json.dumps` itself is called
only by `cli._pretty`, the human-readable form; a second writer of the
canonical text would be a second place that decides its bytes."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

WRITER = "_canonical_json"

# the defs that hand canonical text to stdout, the cache and the cache key
READERS = {("cli", "cached_run"), ("cli", "_cache_lookup"),
           ("cli", "_cache_key")}


def _name(func) -> str:
    """The called name, bare or as the last attribute."""
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def calls(source: str) -> list:
    """(def, call) of every call in a module-level def; a call inside a
    nested def counts for the def that holds it."""
    return [(node.name, call) for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            for call in ast.walk(node) if isinstance(call, ast.Call)]


def _is_writer_call(node) -> bool:
    return isinstance(node, ast.Call) and _name(node.func) == WRITER


def _text(call):
    """The text argument of a stdout write or a cache store, else None."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "write" \
            and _name(func.value) == "stdout":
        return call.args[0]
    return call.args[1] if _name(func) == "_cache_store" else None


def violations(source: str) -> list:
    """The defs that call json.dumps, json.dump or a JSONEncoder, other than
    _pretty, and those that write to stdout or store a cache entry with
    text that is not a _canonical_json call."""
    bad = []
    for owner, call in calls(source):
        text = _text(call)
        if _name(call.func) in ("dumps", "dump", "JSONEncoder") \
                and owner != "_pretty" \
                or text is not None and not _is_writer_call(text):
            bad.append(owner)
    return bad


def test_guard_flags_a_planted_writer():
    source = ("import json\n"
              "def _pretty(env):\n"
              "    print(json.dumps(env, sort_keys=True))\n"
              "def cached_run(env, path):\n"
              "    _cache_store(path, json.dumps(env, indent=2))\n"
              "    sys.stdout.write(_canonical_json(env))\n"
              "def emit(env):\n"
              "    def inner():\n"
              "        return dumps(env)\n"
              "    sys.stdout.write(inner())\n"
              "def store(env, path):\n"
              "    _cache_store(path, text(env))\n"
              "def encode(env):\n"
              "    return json.JSONEncoder(indent=2).encode(env)\n")
    assert violations(source) == ["cached_run", "cached_run", "emit", "emit",
                                  "store", "encode"]


def test_canonical_json_is_the_one_writer():
    paths = sorted((ROOT / "src" / "hwkit").glob("*.py"))
    sources = {path.stem: path.read_text(encoding="utf-8") for path in paths}
    assert {(stem, owner) for stem, source in sources.items()
            for owner in violations(source)} == set()
    called = {(stem, owner, _name(call.func))
              for stem, source in sources.items()
              for owner, call in calls(source)}
    assert {(stem, owner) for stem, owner, name in called
            if name == WRITER} == READERS
    assert ("cli", "_pretty", "dumps") in called
