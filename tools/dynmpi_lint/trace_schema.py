"""TRC checks: three-way cross-check of observability names.

Sources of truth that must agree:

  * src/        — every event/metric name literal that reaches
                  support::trace() or support::metrics();
  * schema      — tools/check_trace.py's closed KNOWN_EVENTS table
                  (parsed with the `ast` module, never executed);
  * docs        — docs/OBSERVABILITY.md's "Event catalog" and
                  "Metrics catalog" tables.

Name collection is lexical: any string literal whose first dotted segment
is an observability namespace (runtime, redist, balancer, machine, fault,
net, sim, trace) is collected, then classified *event* / *metric* / *unknown* by
the nearest trace()/metrics() call within the three preceding lines.
Literals ending in '.' are dynamic-name prefixes ("fault.injected." +
kind); docs names may use `{a,b}` alternation and `<placeholder>`
wildcards.  `// dynmpi-lint: ok(trace-name)` exempts a literal (e.g. the
unreachable fallback arm of an enum-to-name switch).

  TRC001  emitted event not in KNOWN_EVENTS
  TRC002  KNOWN_EVENTS entry never emitted (dead schema entry)
  TRC003  KNOWN_EVENTS entry absent from the docs
  TRC004  emitted metric not covered by the docs metrics catalog
  TRC005  unclassified observability literal unknown to schema and docs
  TRC006  documented catalog name never emitted / not in the schema
"""

import ast
import re

from . import Finding

NAMESPACES = {"runtime", "redist", "balancer", "machine", "fault", "net",
              "sim", "trace"}

_EXACT = re.compile(r"^([a-z][a-z0-9_]*)(\.[a-z0-9_]+)+$")
_PREFIX = re.compile(r"^([a-z][a-z0-9_]*)(\.[a-z0-9_]+)*\.$")

_EVENT_CTX = re.compile(r"\btrace\s*\(\s*\)|\.instant\s*\(|\.span\s*\("
                        r"|\bTraceEvent\b")
_METRIC_CTX = re.compile(r"\bmetrics\s*\(\s*\)|\.counter\s*\(|\.gauge\s*\("
                         r"|\.histogram\s*\(")


class Emitted:
    """One collected observability literal."""

    def __init__(self, name, rel, line, col, kind):
        self.name = name          # exact name, or prefix ending in '.'
        self.rel = rel
        self.line = line
        self.col = col
        self.kind = kind          # "event" | "metric" | "unknown"
        self.is_prefix = name.endswith(".")

    def matches(self, exact_name):
        if self.is_prefix:
            return exact_name.startswith(self.name)
        return self.name == exact_name


def observability_name(value):
    """Return the literal if it is an observability name (exact or dynamic
    prefix) in a known namespace, else None."""
    m = _EXACT.match(value) or _PREFIX.match(value)
    if m and m.group(1) in NAMESPACES:
        return value
    return None


def collect_emitted(sources):
    emitted = []
    for sf in sources:
        for line, col, value in sf.literals:
            name = observability_name(value)
            if name is None or sf.suppressed(line, "trace-name"):
                continue
            emitted.append(Emitted(name, sf.rel, line, col,
                                   _classify(sf, line)))
    return emitted


def _classify(sf, line):
    """Walk up to three lines above the literal for the nearest
    trace()/metrics() context; the closest line wins, and on that line the
    occurrence nearest the literal wins."""
    for ln in range(line, max(0, line - 4), -1):
        text = sf.code_lines[ln - 1]
        ev = [m.start() for m in _EVENT_CTX.finditer(text)]
        mx = [m.start() for m in _METRIC_CTX.finditer(text)]
        if ev or mx:
            return "event" if max(ev or [-1]) > max(mx or [-1]) else "metric"
    return "unknown"


# -- schema (check_trace.py) -------------------------------------------------

def parse_schema(path):
    """Return {event_name: line} from the KNOWN_EVENTS assignment."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if getattr(target, "id", None) == "KNOWN_EVENTS" and \
                        isinstance(node.value, ast.Dict):
                    return {
                        key.value: key.lineno
                        for key in node.value.keys
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    }
    return {}


# -- docs (OBSERVABILITY.md) -------------------------------------------------

_BACKTICK = re.compile(r"`([^`]+)`")


class DocName:
    def __init__(self, raw, line, catalog):
        self.raw = raw
        self.line = line
        self.catalog = catalog          # "event" | "metric"
        self.is_prefix = "<" in raw
        if self.is_prefix:
            self.base = raw.split("<", 1)[0]
        else:
            self.base = raw

    def covers(self, em):
        """Does this documented name cover the emitted literal `em`?"""
        if self.is_prefix:
            if em.is_prefix:
                return em.name.startswith(self.base) or \
                    self.base.startswith(em.name)
            return em.name.startswith(self.base)
        if em.is_prefix:
            return self.base.startswith(em.name)
        return self.base == em.name


def parse_docs(path):
    """Extract documented names from the two catalog tables, expanded."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    names = []
    catalog = None
    for i, line in enumerate(lines, start=1):
        if line.startswith("## "):
            title = line[3:].strip().lower()
            if "event catalog" in title:
                catalog = "event"
            elif "metrics catalog" in title:
                catalog = "metric"
            else:
                catalog = None
            continue
        if catalog is None or not line.lstrip().startswith("|"):
            continue
        cells = line.split("|")
        if len(cells) < 2:
            continue
        first = cells[1]
        if set(first.strip()) <= {"-", ":", " "}:
            continue  # the |---|---| separator row
        for tick in _BACKTICK.findall(first):
            for name in _expand(tick):
                if observability_name(name) or \
                        (("<" in name) and
                         observability_name(name.split("<", 1)[0])):
                    names.append(DocName(name, i, catalog))
    return names


def _expand(token):
    """Expand one `{a,b,c}` alternation (the docs never nest them)."""
    m = re.search(r"\{([^}]*)\}", token)
    if not m:
        return [token]
    head, tail = token[:m.start()], token[m.end():]
    return [head + alt + tail for alt in m.group(1).split(",")]


# -- the cross-check ---------------------------------------------------------

def check(sources, schema_path, schema_rel, docs_path, docs_rel, findings):
    emitted = collect_emitted(sources)
    schema = parse_schema(schema_path)
    docs = parse_docs(docs_path)
    with open(docs_path, encoding="utf-8") as f:
        docs_text = f.read()

    doc_events = [d for d in docs if d.catalog == "event"]
    doc_metrics = [d for d in docs if d.catalog == "metric"]

    for em in emitted:
        if em.kind == "event" and not em.is_prefix:
            if em.name not in schema:
                findings.append(Finding(
                    em.rel, em.line, em.col, "TRC001",
                    f'emitted trace event "{em.name}" is not in '
                    "tools/check_trace.py KNOWN_EVENTS — extend the schema "
                    "(and the docs catalog) before emitting"))
        elif em.kind == "metric":
            if not any(d.covers(em) for d in doc_metrics):
                findings.append(Finding(
                    em.rel, em.line, em.col, "TRC004",
                    f'emitted metric "{em.name}" is missing from the '
                    "docs/OBSERVABILITY.md metrics catalog"))
        elif em.kind == "unknown":
            known = (not em.is_prefix and em.name in schema) or \
                any(d.covers(em) for d in docs)
            if not known:
                findings.append(Finding(
                    em.rel, em.line, em.col, "TRC005",
                    f'observability name "{em.name}" is known to neither '
                    "the trace schema nor the docs catalogs — wire it up or "
                    "annotate with `// dynmpi-lint: ok(trace-name)`"))

    for name, line in sorted(schema.items()):
        if not any(em.matches(name) for em in emitted):
            findings.append(Finding(
                schema_rel, line, 1, "TRC002",
                f'schema event "{name}" is never emitted by src/ — dead '
                "KNOWN_EVENTS entry"))
        if name not in docs_text:
            findings.append(Finding(
                schema_rel, line, 1, "TRC003",
                f'schema event "{name}" is not documented in '
                "docs/OBSERVABILITY.md"))

    for d in doc_events:
        if d.is_prefix:
            in_schema = any(s.startswith(d.base) for s in schema)
        else:
            in_schema = d.base in schema
        if not in_schema:
            findings.append(Finding(
                docs_rel, d.line, 1, "TRC006",
                f'documented event "{d.raw}" is not in the check_trace.py '
                "schema — stale catalog row"))
    for d in doc_metrics:
        if not any(d.covers(em) for em in emitted
                   if em.kind in ("metric", "unknown")):
            findings.append(Finding(
                docs_rel, d.line, 1, "TRC006",
                f'documented metric "{d.raw}" is never emitted by src/ — '
                "stale catalog row"))
