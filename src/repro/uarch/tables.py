"""``repro.uarch.tables`` — the versioned on-disk profile format.

A processor profile is one JSON document in the ``pymao.uarch/1`` schema:
per-instruction-class latency/throughput/port usage in the uops.info
style (Abel & Reineke), plus the front-end, LSD, branch-predictor,
back-end and memory parameters the trace simulator and the static model
consume.  ``core2``/``opteron``/``pentium4`` are *data files* under
``src/repro/uarch/data/`` (pinned field-wise against the legacy
constructors by golden tests), and new flavors — ``skylake``, ``zen`` —
are data-only additions requiring zero code changes.

Document shape::

    {"schema": "pymao.uarch/1",
     "name": "core2",
     "frontend": {"decode_line_bytes": 16, "decode_width": 4,
                  "lines_per_cycle": 1},
     "lsd": {"enabled": true, "max_lines": 4, "min_iterations": 64,
             "max_branches": 4, "stream_width": 4},
     "branch_predictor": {"table_size": 512, "index_shift": 5,
                          "mispredict_penalty": 15},
     "backend": {"issue_width": 4, "num_ports": 6, "forwarding_bw": 3,
                 "rs_size": 32},
     "instructions": {"alu": {"latency": 1, "ports": [0, 1, 5],
                              "throughput": 0.33}, ...},
     "memory": {...},
     "meta": {...}}                      # optional, provenance only

``throughput`` is the uops.info-style reciprocal throughput implied by
the port set (``1/len(ports)``); it is informational — the loader
derives the :class:`~repro.uarch.model.ProcessorModel` from ``latency``
and ``ports`` alone, and ``meta`` never participates in equality.

The module also owns :func:`resolve_core` — the one ``core=`` spelling
used by ``repro.api``, the CLI and the server: a
:class:`ProcessorModel`, a registered profile name, a path to a
``.json`` profile, or an inline profile document all resolve to a fresh
model.

``blinded.ranges.json`` (schema ``pymao.uarch-ranges/1``) lives in the
same data directory: the ordered parameter draws behind
``profiles.blinded_profile`` *and* the hypothesis space the
``repro.discover`` engine searches — one source of truth for the seed
contract and the discovery tests.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import (Any, Dict, FrozenSet, Iterable, List, Optional, Tuple,
                    Union)

from repro.result import register_schema
from repro.uarch.model import UOP_CLASSES, ProcessorModel

#: Schema tag of one on-disk processor profile.
UARCH_SCHEMA = register_schema("uarch", "pymao.uarch/1")

#: Schema tag of the blinded-profile parameter-range document.
RANGES_SCHEMA = register_schema("uarch-ranges", "pymao.uarch-ranges/1")

#: Directory holding the built-in profile data files.
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

#: Filename of the blinded-profile draw ranges (not a profile itself).
RANGES_FILENAME = "blinded.ranges.json"


class ProfileError(ValueError):
    """A profile document or file failed validation.

    Subclasses ``ValueError`` so surfaces that already map ``ValueError``
    to a clean CLI/API error (``mao`` exit 1, HTTP 400) cover profile
    problems without new plumbing.
    """


# ---------------------------------------------------------------------------
# Parameter paths: the dotted names shared by the ranges file, the
# discovery engine's inference report and the profile documents.
# ---------------------------------------------------------------------------

#: dotted path -> ProcessorModel field, for every scalar parameter.
_SCALAR_PATHS: Dict[str, str] = {
    "frontend.decode_line_bytes": "decode_line_bytes",
    "frontend.decode_width": "decode_width",
    "frontend.lines_per_cycle": "lines_per_cycle",
    "lsd.enabled": "lsd_enabled",
    "lsd.max_lines": "lsd_max_lines",
    "lsd.min_iterations": "lsd_min_iterations",
    "lsd.max_branches": "lsd_max_branches",
    "lsd.stream_width": "lsd_stream_width",
    "branch_predictor.table_size": "bp_table_size",
    "branch_predictor.index_shift": "bp_index_shift",
    "branch_predictor.mispredict_penalty": "bp_mispredict_penalty",
    "backend.issue_width": "issue_width",
    "backend.num_ports": "num_ports",
    "backend.forwarding_bw": "forwarding_bw",
    "backend.rs_size": "rs_size",
    "memory.cache_enabled": "cache_enabled",
    "memory.prefetcher_enabled": "prefetcher_enabled",
    "memory.prefetch_pc_alias_stride": "prefetch_pc_alias_stride",
    "memory.cache_size_bytes": "cache_size_bytes",
    "memory.cache_ways": "cache_ways",
    "memory.cache_line_bytes": "cache_line_bytes",
    "memory.memory_latency": "memory_latency",
}

#: The document sections and their scalar keys, derived from the paths.
_SECTIONS: Dict[str, List[str]] = {}
for _path in _SCALAR_PATHS:
    _section, _key = _path.split(".", 1)
    _SECTIONS.setdefault(_section, []).append(_key)


def param_value(model: ProcessorModel, path: str) -> Any:
    """Read the dotted *path* parameter off *model*.

    Scalar paths map to model fields; ``instructions.<class>.latency``
    and ``instructions.<class>.ports`` read the latency/port tables
    (ports as a list in *model order* — order is the issue-stage
    tie-break preference, so it is part of the parameter's value).
    """
    field = _SCALAR_PATHS.get(path)
    if field is not None:
        return getattr(model, field)
    parts = path.split(".")
    if len(parts) == 3 and parts[0] == "instructions":
        _, klass, leaf = parts
        if klass in UOP_CLASSES:
            if leaf == "latency":
                return model.latency[klass]
            if leaf == "ports":
                return list(model.port_map[klass])
    raise ProfileError("unknown profile parameter path %r" % (path,))


def model_from_params(name: str, params: Dict[str, Any]) -> ProcessorModel:
    """Build a model from ``{dotted path: value}`` (defaults elsewhere)."""
    kwargs: Dict[str, Any] = {"name": name}
    latency: Dict[str, int] = {}
    ports: Dict[str, Tuple[int, ...]] = {}
    for path, value in params.items():
        field = _SCALAR_PATHS.get(path)
        if field is not None:
            kwargs[field] = value
            continue
        parts = path.split(".")
        if len(parts) == 3 and parts[0] == "instructions" \
                and parts[1] in UOP_CLASSES:
            if parts[2] == "latency":
                latency[parts[1]] = int(value)
                continue
            if parts[2] == "ports":
                ports[parts[1]] = tuple(int(p) for p in value)
                continue
        raise ProfileError("unknown profile parameter path %r" % (path,))
    if latency:
        kwargs["latency"] = latency
    if ports:
        kwargs["port_map"] = ports
    return ProcessorModel(**kwargs)


# ---------------------------------------------------------------------------
# Document <-> model
# ---------------------------------------------------------------------------

def model_to_doc(model: ProcessorModel,
                 meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Serialize *model* as a ``pymao.uarch/1`` document."""
    doc: Dict[str, Any] = {"schema": UARCH_SCHEMA, "name": model.name}
    for section in ("frontend", "lsd", "branch_predictor", "backend",
                    "instructions", "memory"):
        if section == "instructions":
            # Port order is significant: the issue stage breaks
            # earliest-free ties toward the first listed port, so the
            # document preserves the model's order verbatim.
            table: Dict[str, Any] = {}
            for klass in UOP_CLASSES:
                ports = list(model.port_map[klass])
                table[klass] = {
                    "latency": model.latency[klass],
                    "ports": ports,
                    "throughput": (round(1.0 / len(ports), 4)
                                   if ports else None),
                }
            doc[section] = table
        else:
            doc[section] = {
                key: getattr(model,
                             _SCALAR_PATHS["%s.%s" % (section, key)])
                for key in sorted(_SECTIONS[section])}
    if meta is not None:
        doc["meta"] = meta
    return doc


def _expect(condition: bool, message: str, where: str) -> None:
    if not condition:
        raise ProfileError("%s: %s" % (where, message))


def validate_doc(doc: Any, where: str = "profile") -> Dict[str, Any]:
    """Validate a ``pymao.uarch/1`` document; returns it on success.

    Raises :class:`ProfileError` with a one-line reason on any problem —
    wrong schema tag, missing/unknown sections or keys, bad types, port
    numbers outside ``backend.num_ports``.
    """
    _expect(isinstance(doc, dict), "document must be a JSON object", where)
    schema = doc.get("schema")
    _expect(schema == UARCH_SCHEMA,
            "schema is %r, expected %r" % (schema, UARCH_SCHEMA), where)
    _expect(isinstance(doc.get("name"), str) and doc["name"],
            "name must be a non-empty string", where)
    allowed_top = {"schema", "name", "meta"} | set(_SECTIONS) \
        | {"instructions"}
    for key in doc:
        _expect(key in allowed_top, "unknown top-level key %r" % (key,),
                where)
    for section, keys in sorted(_SECTIONS.items()):
        body = doc.get(section)
        _expect(isinstance(body, dict),
                "missing or non-object section %r" % (section,), where)
        for key in body:
            _expect(key in keys, "unknown key %r in section %r"
                    % (key, section), where)
        for key in keys:
            _expect(key in body, "section %r is missing key %r"
                    % (section, key), where)
            value = body[key]
            if key in ("enabled", "cache_enabled", "prefetcher_enabled"):
                _expect(isinstance(value, bool), "%s.%s must be a boolean"
                        % (section, key), where)
            else:
                _expect(isinstance(value, int)
                        and not isinstance(value, bool),
                        "%s.%s must be an integer" % (section, key), where)
    table = doc.get("instructions")
    _expect(isinstance(table, dict),
            "missing or non-object section 'instructions'", where)
    for klass in table:
        _expect(klass in UOP_CLASSES,
                "unknown instruction class %r" % (klass,), where)
    num_ports = doc["backend"]["num_ports"]
    for klass in UOP_CLASSES:
        entry = table.get(klass)
        _expect(isinstance(entry, dict),
                "instructions is missing class %r" % (klass,), where)
        for key in entry:
            _expect(key in ("latency", "ports", "throughput"),
                    "unknown key %r in instructions.%s" % (key, klass),
                    where)
        _expect(isinstance(entry.get("latency"), int)
                and not isinstance(entry.get("latency"), bool)
                and entry["latency"] >= 0,
                "instructions.%s.latency must be a non-negative integer"
                % klass, where)
        ports = entry.get("ports")
        _expect(isinstance(ports, list)
                and all(isinstance(p, int) and not isinstance(p, bool)
                        for p in ports),
                "instructions.%s.ports must be a list of integers" % klass,
                where)
        _expect(all(0 <= p < num_ports for p in ports),
                "instructions.%s.ports outside 0..%d"
                % (klass, num_ports - 1), where)
        _expect(len(set(ports)) == len(ports),
                "instructions.%s.ports has duplicates" % klass, where)
    return doc


def doc_to_model(doc: Dict[str, Any],
                 where: str = "profile") -> ProcessorModel:
    """Validate *doc* and build the :class:`ProcessorModel` it describes."""
    validate_doc(doc, where)
    params: Dict[str, Any] = {}
    for path, _field in _SCALAR_PATHS.items():
        section, key = path.split(".", 1)
        params[path] = doc[section][key]
    for klass in UOP_CLASSES:
        params["instructions.%s.latency" % klass] = \
            doc["instructions"][klass]["latency"]
        params["instructions.%s.ports" % klass] = \
            doc["instructions"][klass]["ports"]
    return model_from_params(str(doc["name"]), params)


# ---------------------------------------------------------------------------
# Files and the registry
# ---------------------------------------------------------------------------

def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ProfileError("cannot read profile %s: %s"
                           % (path, exc.strerror or exc)) from exc


def _parse_json(data: bytes, path: str) -> Any:
    try:
        return json.loads(data)
    except ValueError as exc:
        raise ProfileError("profile %s is not valid JSON: %s"
                           % (path, exc)) from exc


def _read_json(path: str) -> Any:
    return _parse_json(_read_bytes(path), path)


def load_profile(path: str) -> ProcessorModel:
    """Load + validate one profile file; returns a fresh model."""
    return doc_to_model(_read_json(path), where=path)


def save_profile(model_or_doc: Union[ProcessorModel, Dict[str, Any]],
                 path: str) -> Dict[str, Any]:
    """Write a profile document (validated first) to *path*."""
    if isinstance(model_or_doc, ProcessorModel):
        doc = model_to_doc(model_or_doc)
    else:
        doc = model_or_doc
    validate_doc(doc, where=path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc


def profile_names() -> List[str]:
    """Sorted names of the built-in data-file profiles."""
    names = []
    for entry in sorted(os.listdir(DATA_DIR)):
        if entry.endswith(".json") and entry != RANGES_FILENAME:
            names.append(entry[:-len(".json")])
    return names


def profile_path(name: str) -> str:
    """Path of the built-in profile *name* (no existence check)."""
    return os.path.join(DATA_DIR, name + ".json")


#: Built-in profile names at the last listing of ``DATA_DIR``.
_BUILTIN: FrozenSet[str] = frozenset()

#: Per built-in profile file: the bytes it was last read as and the
#: model validated from them.
_LOADED: Dict[str, Tuple[bytes, ProcessorModel]] = {}


def is_profile_name(name: str) -> bool:
    """Whether *name* is a built-in profile.  The data directory is
    listed again only for a name its last listing lacks, so a profile
    dropped into it resolves on first use."""
    global _BUILTIN
    if name not in _BUILTIN:
        _BUILTIN = frozenset(profile_names())
    return name in _BUILTIN


def _builtin_model(name: str) -> ProcessorModel:
    """A fresh model of the built-in profile *name*.  Its file is read on
    every call but parsed and validated again only when its bytes
    changed."""
    path = profile_path(name)
    data = _read_bytes(path)
    loaded = _LOADED.get(path)
    if loaded is None or loaded[0] != data:
        loaded = _LOADED[path] = (
            data, doc_to_model(_parse_json(data, path), where=path))
    model = loaded[1]
    return dataclasses.replace(model, port_map=dict(model.port_map),
                               latency=dict(model.latency))


def _unknown(name: str) -> ProfileError:
    return ProfileError(
        "unknown processor model %r (known: %s; or pass a .json "
        "profile path)" % (name, ", ".join(profile_names())))


def get_profile(name: str) -> ProcessorModel:
    """A fresh model for the built-in profile *name*."""
    if not is_profile_name(name):
        raise _unknown(name)
    return _builtin_model(name)


def resolve_core(core: Union[str, Dict[str, Any], ProcessorModel]
                 ) -> ProcessorModel:
    """The one ``core=`` convention: model, name, path, or document.

    * a :class:`ProcessorModel` passes through untouched;
    * a dict is validated as an inline ``pymao.uarch/1`` document;
    * a string naming a built-in profile loads that data file;
    * any other string is treated as a path to a ``.json`` profile.
    """
    if isinstance(core, ProcessorModel):
        return core
    if isinstance(core, dict):
        return doc_to_model(core, where="inline profile")
    name = str(core)
    if is_profile_name(name):
        return _builtin_model(name)
    if name.endswith(".json") or os.path.sep in name \
            or os.path.exists(name):
        return load_profile(name)
    raise _unknown(name)


# ---------------------------------------------------------------------------
# The blinded-profile ranges (draws + hypothesis space)
# ---------------------------------------------------------------------------

def ranges_path() -> str:
    return os.path.join(DATA_DIR, RANGES_FILENAME)


def load_ranges(path: Optional[str] = None) -> Dict[str, Any]:
    """Load + validate the ``pymao.uarch-ranges/1`` draw document.

    ``draws`` is an *ordered* list of ``{"path", "choices"}`` — the
    order is the seed contract: ``blinded_profile`` consumes one
    ``rng.choice`` per entry, in file order, so appending new draws
    preserves every existing seed's values for the old parameters.
    ``fixed`` pins parameters every blinded model shares.
    """
    where = path or ranges_path()
    doc = _read_json(where)
    _expect(isinstance(doc, dict), "document must be a JSON object", where)
    _expect(doc.get("schema") == RANGES_SCHEMA,
            "schema is %r, expected %r" % (doc.get("schema"),
                                           RANGES_SCHEMA), where)
    draws = doc.get("draws")
    _expect(isinstance(draws, list) and draws,
            "draws must be a non-empty list", where)
    for entry in draws:
        _expect(isinstance(entry, dict) and isinstance(entry.get("path"),
                                                       str)
                and isinstance(entry.get("choices"), list)
                and len(entry["choices"]) >= 2,
                "each draw needs a path and >=2 choices", where)
    _expect(isinstance(doc.get("fixed"), dict),
            "fixed must be an object", where)
    return doc


def draw_choices(ranges: Dict[str, Any], path: str) -> List[Any]:
    """The candidate values the ranges document allows for *path*."""
    for entry in ranges["draws"]:
        if entry["path"] == path:
            return list(entry["choices"])
    raise ProfileError("ranges document has no draw for %r" % (path,))


def drawn_paths(ranges: Dict[str, Any]) -> List[str]:
    return [entry["path"] for entry in ranges["draws"]]


__all__ = [
    "UARCH_SCHEMA", "RANGES_SCHEMA", "DATA_DIR", "ProfileError",
    "param_value", "model_from_params", "model_to_doc", "validate_doc",
    "doc_to_model", "load_profile", "save_profile", "profile_names",
    "profile_path", "get_profile", "resolve_core", "ranges_path",
    "load_ranges", "draw_choices", "drawn_paths",
]
