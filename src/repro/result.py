"""``repro.result`` — the shared contract for API result objects.

Every result the public surface hands back — :class:`repro.api.OptimizeResult`,
:class:`repro.api.SimResult`, :class:`repro.uarch.static_model.Prediction`,
:class:`repro.batch.BatchResult`, :class:`repro.tune.TuneResult` — implements
one small interface instead of five ad-hoc shapes:

* ``SCHEMA`` — the versioned wire-format tag (``"pymao.optimize/1"`` …)
  carried as ``{"schema": ...}`` in every serialized document;
* ``to_dict(timings=False)`` — the deterministic JSON-able document.
  Wall-clock timing fields are **opt-in** so that byte-identical runs
  serialize byte-identically (the batch and tune determinism tests pin
  this) while reporting surfaces can still ask for them;
* ``from_dict(data)`` — rebuild from the document.  Some results carry
  live objects a document cannot (a parsed unit, a machine state); those
  reconstruct what the document holds and note the rest as absent.

Subclassing :class:`ApiResult` with a ``SCHEMA`` registers the type in a
process-wide registry, so generic consumers (``mao --version``, the
server envelope, :func:`load_result`) enumerate or dispatch on schemas
without special-casing each shape.  Non-result schemas (trace, artifact,
server envelope, profiles) register via :func:`register_schema`
from the module that owns them.

This module deliberately imports nothing from the rest of ``repro`` so
any layer can depend on it without cycles.
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, Iterator, Optional, Tuple, Type

#: label -> schema string, insertion-ordered.
_LABELS: Dict[str, str] = {}

#: schema string -> ApiResult subclass (only result-object schemas).
_RESULT_TYPES: Dict[str, Type["ApiResult"]] = {}


def register_schema(label: str, schema: str,
                    result_type: Optional[Type["ApiResult"]] = None) -> str:
    """Register *schema* under *label* (idempotent for identical pairs).

    A label collision with a *different* schema string is a programming
    error — two modules claiming one name would make ``mao --version``
    ambiguous — and raises ``ValueError``.
    """
    existing = _LABELS.get(label)
    if existing is not None and existing != schema:
        raise ValueError("schema label %r already registered as %r"
                         % (label, existing))
    _LABELS[label] = schema
    if result_type is not None:
        _RESULT_TYPES[schema] = result_type
    return schema


def schema_registry() -> Dict[str, str]:
    """Every registered ``label -> schema`` pair (a copy).

    Only schemas whose owning module has been imported appear;
    ``mao --version`` imports the full surface first so the listing is
    complete there.
    """
    return dict(_LABELS)


def iter_schemas() -> Iterator[Tuple[str, str]]:
    """``(label, schema)`` pairs sorted by label — the ``--version``
    rendering order."""
    for label in sorted(_LABELS):
        yield label, _LABELS[label]


def result_type_for(schema: str) -> Optional[Type["ApiResult"]]:
    """The :class:`ApiResult` subclass owning *schema*, if any."""
    return _RESULT_TYPES.get(schema)


def load_result(data: Dict[str, Any]) -> "ApiResult":
    """Rebuild whichever result type *data*'s ``schema`` names."""
    if not isinstance(data, dict):
        raise ValueError("result document must be a dict")
    schema = data.get("schema")
    cls = _RESULT_TYPES.get(schema)
    if cls is None:
        raise ValueError("no result type registered for schema %r" % (schema,))
    return cls.from_dict(data)


class ApiResult:
    """Base class for public result objects.

    Subclasses set ``SCHEMA`` (and optionally ``SCHEMA_LABEL``; the
    default label is derived from the schema name) and implement
    ``to_dict`` / ``from_dict``.  Registration happens at class-creation
    time so importing a result's module is all it takes to appear in the
    schema registry.
    """

    SCHEMA: ClassVar[Optional[str]] = None
    SCHEMA_LABEL: ClassVar[Optional[str]] = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        schema = cls.__dict__.get("SCHEMA")
        if schema:
            label = cls.__dict__.get("SCHEMA_LABEL")
            if not label:
                # "pymao.optimize/1" -> "optimize"
                label = schema.split("/", 1)[0].rsplit(".", 1)[-1]
            register_schema(label, schema, result_type=cls)

    # -- the contract -------------------------------------------------------

    def to_dict(self, timings: bool = False) -> Dict[str, Any]:
        """The versioned JSON-able document.  Must be deterministic for
        deterministic inputs unless ``timings=True``."""
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ApiResult":
        raise NotImplementedError

    # -- helpers for subclasses ---------------------------------------------

    @classmethod
    def check_schema(cls, data: Dict[str, Any]) -> Dict[str, Any]:
        """Validate ``data["schema"]`` against ``cls.SCHEMA`` and return
        *data* — the standard first line of every ``from_dict``."""
        if not isinstance(data, dict):
            raise ValueError("%s document must be a dict" % cls.__name__)
        schema = data.get("schema")
        if schema != cls.SCHEMA:
            raise ValueError("unsupported %s schema %r (expected %r)"
                             % (cls.__name__, schema, cls.SCHEMA))
        return data
