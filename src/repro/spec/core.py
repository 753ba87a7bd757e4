"""The declarative spec engine: one validation path for every config parser.

Before this layer, the scenario / KV-tier / fault / fleet config parsers were
four hand-rolled ``*_from_dict`` functions with divergent error behaviour.
Here, a config format is *declared* once — a frozen dataclass whose fields are
built with :func:`spec_field` (type, default, range, choices, docs) and whose
class is decorated with :func:`spec_model` (error class, base JSON path,
supported versions) — and everything else derives from the declaration:

* construction — building an instance checks every declared field (type,
  finiteness, range, choices, conversion, the field's own ``check`` hook, the
  model of a nested block) and then the model's cross-field
  ``__spec_validate__(path)`` hook, so a model built by hand is held to the
  same declaration as a parsed one;
* :func:`from_dict` — parse a decoded JSON object into the model: reject a
  non-object, unknown keys, missing required keys and unsupported versions,
  recurse into nested blocks, then construct the instance.  Every failure,
  the construction checks included, carries the dotted JSON path of the
  offending value (``bool`` is never an ``int``);
* :func:`to_dict` — emit the *normalized* config dict (defaults filled,
  numbers coerced, keys in declaration order), the round-trip inverse that
  ``to_dict(from_dict(x)) == normalize(x)`` pins;
* :func:`normalize` — fill defaults and coerce values **without** building
  model objects: an independent second implementation of the declaration that
  the round-trip property checks the parser against;
* :func:`field_rows` — name/type/default/constraints rows for the generated
  ``docs/SPEC.md`` tables (``scripts/docs_check.py`` fails on drift);
* :mod:`repro.spec.fuzz` — hypothesis strategies for *valid* configs, derived
  from the same field declarations.

Versioning: every model accepts an optional ``"version"`` key.  A version the
build does not support raises :class:`~repro.errors.SpecVersionError` naming
the supported versions, so a config written for a future format fails loudly
instead of half-parsing.

A model is the one typed description of its block (the firebolt SDK's
model/service split): where the JSON shape is the runtime shape, services
take the parsed model itself; a service layer compiles a model only where
that does real work (``repro.faults.schedule`` builds the fault event
queue, ``repro.simulation.scenario`` each tenant's workload generator and
arrival process, parsed at the tenant's own path).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Any, Callable

from repro.errors import SpecError, SpecVersionError

__all__ = [
    "MISSING",
    "FieldInfo",
    "spec_field",
    "spec_model",
    "is_spec_model",
    "spec_fields",
    "from_dict",
    "to_dict",
    "normalize",
    "field_rows",
]

#: Sentinel: the field has no default and must appear in the config.
MISSING = dataclasses.MISSING

#: Config key every model accepts for format versioning.
VERSION_KEY = "version"

_METADATA_KEY = "repro.spec"


@dataclasses.dataclass(frozen=True)
class FieldInfo:
    """The declarative description of one config key.

    Attributes:
        types: Accepted Python types of the decoded JSON value.  ``bool`` is
            only accepted when explicitly listed — a JSON ``true`` is never a
            valid integer or number.
        default: Normalized default, or :data:`MISSING` for a required key.
        doc: One-line description, emitted into the generated field tables.
        minimum / maximum: Inclusive numeric bounds (``exclusive_minimum``
            makes the lower bound strict).
        choices: Closed set of allowed values.
        convert: Post-validation coercion (e.g. ``float``) applied both when
            an instance is built and when normalizing.
        check: Extra validator ``check(value, path)`` that raises on bad
            values — the hook for field-specific error classes and messages.
        model: Nested spec-model class (the value is a JSON object).
        item_parser: For lists: ``item_parser(value, path)`` parses one
            element (used where elements are polymorphic, like fault events).
        item_normalizer: For lists: the normalization counterpart of
            ``item_parser``.
        key_models: For fixed-key mappings (``"tiers"``): allowed key ->
            nested model class.
        unknown_key_error: For ``key_models`` mappings: factory
            ``(key, path) -> Exception`` for unknown keys (lets the tiers
            block keep raising :class:`~repro.errors.UnknownTierError`).
        fuzz: Optional hint for :mod:`repro.spec.fuzz` — either a hypothesis
            strategy factory or a bounding tuple; see ``strategy_for_field``.
        constraint_doc: Human-readable constraint column override for the
            generated docs table.
    """

    types: tuple[type, ...]
    default: Any = MISSING
    doc: str = ""
    minimum: float | None = None
    maximum: float | None = None
    exclusive_minimum: bool = False
    choices: tuple | None = None
    convert: Callable[[Any], Any] | None = None
    check: Callable[[Any, str], None] | None = None
    model: type | None = None
    item_parser: Callable[[Any, str], Any] | None = None
    item_normalizer: Callable[[Any, str], Any] | None = None
    key_models: dict[str, type] | None = None
    unknown_key_error: Callable[[str, str], Exception] | None = None
    fuzz: Any = None
    constraint_doc: str | None = None

    @property
    def required(self) -> bool:
        return self.default is MISSING

    def type_name(self) -> str:
        """Human-readable type for error messages and doc tables."""
        if self.model is not None or self.key_models is not None:
            return "object"
        if self.item_parser is not None:
            return "array"
        names = {bool: "boolean", int: "integer", float: "number",
                 str: "string", dict: "object", list: "array"}
        wanted = [t for t in self.types if t is not bool or bool in self.types]
        if int in self.types and float in self.types:
            return "number"
        return "/".join(dict.fromkeys(names.get(t, t.__name__) for t in wanted))


def spec_field(*, default: Any = MISSING, types: Any = None, doc: str = "",
               minimum: float | None = None, maximum: float | None = None,
               exclusive_minimum: bool = False, choices=None,
               convert: Callable | None = None, check: Callable | None = None,
               model: type | None = None, item_parser: Callable | None = None,
               item_normalizer: Callable | None = None,
               key_models: dict[str, type] | None = None,
               unknown_key_error: Callable | None = None,
               fuzz: Any = None, constraint_doc: str | None = None):
    """Declare one spec-model field (a :func:`dataclasses.field` wrapper).

    Args:
        default: Normalized default value; omit to make the key required.
            Mutable defaults (``{}``, ``[]``, ``()``) are copied per instance.
        types: Accepted decoded-JSON type or tuple of types.  Inferred as
            ``dict`` / ``list`` when ``model`` / ``item_parser`` is given.
        Everything else: see :class:`FieldInfo`.
    """
    if types is None:
        if model is not None or key_models is not None:
            types = (dict,)
        elif item_parser is not None:
            types = (list,)
        elif choices is not None:
            types = tuple({type(choice) for choice in choices})
        else:
            raise TypeError("spec_field needs types= (or model=/item_parser=)")
    if not isinstance(types, tuple):
        types = (types,)
    info = FieldInfo(
        types=types, default=default, doc=doc, minimum=minimum, maximum=maximum,
        exclusive_minimum=exclusive_minimum,
        choices=tuple(choices) if choices is not None else None,
        convert=convert, check=check, model=model, item_parser=item_parser,
        item_normalizer=item_normalizer, key_models=key_models,
        unknown_key_error=unknown_key_error, fuzz=fuzz,
        constraint_doc=constraint_doc,
    )
    kwargs: dict = {"metadata": {_METADATA_KEY: info}}
    if default is MISSING:
        kwargs["default"] = None  # dataclass default; construction rejects it
    elif isinstance(default, (dict, list)):
        kwargs["default_factory"] = (dict if isinstance(default, dict) else list)
    else:
        kwargs["default"] = default
    return dataclasses.field(**kwargs)


@dataclasses.dataclass(frozen=True)
class ModelInfo:
    """Per-model spec metadata attached by :func:`spec_model`."""

    error: type
    path: str
    versions: tuple[int, ...]
    title: str
    #: Config key -> :class:`FieldInfo`, declaration order.
    fields: dict
    #: The dataclass-generated ``__init__``, before construction checks.
    init: Callable


def spec_model(*, error: type = SpecError, path: str = "",
               versions: tuple[int, ...] = (1,), title: str = ""):
    """Class decorator registering a frozen dataclass as a spec model.

    Apply it above ``@dataclass``.  The class's ``__init__`` then checks the
    built instance against its declaration (see :func:`_validate`), so every
    instance of a spec model is a valid one.

    Args:
        error: Exception class raised for every validation failure of this
            model; must accept ``(message, *, path=...)``.
        path: Dotted JSON path of the model when built by hand or parsed as
            a document root (nested parses pass their own).
        versions: Config format versions this build understands.
        title: Section heading for the generated docs table (defaults to the
            class name).
    """

    def wrap(cls: type) -> type:
        init = cls.__init__
        info = ModelInfo(
            error=error, path=path, versions=tuple(versions),
            title=title or cls.__name__, fields=spec_fields(cls), init=init,
        )
        cls.__spec__ = info

        @functools.wraps(init)
        def __init__(self, *args, **kwargs) -> None:
            init(self, *args, **kwargs)
            _validate(self, info.path)

        cls.__init__ = __init__
        return cls

    return wrap


def is_spec_model(cls) -> bool:
    return hasattr(cls, "__spec__")


def spec_fields(cls) -> dict[str, FieldInfo]:
    """Config key -> :class:`FieldInfo` for a spec model, declaration order."""
    infos: dict[str, FieldInfo] = {}
    for field in dataclasses.fields(cls):
        info = field.metadata.get(_METADATA_KEY)
        if info is not None:
            infos[field.name] = info
    return infos


def _type_ok(value, info: FieldInfo) -> bool:
    if isinstance(value, bool):
        return bool in info.types
    return isinstance(value, info.types)


def _check_value(name: str, value, info: FieldInfo, *, path: str, error: type):
    """Validate and coerce one scalar value; returns the normalized value."""
    value_path = f"{path}.{name}" if path else name
    if info.check is not None:
        info.check(value, value_path)
    if not _type_ok(value, info):
        raise error(
            f"{name} must be {_article(info.type_name())}, got {value!r}",
            path=value_path,
        )
    if isinstance(value, float) and not math.isfinite(value):
        # NaN passes every range comparison below, and infinity every minimum.
        raise error(f"{name} must be a finite number, got {value!r}", path=value_path)
    if info.choices is not None and value not in info.choices:
        known = ", ".join(str(choice) for choice in sorted(info.choices, key=str))
        raise error(
            f"unknown {name} {value!r}; available: {known}", path=value_path
        )
    if info.minimum is not None:
        if info.exclusive_minimum:
            if value <= info.minimum:
                raise error(
                    f"{name} must be greater than {info.minimum:g}, got {value:g}",
                    path=value_path,
                )
        elif value < info.minimum:
            bound = (
                "non-negative" if info.minimum == 0
                else f"at least {info.minimum:g}"
            )
            raise error(f"{name} must be {bound}, got {value:g}", path=value_path)
    if info.maximum is not None and value > info.maximum:
        raise error(
            f"{name} must be at most {info.maximum:g}, got {value:g}",
            path=value_path,
        )
    if info.convert is not None:
        value = info.convert(value)
    elif isinstance(value, dict):
        value = dict(value)
    elif isinstance(value, list):
        value = list(value)
    return value


def _validate(instance, path: str) -> None:
    """Check a just-built spec model against its declaration, at ``path``.

    Each declared field is checked like a parsed value (type, finiteness,
    range, choices, the ``check`` hook) and stored converted; a nested block
    must hold an instance of its declared model, and an array field the
    tuple its item parser built.  An optional field left at ``None`` is
    omitted.  The model's ``__spec_validate__(path)`` hook then checks the
    cross-field rules.
    """
    model_info: ModelInfo = type(instance).__spec__
    error = model_info.error
    for name, info in model_info.fields.items():
        value = getattr(instance, name)
        if value is None and info.default is None:
            continue
        if info.model is not None:
            parsed = isinstance(value, info.model)
        elif info.key_models is not None:
            parsed = isinstance(value, dict) and all(
                isinstance(entry, info.key_models.get(key, ()))
                for key, entry in value.items()
            )
        elif info.item_parser is not None:
            parsed = isinstance(value, tuple)
        else:
            checked = _check_value(name, value, info, path=path, error=error)
            if checked is not value:
                object.__setattr__(instance, name, checked)
            continue
        if not parsed:
            raise error(
                f"{name} must hold its parsed {info.type_name()}, got {value!r}",
                path=f"{path}.{name}" if path else name,
            )
    validate = getattr(instance, "__spec_validate__", None)
    if validate is not None:
        validate(path)


def _article(type_name: str) -> str:
    return ("an " if type_name[:1] in "aio" else "a ") + type_name


def _reject_unknown(keys, accepted, *, path: str, error: type) -> None:
    """Raise ``error`` at the path of the first of ``keys`` not among the
    ``accepted`` keys, naming both."""
    unknown = sorted(set(keys) - set(accepted))
    if unknown:
        raise error(
            f"unknown keys {unknown}; accepted: {', '.join(accepted)}",
            path=f"{path}.{unknown[0]}" if path else unknown[0],
        )


def _check_version(cls, data: dict, *, path: str, error: type):
    """Validate the optional ``"version"`` key; returns the resolved version."""
    model_info: ModelInfo = cls.__spec__
    version = data.get(VERSION_KEY, model_info.versions[-1])
    if isinstance(version, bool) or not isinstance(version, int):
        raise error(
            f"version must be an integer, got {version!r}",
            path=f"{path}.{VERSION_KEY}" if path else VERSION_KEY,
        )
    if version not in model_info.versions:
        raise SpecVersionError(
            version, model_info.versions,
            path=f"{path}.{VERSION_KEY}" if path else VERSION_KEY,
        )
    return version


def from_dict(cls, data, *, path: str | None = None):
    """Parse a decoded JSON object into an instance of spec model ``cls``.

    The parse is structural: the value must be a JSON object with no unknown
    and no missing required keys and a supported ``"version"``; nested
    blocks and arrays are parsed recursively; keys left out take their
    declared defaults.  Constructing the instance then checks every value
    and the cross-field rules at ``path`` (see :func:`spec_model`).

    Raises the model's declared error class (a :class:`~repro.errors.SpecError`
    subclass) on any problem, always carrying the dotted JSON path, and
    :class:`~repro.errors.SpecVersionError` on an unsupported ``"version"``.
    """
    model_info: ModelInfo = cls.__spec__
    error = model_info.error
    if path is None:
        path = model_info.path
    if not isinstance(data, dict):
        raise error(
            f"expected a JSON object, got {type(data).__name__}", path=path
        )
    infos = model_info.fields
    _reject_unknown(data.keys() - {VERSION_KEY}, infos, path=path, error=error)
    version = _check_version(cls, data, path=path, error=error)

    kwargs: dict = {}
    for name, info in infos.items():
        if name == VERSION_KEY:
            kwargs[name] = version
            continue
        if name not in data:
            if info.required:
                raise error(f"missing required key {name!r}", path=path)
            continue
        value = data[name]
        child_path = f"{path}.{name}" if path else name
        if info.model is not None and value is not None:
            value = from_dict(info.model, value, path=child_path)
        elif info.key_models is not None:
            value = _parse_key_models(name, value, info, path=child_path, error=error)
        elif info.item_parser is not None:
            if not isinstance(value, list):
                raise error(f"{name} must be a JSON array", path=child_path)
            value = tuple(
                info.item_parser(entry, f"{child_path}[{index}]")
                for index, entry in enumerate(value)
            )
        kwargs[name] = value
    instance = cls.__new__(cls)
    model_info.init(instance, **kwargs)
    _validate(instance, path)
    return instance


def _parse_key_models(name: str, value, info: FieldInfo, *, path: str,
                      error: type) -> dict:
    if not isinstance(value, dict):
        raise error(f"{name} must be a JSON object", path=path)
    if info.unknown_key_error is None:
        _reject_unknown(value, info.key_models, path=path, error=error)
    parsed = {}
    for key, entry in value.items():
        model = info.key_models.get(key)
        if model is None:
            raise info.unknown_key_error(key, path)
        parsed[key] = from_dict(model, entry, path=f"{path}.{key}")
    return parsed


def to_dict(instance) -> dict:
    """Emit a spec model as its *normalized* config dict.

    Defaults are filled, numbers are coerced, keys follow declaration order,
    and optional blocks whose value is None are omitted — the exact shape
    :func:`normalize` produces from the raw input.
    """
    cls = type(instance)
    result: dict = {}
    for name, info in spec_fields(cls).items():
        value = getattr(instance, name)
        if value is None:
            continue
        if info.model is not None and value is not None:
            result[name] = to_dict(value)
        elif info.key_models is not None:
            result[name] = {key: to_dict(entry) for key, entry in value.items()}
        elif info.item_parser is not None:
            result[name] = [
                to_dict(entry) if is_spec_model(type(entry)) else entry
                for entry in value
            ]
        elif isinstance(value, dict):
            result[name] = dict(value)
        else:
            result[name] = value
    return result


def normalize(cls, data, *, path: str | None = None) -> dict:
    """Normalize a raw config dict *without* constructing model objects.

    An independent walk over the same declarations that :func:`from_dict`
    uses: validates shape, fills defaults, applies coercions, orders keys.
    ``to_dict(from_dict(cls, x)) == normalize(cls, x)`` is the round-trip
    property the spec tests pin — two code paths, one declaration.
    """
    model_info: ModelInfo = cls.__spec__
    error = model_info.error
    if path is None:
        path = model_info.path
    if not isinstance(data, dict):
        raise error(
            f"expected a JSON object, got {type(data).__name__}", path=path
        )
    infos = spec_fields(cls)
    _reject_unknown(data.keys() - {VERSION_KEY}, infos, path=path, error=error)
    version = _check_version(cls, data, path=path, error=error)
    result: dict = {}
    for name, info in infos.items():
        child_path = f"{path}.{name}" if path else name
        if name == VERSION_KEY:
            result[name] = version
            continue
        if name not in data:
            if info.item_parser is not None:
                result[name] = list(info.default)
            elif isinstance(info.default, dict):
                result[name] = dict(info.default)
            elif info.default is not None:
                result[name] = info.default
            continue
        value = data[name]
        if value is None and info.default is None:
            continue
        if info.model is not None:
            result[name] = normalize(info.model, value, path=child_path)
        elif info.key_models is not None:
            if not isinstance(value, dict):
                raise error(f"{name} must be a JSON object", path=child_path)
            if info.unknown_key_error is None:
                _reject_unknown(value, info.key_models, path=child_path,
                                error=error)
            normalized = {}
            for key, entry in value.items():
                model = info.key_models.get(key)
                if model is None:
                    raise info.unknown_key_error(key, child_path)
                normalized[key] = normalize(model, entry, path=f"{child_path}.{key}")
            result[name] = normalized
        elif info.item_parser is not None:
            if not isinstance(value, list):
                raise error(f"{name} must be a JSON array", path=child_path)
            normalizer = info.item_normalizer
            if normalizer is None:
                raise error(
                    f"{name} has no item normalizer declared", path=child_path
                )
            result[name] = [
                normalizer(entry, f"{child_path}[{index}]")
                for index, entry in enumerate(value)
            ]
        else:
            result[name] = _check_value(name, value, info, path=path, error=error)
    return result


def field_rows(cls) -> list[dict]:
    """name/type/default/constraints/description rows for docs generation."""
    rows = []
    for name, info in spec_fields(cls).items():
        if info.required:
            default = "*required*"
        elif info.default is None:
            default = "—"
        elif info.default == () or info.default == {}:
            default = "`[]`" if info.item_parser is not None else "`{}`"
        else:
            default = f"`{json_repr(info.default)}`"
        constraints = info.constraint_doc
        if constraints is None:
            parts = []
            if info.choices is not None:
                parts.append(
                    "one of " + ", ".join(
                        f"`{json_repr(c)}`"
                        for c in sorted(info.choices, key=str)
                    )
                )
            if info.minimum is not None:
                parts.append(
                    (f"> {info.minimum:g}" if info.exclusive_minimum
                     else f">= {info.minimum:g}")
                )
            if info.maximum is not None:
                parts.append(f"<= {info.maximum:g}")
            if info.model is not None:
                parts.append(f"see `{info.model.__name__}`")
            if info.key_models is not None:
                parts.append(
                    ", ".join(
                        f"`{key}` -> `{model.__name__}`"
                        for key, model in info.key_models.items()
                    )
                )
            constraints = "; ".join(parts) or "—"
        rows.append({
            "field": name,
            "type": info.type_name(),
            "default": default,
            "constraints": constraints,
            "description": info.doc,
        })
    return rows


def json_repr(value) -> str:
    """JSON-ish literal for docs tables (True -> true, None -> null)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return f'"{value}"'
    return repr(value)
