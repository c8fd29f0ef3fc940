"""The value-record decorator.

`record` makes a class a slotted frozen dataclass with its own
`__init__`.  The one `dataclass` would generate stores each field
through `object.__setattr__`, to get past the frozen `__setattr__`;
this one stores it through the slot's own member descriptor, which is
about twice as fast for a small record.  It is built when the class is
decorated, at import, never on first use, and in place of the dataclass
one, so import does no more work.  It takes the same arguments, with
the same defaults and annotations, and still calls `__post_init__`.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, dataclass, fields


def record(cls: type) -> type:
    """`cls` as a frozen slotted dataclass whose `__init__` stores each
    field through its slot's descriptor.

    Every field is a plain positional argument, with or without a
    default; anything else (an inherited field, `field(...)`, a
    `ClassVar`) is refused with TypeError.
    """
    annotations = dict(cls.__dict__.get("__annotations__", {}))
    namespace: dict = {}  # the setters are added once the slots exist
    params, body = ["self"], []
    for name in annotations:
        default = cls.__dict__.get(name, MISSING)
        if isinstance(default, Field):
            raise TypeError(f"{cls.__name__}.{name}: a record field takes "
                            "a plain default")
        if default is MISSING:
            params.append(name)
        else:
            namespace[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        body.append(f"_set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n    "
         + "\n    ".join(body or ["pass"]), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = {**annotations, "return": None}
    cls.__init__ = init
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    if [f.name for f in fields(cls)] != list(annotations):
        raise TypeError(f"{cls.__name__}: a record's fields are the names "
                        "its own body annotates")
    for name in annotations:
        namespace[f"_set_{name}"] = cls.__dict__[name].__set__
    return cls
