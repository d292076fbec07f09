"""Frozen value records, the behaviour of ``@dataclass(frozen=True)``
without its cost at import: dataclasses compiles six methods per class
with ``exec``, about half a millisecond each class, in every fresh
interpreter the CLI starts.  ``frozen`` attaches the shared functions
below instead, which read the field names from the class.

A record's fields are its bases' fields, then its own annotated names in
order; a class attribute of the same name is the field's default.  The
constructor takes fields by position or keyword and then calls
``__post_init__``, which may set fields and other attributes through
``object.__setattr__``.  Instances refuse assignment and deletion.
Equality, hashing and repr read the fields only, unless the class
defines its own.
"""


def _init(self, *args, **kwargs):
    cls = type(self)
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional arguments but {len(args)} were given")
    values = dict(zip(names, args))
    for name in names[len(args):]:
        if name in kwargs:
            values[name] = kwargs.pop(name)
        elif name in cls._defaults:
            values[name] = cls._defaults[name]
        else:
            raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
    if kwargs:
        name = next(iter(kwargs))
        problem = "got multiple values for argument" if name in values else "got an unexpected keyword argument"
        raise TypeError(f"{cls.__qualname__}() {problem} {name!r}")
    self.__dict__.update(values)
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        post_init(self)


def _setattr(self, name, value):
    # as dataclasses does: a subclass left undecorated may set other names
    cls = type(self)
    if "_fields" in cls.__dict__ or name in cls._fields:
        raise AttributeError(f"cannot assign to field {name!r}")
    object.__setattr__(self, name, value)


def _delattr(self, name):
    cls = type(self)
    if "_fields" in cls.__dict__ or name in cls._fields:
        raise AttributeError(f"cannot delete field {name!r}")
    object.__delattr__(self, name)


def _astuple(self):
    return tuple([getattr(self, name) for name in self._fields])


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _astuple(self) == _astuple(other)


def _hash(self):
    return hash(_astuple(self))


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({fields})"


def frozen(cls):
    """Class decorator: make cls a frozen record of its annotated fields."""
    own = cls.__dict__.get("__annotations__", {})
    inherited = getattr(cls, "_fields", ())
    cls._fields = inherited + tuple(name for name in own if name not in inherited)
    cls._defaults = {**getattr(cls, "_defaults", {}), **{name: cls.__dict__[name] for name in own if name in cls.__dict__}}
    cls.__match_args__ = cls._fields
    cls.__init__, cls.__setattr__, cls.__delattr__ = _init, _setattr, _delattr
    for name, method in (("__eq__", _eq), ("__repr__", _repr)):
        if name not in cls.__dict__:
            setattr(cls, name, method)
    # a class that defines __eq__ alone has __hash__ = None in its namespace
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = _hash
    return cls


def replace(obj, **changes):
    """A copy of the record obj with the given fields changed."""
    return type(obj)(**{**asdict(obj), **changes})


def asdict(obj):
    """{field name: value} of the record obj, in field order; values are
    not copied or converted."""
    return {name: getattr(obj, name) for name in obj._fields}
