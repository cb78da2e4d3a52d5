"""``Record``: the base class of the package's immutable value types.

A record acts as a frozen dataclass without the dataclass module, whose import
pulls ``inspect``, ``ast``, ``dis`` and ``tokenize`` into every start. Its
fields are its class's own annotations, in order; a class attribute of the
same name is the field's default. Records compare and hash as the tuple of
the fields not named in ``_uncompared``, never equal a record of another
class, refuse assignment and keep a ``__dict__`` for ``cached_property``.

Comparison and hashing are closures over ``operator.attrgetter``, so creating
a class compiles nothing. Only ``__init__`` is generated source: a class's
first construction compiles it, installs it on the class and calls it, so each
class pays that compile at most once per process, and a class never
constructed never pays it. Two threads that both construct a class's first
record may both compile it; each installs an equivalent one. A generated
``__init__`` with named parameters constructs about twice as fast as a
generic ``*args, **kwargs`` one.
"""

from operator import attrgetter

__all__ = ["Record"]


class Record:
    _uncompared = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        compared = [n for n in cls._fields if n not in cls._uncompared]
        if len(compared) > 1:
            key = attrgetter(*compared)
        elif compared:
            one = attrgetter(*compared)

            def key(record):
                return (one(record),)
        else:
            def key(record):
                return ()

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        def __init__(self, *args, **kwargs):
            init = _compile_init(cls)
            cls.__init__ = init
            init(self, *args, **kwargs)

        for method in (__init__, __eq__, __hash__):
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def _compile_init(cls):
    """``cls``'s ``__init__``: one parameter per field, defaults from the class."""
    fields = cls._fields
    params = "".join(f", {n}=_cls.{n}" if n in cls.__dict__ else f", {n}" for n in fields)
    sets = "".join(f"\n _setattr(self, {n!r}, {n})" for n in fields)
    namespace = {"_cls": cls, "_setattr": object.__setattr__}
    exec(f"def __init__(self{params}):{sets or ' pass'}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
