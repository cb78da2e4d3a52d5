"""``Record``: the base class of the package's immutable value types.

A record acts as a frozen dataclass without the dataclass module, whose import
pulls ``inspect``, ``ast``, ``dis`` and ``tokenize`` into every start. Its
fields are its class's own annotations, in order; a class attribute of the
same name is the field's default. Records compare and hash as the tuple of
the fields not named in ``_uncompared``, never equal a record of another
class, refuse assignment and keep a ``__dict__`` for ``cached_property``.
"""

__all__ = ["Record"]


class Record:
    _uncompared = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__annotations__)
        params = "".join(f", {n}=_cls.{n}" if n in cls.__dict__ else f", {n}" for n in fields)
        sets = "".join(f"\n _setattr(self, {n!r}, {n})" for n in fields)
        compared = [n for n in fields if n not in cls._uncompared]
        mine, theirs = (f"({''.join(f'{o}.{n},' for n in compared)})" for o in ("self", "other"))
        namespace = {"_cls": cls, "_setattr": object.__setattr__}
        exec(f"def __init__(self{params}):{sets or ' pass'}\n"
             f"def __eq__(self, other):\n"
             f" if other.__class__ is self.__class__: return {mine} == {theirs}\n"
             f" return NotImplemented\n"
             f"def __hash__(self): return hash({mine})", namespace)
        for name in ("__init__", "__eq__", "__hash__"):
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, namespace[name])

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
