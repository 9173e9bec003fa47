"""One run configuration: the run-time axes, resolved once, in one place.

``backend`` (where super-steps run), ``kernels`` (the name of the visit
kernels' implementation), ``storage`` (what backs the CSR arrays) and
``trace`` (where the CLI writes a trace) change wall-clock and memory,
never an answer, a counter or a modeled time.  :meth:`ExecConfig.resolve`
is the only code that reads ``$REPRO_BACKEND``, ``$REPRO_KERNELS``,
``$REPRO_STORAGE`` and ``$REPRO_TRACE``, checks an axis name and settles
``auto``.  Every axis takes an explicit argument, else a bench scenario's
pin (:meth:`ExecConfig.pinned`), else its environment variable, else the
default (``inline`` / ``auto`` / ``memory`` / no trace).  Public entry
points resolve their keywords once, on entry; the code below them takes the
one frozen :class:`ExecConfig`.

The visit kernels have one implementation, :mod:`repro.core.kernels`, so
the kernels axis has one value: ``numpy`` and ``auto`` both resolve to
``numpy``, which labels bench records and ``--json`` output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = ["BACKEND_NAMES", "PROVIDER_NAMES", "STORAGE_NAMES", "ExecConfig", "axis_name"]

#: Execution backends: *where* the per-GPU kernel tasks of a super-step run.
BACKEND_NAMES = ("inline", "process", "thread")
#: Kernel names: both resolve to ``numpy``, the one implementation.
PROVIDER_NAMES = ("numpy", "auto")
#: Storage modes: *what* backs the partitioned CSR arrays.
STORAGE_NAMES = ("memory", "mmap", "compressed")

_NAMES = {"backend": BACKEND_NAMES, "kernels": PROVIDER_NAMES, "storage": STORAGE_NAMES}
_DEFAULTS = {"backend": "inline", "kernels": "auto", "storage": "memory"}
_ENV = {
    "backend": "REPRO_BACKEND",
    "kernels": "REPRO_KERNELS",
    "storage": "REPRO_STORAGE",
    "trace": "REPRO_TRACE",
}


def axis_name(axis: str, value, source: str = "") -> str:
    """``value`` stripped and lower-cased, if it names a choice of ``axis``;
    ``source`` (an environment variable) prefixes the error message."""
    name = str(value).strip().lower()
    if name not in _NAMES[axis]:
        where = f"{source}: " if source else ""
        raise ValueError(
            f"{where}{axis} must be one of {', '.join(_NAMES[axis])}, got {value!r}"
        )
    return name


def _is_backend(value) -> bool:
    """Whether ``value`` is a live backend (imported lazily: the backend
    module imports its names from this one)."""
    from repro.exec.backend import ExecutionBackend

    return isinstance(value, ExecutionBackend)


def _resolve(axis: str, value):
    """One axis: ``value`` if given, else its environment variable, else the
    default.  Names are stripped and lower-cased (a trace path is only
    stripped), kernels resolve to ``numpy``, and live backend instances pass
    through."""
    source = ""
    if value is None:
        source = "$" + _ENV[axis]
        value = os.environ.get(_ENV[axis], "").strip() or None
    if axis == "trace":
        path = "" if value is None else str(value).strip()
        return Path(path) if path else None
    if value is None:
        value = _DEFAULTS[axis]
    elif axis == "backend" and _is_backend(value):
        return value
    else:
        value = axis_name(axis, value, source)
    return "numpy" if axis == "kernels" else value


@dataclass(frozen=True)
class ExecConfig:
    """The resolved run-time axes of one run; build it with :meth:`resolve`.

    ``backend`` is a name of :data:`BACKEND_NAMES` or a live (caller-owned)
    :class:`~repro.exec.backend.ExecutionBackend`; ``kernels`` is ``numpy``;
    ``storage`` is a name of :data:`STORAGE_NAMES`; ``trace`` is a path or
    ``None``.  ``explicit`` names the axes an explicit argument set, which
    :meth:`pinned` leaves alone.
    """

    backend: object
    kernels: str
    storage: str
    trace: Path | None
    explicit: frozenset = field(default=frozenset(), compare=False, repr=False)

    @classmethod
    def resolve(cls, backend=None, kernels=None, storage=None, trace=None) -> "ExecConfig":
        """Every axis from its argument, else the environment, else the
        default (``None`` means "not given")."""
        given = {"backend": backend, "kernels": kernels, "storage": storage, "trace": trace}
        return cls(
            **{axis: _resolve(axis, value) for axis, value in given.items()},
            explicit=frozenset(axis for axis, value in given.items() if value is not None),
        )

    def override(self, **axes) -> "ExecConfig":
        """This configuration with ``axes`` resolved afresh, as by
        :meth:`resolve` (``None`` defers to the environment, then the default)."""
        return replace(
            self,
            **{axis: _resolve(axis, value) for axis, value in axes.items()},
            explicit=(self.explicit - axes.keys())
            | {axis for axis, value in axes.items() if value is not None},
        )

    def pinned(self, **pins) -> "ExecConfig":
        """Apply a bench scenario's pins (``None`` = unpinned): a pin beats
        the environment and the default, never an explicit argument."""
        return replace(
            self,
            **{
                axis: axis_name(axis, value)
                for axis, value in pins.items()
                if value is not None and axis not in self.explicit
            },
        )

    @property
    def backend_name(self) -> str:
        """Registry name of the backend (a live instance's own name)."""
        return self.backend if isinstance(self.backend, str) else self.backend.name

    @property
    def kernels_name(self) -> str:
        """The kernels label bench records and ``--json`` output carry."""
        return self.kernels
