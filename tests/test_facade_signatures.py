"""The facade's signatures are a fixed point.

``repro.session`` and every public ``Session`` / ``GraphSession`` method keep
the signature they had when this table was captured from the hand-written
facade.  ``DELIBERATE`` lists the changes made on purpose, each with the
signature it replaced, so a generated facade can only move a signature by
listing it here.
"""

from __future__ import annotations

import inspect

import pytest

import repro
from repro.session import GraphSession, Session

RESULT = "'TraversalResult'"

PINNED = {
    "session": "(layout: 'str | ClusterLayout' = '4x1x2', options: 'BFSOptions | None' = None, "
    "hardware: 'HardwareSpec | None' = None, backend=None, kernels=None, "
    "storage: 'str | None' = None) -> \"'Session'\"",
    "Session.__init__": "(self, layout: 'str | ClusterLayout' = '4x1x2', "
    "options: 'BFSOptions | None' = None, hardware: 'HardwareSpec | None' = None, "
    "backend=None, kernels=None, storage: 'str | None' = None) -> 'None'",
    "Session.backend": "(self, backend) -> \"'Session'\"",
    "Session.bench": "(self, *args, **kwargs) -> 'dict'",
    "Session.bfs": f"(self, source: 'int') -> {RESULT}",
    "Session.build": "(self) -> \"'GraphSession'\"",
    "Session.campaign": "(self, *args, **kwargs) -> 'Campaign'",
    "Session.components": f"(self) -> {RESULT}",
    "Session.generate": "(self, scale: 'int' = 14, kind: 'str' = 'rmat', seed: 'int' = 11, "
    "weights: 'int | None' = None) -> \"'Session'\"",
    "Session.hardware": "(self, hardware: 'HardwareSpec') -> \"'Session'\"",
    "Session.khop": f"(self, source: 'int', max_hops: 'int') -> {RESULT}",
    "Session.load": "(self, edges: 'EdgeList | str | Path') -> \"'Session'\"",
    "Session.options": "(self, options: 'BFSOptions | None' = None, **kwargs) -> \"'Session'\"",
    "Session.pagerank": f"(self, **kwargs) -> {RESULT}",
    "Session.parents": f"(self, source: 'int') -> {RESULT}",
    "Session.run": f"(self, program: 'FrontierProgram') -> {RESULT}",
    "Session.run_many": "(self, *args, **kwargs) -> 'Campaign'",
    "Session.serve": "(self, *args, **kwargs)",
    "Session.serve_cluster": "(self, *args, **kwargs)",
    "Session.sssp": f"(self, source: 'int', delta: 'float | str' = 'auto') -> {RESULT}",
    "Session.storage": "(self, storage: 'str | None', path: 'str | Path | None' = None) "
    "-> \"'Session'\"",
    "Session.threshold": "(self, threshold: 'int | _Auto') -> \"'Session'\"",
    "Session.trace": "(self, path: 'str | Path | None' = None) -> \"'Session'\"",
    "Session.triangles": f"(self) -> {RESULT}",
    "Session.wcc_hook": f"(self) -> {RESULT}",
    "Session.write_trace": "(self, path: 'str | Path | None' = None) -> 'Path'",
    "GraphSession.__init__": "(self, edges: 'EdgeList', graph: 'PartitionedGraph', "
    "engine: 'TraversalEngine') -> 'None'",
    "GraphSession.backend": "(self, backend) -> \"'GraphSession'\"",
    "GraphSession.bench": "(self, program: 'FrontierProgram | None' = None, repeats: 'int' = 3, "
    "check_determinism: 'bool' = True) -> 'dict'",
    "GraphSession.bfs": f"(self, source: 'int') -> {RESULT}",
    "GraphSession.campaign": "(self, sources: 'np.ndarray | list[int] | int' = 5, "
    "program_factory=None, seed: 'int' = 11, validate=None, on_result=None) -> 'Campaign'",
    "GraphSession.close": "(self) -> 'None'",
    "GraphSession.components": f"(self) -> {RESULT}",
    "GraphSession.khop": f"(self, source: 'int', max_hops: 'int') -> {RESULT}",
    "GraphSession.mutate": "(self, delta=None, *, inserts=None, deletes=None, "
    "max_overlay_fraction: 'float' = 0.05, max_degree_crossings: 'int | None' = None)",
    "GraphSession.pagerank": "(self, damping: 'float' = 0.85, mode: 'str' = 'fixed', "
    f"iterations: 'int' = 20, eps: 'float' = 1e-07) -> {RESULT}",
    "GraphSession.parents": f"(self, source: 'int') -> {RESULT}",
    "GraphSession.run": f"(self, program: 'FrontierProgram') -> {RESULT}",
    "GraphSession.run_many": "(self, sources: 'np.ndarray | list[int] | int', "
    "program: 'str' = 'levels', batch_size: 'int | str | None' = 'auto', "
    "max_hops: 'int' = 3, seed: 'int' = 11) -> 'Campaign'",
    "GraphSession.serve": "(self, batch_size: 'int' = 32, cache_size: 'int' = 1024, "
    "batched: 'bool' = True, backend=None)",
    "GraphSession.serve_cluster": "(self, num_replicas: 'int' = 2, *, batch_size: 'int' = 32, "
    "cache_size: 'int' = 1024, backend=None, queue_limit: 'int' = 64, hedge: 'bool' = True, "
    "hedge_quantile: 'float' = 0.95, slo_ms: 'float | None' = None, router: 'str' = 'affinity')",
    "GraphSession.sssp": f"(self, source: 'int', delta: 'float | str' = 'auto') -> {RESULT}",
    "GraphSession.trace": "(self, path: 'str | Path | None' = None) -> \"'GraphSession'\"",
    "GraphSession.triangles": f"(self) -> {RESULT}",
    "GraphSession.wcc_hook": f"(self) -> {RESULT}",
    "GraphSession.write_trace": "(self, path: 'str | Path | None' = None) -> 'Path'",
}

#: Signatures changed on purpose: name -> (the pinned one it replaced, the new one).
#: ``Session``'s build-then-forward methods carry the signature of the
#: ``GraphSession`` method they call, so the five that took ``(*args,
#: **kwargs)`` and ``pagerank``'s ``(**kwargs)`` now state their parameters;
#: the tracing methods, stated once for both classes, return ``Self``; and
#: ``session`` / ``Session`` lost ``kernels``, an axis with one value.
DELIBERATE: dict[str, tuple[str, str]] = {
    **{
        f"Session.{name}": (PINNED[f"Session.{name}"], PINNED[f"GraphSession.{name}"])
        for name in ("bench", "campaign", "pagerank", "run_many", "serve", "serve_cluster")
    },
    **{
        f"{owner}.trace": (
            PINNED[f"{owner}.trace"], "(self, path: 'str | Path | None' = None) -> 'Self'"
        )
        for owner in ("Session", "GraphSession")
    },
    **{
        name: (PINNED[name], PINNED[name].replace("backend=None, kernels=None, ", "backend=None, "))
        for name in ("session", "Session.__init__")
    },
}

PROPERTIES = {
    "Session": {"tracer"},
    "GraphSession": {"backend_name", "dynamic", "storage_name", "tracer"},
}


def _public_methods(cls) -> set[str]:
    names = set()
    for name in dir(cls):
        if name.startswith("_") and name != "__init__":
            continue
        member = inspect.getattr_static(cls, name)
        if callable(member):
            names.add(f"{cls.__name__}.{name}")
    return names


def _resolve(qualified: str):
    if qualified == "session":
        return repro.session
    owner, name = qualified.split(".")
    return getattr({"Session": Session, "GraphSession": GraphSession}[owner], name)


def _expected(qualified: str) -> str:
    if qualified in DELIBERATE:
        old, new = DELIBERATE[qualified]
        assert PINNED[qualified] == old, f"{qualified}: DELIBERATE names a stale signature"
        return new
    return PINNED[qualified]


@pytest.mark.parametrize("qualified", sorted(PINNED))
def test_signature_pinned(qualified):
    assert str(inspect.signature(_resolve(qualified))) == _expected(qualified)


def test_no_public_method_unpinned():
    methods = _public_methods(Session) | _public_methods(GraphSession)
    pinned = set(PINNED) - {"session"}
    assert methods == pinned, (
        f"unpinned: {sorted(methods - pinned)}; gone: {sorted(pinned - methods)}"
    )


@pytest.mark.parametrize("cls", [Session, GraphSession], ids=lambda cls: cls.__name__)
def test_properties_unchanged(cls):
    found = {
        name for name in dir(cls) if isinstance(inspect.getattr_static(cls, name), property)
    }
    assert found == PROPERTIES[cls.__name__]


def test_hasattr_never_builds():
    """Attribute probes on an unbuilt session never partition a graph."""
    session = repro.session(layout="1x1x2")
    for qualified in PINNED:
        if qualified.startswith("Session."):
            assert hasattr(session, qualified.split(".")[1])
    assert not hasattr(session, "no_such_method")
    assert session._built is None
