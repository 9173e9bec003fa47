"""Set-up memory of ``rmat16-g500`` stage by stage, in one of two modes.

``python stages.py rss`` (from a checkout's root) prints the process's
``ru_maxrss`` high-water after each stage of the workload's cold set-up:
importing ``benchmarks/perf/adapter.py``, generating the raw RMAT edges,
``prepared()`` and ``suggest_threshold`` + ``build_partitions`` (layout
2x2x2).  ``python stages.py tracemalloc [SCALE]`` prints each stage's
tracemalloc peak above its input (the memory it needs beyond what it was
given) and the size of what it returns, for RMAT at ``SCALE`` (default 16),
unweighted and weighted.
"""

import resource
import sys
import tracemalloc


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak(fn, *args, **kwargs):
    """``(result, peak above input, retained)`` of one call, in MiB."""
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    out = fn(*args, **kwargs)
    current, high = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return out, (high - base) / 2**20, (current - base) / 2**20


def main() -> None:
    sys.path[:0] = ["src", "benchmarks/perf"]
    if sys.argv[1] == "rss":
        import adapter as A

        loaded = sum(1 for name in sys.modules if name.startswith("repro"))
        print(f"import adapter {rss_mib():6.1f} MiB  ({loaded} repro modules, "
              f"asyncio loaded: {'asyncio' in sys.modules})")
        raw = A.generate_rmat(16, rng=20180521, hash_seed=None, symmetrize=False,
                              deduplicate=False)
        print(f"generate       {rss_mib():6.1f} MiB")
        edges = raw.prepared()
        del raw
        print(f"prepare        {rss_mib():6.1f} MiB")
        layout = A.ClusterLayout.from_notation("2x2x2")
        A.build_partitions(edges, layout, A.suggest_threshold(edges, layout.num_gpus))
        print(f"build          {rss_mib():6.1f} MiB")
        return
    from repro.graph.rmat import generate_rmat_edges
    from repro.partition import (
        ClusterLayout,
        build_partitions,
        distribute_edges,
        separate_by_degree,
        suggest_threshold,
    )

    scale = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    layout = ClusterLayout.from_notation("2x2x2")
    for weights in (None, 7):
        raw, high, out = peak(generate_rmat_edges, scale, rng=3, weights_seed=weights)
        print(f"weights={weights} generate_rmat_edges +{high:6.2f} MiB  output {out:6.2f}")
        edges, high, out = peak(raw.prepared)
        print(f"weights={weights} prepared            +{high:6.2f} MiB  output {out:6.2f}")
        sep = separate_by_degree(edges, suggest_threshold(edges, layout.num_gpus))
        _, high, out = peak(distribute_edges, edges, sep, layout)
        print(f"weights={weights} distribute_edges    +{high:6.2f} MiB  output {out:6.2f}")
        _, high, out = peak(build_partitions, edges, layout, sep.threshold, sep)
        print(f"weights={weights} build_partitions    +{high:6.2f} MiB  output {out:6.2f}")


if __name__ == "__main__":
    main()
