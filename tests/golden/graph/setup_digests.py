"""Golden digests of the set-up pipeline: generate, prepare, distribute, build.

``setup_digests.json`` beside this file holds one sha256 per case of
:func:`cases`, over the dtype, shape and bytes of every array the case
returns:

* the raw generators — ``generate_rmat_edges`` and
  ``generate_rmat_edge_chunks`` (weighted and not), ``wdc_like`` and
  ``wdc_like_edge_chunks``;
* the prepared graphs — ``generate_rmat`` under every ``hash_seed`` /
  ``symmetrize`` / ``deduplicate`` combination, and ``EdgeList.prepared``
  (``hash_seed`` ``None`` and 1) and ``deduplicated`` of the raw lists;
* the partitioning grid — rmat scales 8 to 14 (weighted and not) and a
  scale-12 WDC-like graph, each prepared with ``hash_seed`` ``None`` and 1,
  cut four ways (layouts ``1x1x1``, ``2x1x2``, ``2x2x2``, ``4x2x2``) at four
  thresholds (1, 4, the suggested one, and one above every degree):
  ``distribute_edges``' owner and category arrays, and every array of the
  ``build_partitions`` result (separation, census, and each GPU's four CSRs,
  source list and masks);
* ``external_build`` stores (mmap and compressed) from rmat and WDC chunks:
  the ``graph.bin`` bytes and the manifest.

It was written by ``python tests/golden/graph/setup_digests.py`` at the
commit before the set-up pipeline was made to work in place, and is not
regenerated: ``tests/test_golden_setup.py`` replays it.  The script refuses
to overwrite the file; ``--check`` re-derives every digest on any commit and
compares.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.graph.edgelist import EdgeList
from repro.graph.generators import wdc_like, wdc_like_edge_chunks
from repro.graph.rmat import generate_rmat, generate_rmat_edge_chunks, generate_rmat_edges
from repro.partition.delegates import suggest_threshold
from repro.partition.distributor import distribute_edges
from repro.partition.layout import ClusterLayout
from repro.partition.subgraphs import build_partitions
from repro.storage.extsort import external_build

GOLDEN = Path(__file__).with_name("setup_digests.json")

RMAT_SCALES = (8, 9, 10, 11, 12, 13, 14)
LAYOUTS = ("1x1x1", "2x1x2", "2x2x2", "4x2x2")
THRESHOLDS = ("1", "4", "auto", "inf")
HASH_SEEDS = (None, 1)
GRAPH_SEED = 5
WEIGHTS_SEED = 17


def digest(*arrays) -> str:
    """sha256 over the dtype, shape and bytes of each array (``None`` too)."""
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"<none>")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def edges_digest(edges: EdgeList) -> str:
    return digest(np.int64(edges.num_vertices), edges.src, edges.dst, edges.weights)


def chunks_digest(chunks) -> str:
    return digest(*(array for chunk in chunks for array in chunk))


def partition_digest(graph) -> str:
    sep = graph.separation
    arrays = [
        np.int64(graph.threshold),
        np.int64(graph.num_vertices),
        np.int64(graph.num_directed_edges),
        np.asarray(sorted(graph.census.as_dict().items()), dtype=object).astype(str),
        sep.degrees,
        sep.is_delegate,
        sep.delegate_vertices,
        sep.delegate_id_of,
    ]
    for gpu in graph.gpus:
        arrays += [np.int64(gpu.num_local), np.int64(gpu.num_delegates), gpu.local_is_normal]
        for key in ("nn", "nd", "dn", "dd"):
            csr = getattr(gpu, key)
            arrays += [
                np.int64(csr.num_rows),
                np.int64(csr.num_cols),
                csr.row_offsets,
                csr.column_indices,
                csr.edge_weights,
            ]
        arrays += [gpu.nd_source_list, gpu.dn_source_mask, gpu.dd_source_mask]
    return digest(*arrays)


def _raw(name: str) -> EdgeList:
    """The raw (unprepared) edge list a grid graph name stands for."""
    if name.startswith("wdc"):
        return wdc_like(1 << int(name[3:5]), rng=GRAPH_SEED)
    scale = int(name[4:6])
    weights = WEIGHTS_SEED if name.endswith("w") else None
    return generate_rmat_edges(scale, rng=GRAPH_SEED, weights_seed=weights)


def grid_graphs() -> list[str]:
    """Names of the graphs the partitioning grid cuts."""
    names = [f"rmat{s:02d}{w}" for s in RMAT_SCALES for w in ("", "w")]
    return names + ["wdc12"]


def grid_cases(name: str) -> dict:
    """Every digest of one grid graph: prepare, then distribute and build."""
    out = {}
    raw = _raw(name)
    for hash_seed in HASH_SEEDS:
        edges = raw.prepared(hash_seed=hash_seed)
        tag = f"grid/{name}/hash{hash_seed}"
        out[f"{tag}/prepared"] = edges_digest(edges)
        for notation in LAYOUTS:
            layout = ClusterLayout.from_notation(notation)
            auto = suggest_threshold(edges, layout.num_gpus)
            for th_name in THRESHOLDS:
                th = {"1": 1, "4": 4, "auto": auto, "inf": 1 << 62}[th_name]
                graph = build_partitions(edges, layout, th)
                case = f"{tag}/{notation}/th-{th_name}"
                assignment = distribute_edges(edges, graph.separation, layout)
                out[f"{case}/distribute"] = digest(assignment.owner, assignment.category)
                out[f"{case}/build"] = partition_digest(graph)
    return out


def generator_cases() -> dict:
    """Digests of the raw generators and the prepared-graph entry points."""
    out = {}
    for scale in (0, 1, 5, 10, 14):
        for weights in (None, WEIGHTS_SEED):
            tag = f"rmat{scale}/w{weights}"
            raw = generate_rmat_edges(scale, rng=GRAPH_SEED, weights_seed=weights)
            out[f"generate_rmat_edges/{tag}"] = edges_digest(raw)
            out[f"deduplicated/{tag}"] = edges_digest(raw.deduplicated())
            out[f"symmetrized/{tag}"] = edges_digest(raw.symmetrized())
            for hash_seed in HASH_SEEDS:
                out[f"prepared/{tag}/hash{hash_seed}"] = edges_digest(
                    raw.prepared(hash_seed=hash_seed)
                )
                for sym in (True, False):
                    for dedup in (True, False):
                        out[f"generate_rmat/{tag}/hash{hash_seed}/sym{sym}/dedup{dedup}"] = (
                            edges_digest(
                                generate_rmat(
                                    scale,
                                    rng=GRAPH_SEED,
                                    hash_seed=hash_seed,
                                    symmetrize=sym,
                                    deduplicate=dedup,
                                    weights_seed=weights,
                                )
                            )
                        )
            for chunk_edges in (1, 1000, 1 << 20):
                if scale > 10 and chunk_edges == 1:
                    continue
                out[f"generate_rmat_edge_chunks/{tag}/c{chunk_edges}"] = chunks_digest(
                    generate_rmat_edge_chunks(
                        scale, seed=GRAPH_SEED, chunk_edges=chunk_edges, weights_seed=weights
                    )
                )
    for log_n in (4, 10, 14):
        for weights in (None, WEIGHTS_SEED):
            tag = f"wdc{log_n}/w{weights}"
            raw = wdc_like(1 << log_n, rng=GRAPH_SEED, weights_seed=weights)
            out[f"wdc_like/{tag}"] = edges_digest(raw)
            for hash_seed in HASH_SEEDS:
                out[f"prepared/{tag}/hash{hash_seed}"] = edges_digest(
                    raw.prepared(hash_seed=hash_seed)
                )
            out[f"wdc_like_edge_chunks/{tag}"] = chunks_digest(
                wdc_like_edge_chunks(
                    1 << log_n, seed=GRAPH_SEED, chunk_edges=4096, weights_seed=weights
                )
            )
    return out


def store_cases() -> dict:
    """Digests of ``external_build`` stores (segment bytes and manifest)."""
    out = {}
    sources = {
        "rmat12": lambda: generate_rmat_edge_chunks(12, seed=GRAPH_SEED, chunk_edges=5000),
        "wdc12": lambda: wdc_like_edge_chunks(1 << 12, seed=GRAPH_SEED, chunk_edges=5000),
    }
    for name, chunks in sources.items():
        for storage in ("mmap", "compressed"):
            for hash_seed in HASH_SEEDS:
                with tempfile.TemporaryDirectory() as tmp:
                    store, _ = external_build(
                        chunks(),
                        1 << 12,
                        ClusterLayout.from_notation("2x1x2"),
                        Path(tmp) / "store",
                        storage=storage,
                        hash_seed=hash_seed,
                        block_edges=3000,
                    )
                    segment = (store / "graph.bin").read_bytes()
                    manifest = (store / "manifest.json").read_bytes()
                out[f"external_build/{name}/{storage}/hash{hash_seed}"] = digest(
                    np.frombuffer(segment, dtype=np.uint8), np.frombuffer(manifest, dtype=np.uint8)
                )
    return out


def derive() -> dict:
    """Every digest, by case name."""
    out = generator_cases()
    for name in grid_graphs():
        out.update(grid_cases(name))
    out.update(store_cases())
    return out


def main() -> int:
    if "--check" in sys.argv:
        expected = json.loads(GOLDEN.read_text())
        got = derive()
        same = [name for name in expected if got.get(name) == expected[name]]
        for name in sorted(set(expected) | set(got)):
            if got.get(name) != expected.get(name):
                print(f"MISMATCH {name}")
        print(f"{len(same)} of {len(expected)} digests match {GOLDEN}")
        return 0 if len(same) == len(expected) == len(got) else 1
    if GOLDEN.exists():
        print(f"{GOLDEN} exists; it is a fixed point and is never regenerated")
        return 1
    golden = derive()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
