"""Input generators and run lists for the benchmark workloads.

Every generator is a pure function of the workload seed. The graphs are
written to dataset directories before any timing starts; the library then
sees only those directories, through `load_graph`. Why each workload exists
is recorded in BENCHMARK.json and README.md.

Each workload trains one model per family on its pair. A family is an
aggregator (source-only runs) or an align or unsup objective on a gcn
encoder. The n^2 kernels (mmd, cl, and the feature MMD in `shift_report`)
cannot run on the 10,000-node sparse pair: one 20k x 20k float64 block is
3.2 GB. `sparse20k` therefore runs them on a 500+500-node pair from the same
sampler, so that every workload reports every end-to-end metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The release-gate recipe: 2 classes, 2-d means, the target shifted by a
# unit-norm offset and sparser within classes.
GATE_MEANS = np.array([[0.0, 0.0], [3.0, 0.0]])
GATE_SHIFT = np.array([[1.0, 0.0]])

# Call order within a round: light families first and mmd, which allocates
# and frees the most, last.
TRAIN_FAMILIES = ("gcn", "mean", "max", "gin", "adv", "im", "ae", "cl", "mmd")
KERNEL_FAMILIES = ("mmd", "cl")


@dataclass(frozen=True)
class Workload:
    hops: int
    hidden: int
    # epochs per train() call, per family. A call also runs init_params and
    # the final evaluate forward pass, which cost up to about one epoch; the
    # counts keep that under a tenth of the call, so epoch_ms tracks
    # per-epoch work (shares measured in README.md).
    # Fixed, so every commit does the same work.
    epochs: dict[str, int]


WORKLOADS = {
    "gate600": Workload(
        hops=1, hidden=128,
        # two mmd epochs: the first epoch's tape and gradients are still
        # alive while the second builds its own, and that sets the peak memory
        epochs={"gcn": 12, "mean": 18, "max": 6, "gin": 14, "mmd": 2,
                "adv": 5, "im": 6, "ae": 1, "cl": 2},
    ),
    "sparse20k": Workload(
        hops=2, hidden=64,
        # ae's epoch is long enough (about 1.1 s) to carry its fixed costs
        epochs={"gcn": 7, "mean": 4, "max": 8, "gin": 5, "mmd": 3,
                "adv": 4, "im": 6, "ae": 1, "cl": 3},
    ),
}


def gate_pair(gdakit, seed: int):
    """Gate 5's source/target CSBM pair, 300 nodes per class; the target seed
    is seed + 1000, so seed 0 gives gate 5's pair."""
    gs = gdakit.gen_csbm(300, 2, 0.10, 0.02, GATE_MEANS, 1.0, seed=seed)
    gt = gdakit.gen_csbm(300, 2, 0.06, 0.02, GATE_MEANS + GATE_SHIFT, 1.0,
                         seed=seed + 1000)
    return gs, gt


def planted_graph(gdakit, rng: np.random.Generator, n: int, num_classes: int,
                  avg_degree: float, homophily: float, means: np.ndarray,
                  sigma: float):
    """Undirected planted-partition graph drawn in O(edges).

    Labels come in equal contiguous blocks. Each of n * avg_degree / 2 draws
    picks a uniform endpoint i, then j from i's class with probability
    `homophily` and from a uniform other class otherwise. Self-pairs are
    dropped and repeated pairs collapse in `from_coo`, so the realized degree
    sits slightly below avg_degree.
    """
    block = n // num_classes
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), block)
    m = int(round(n * avg_degree / 2))
    src = rng.integers(0, n, size=m)
    same = rng.random(m) < homophily
    hop = rng.integers(1, num_classes, size=m)
    cls = np.where(same, labels[src], (labels[src] + hop) % num_classes)
    dst = cls * block + rng.integers(0, block, size=m)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    adj = gdakit.sparse.from_coo(n, n, np.concatenate([src, dst]),
                                 np.concatenate([dst, src]))
    feats = means[labels] + sigma * rng.standard_normal((n, means.shape[1]))
    return gdakit.SparseGraph(adj, feats, labels, num_classes, directed=False)


def planted_pair(gdakit, seed: int, n: int):
    """4-class, 16-d source/target pair. The target has lower degree, lower
    homophily and a feature-mean offset; its seed is seed + 1000."""
    shared = np.random.default_rng([seed, 16])
    means = 1.5 * shared.standard_normal((4, 16))
    offset = shared.standard_normal(16)
    offset /= np.linalg.norm(offset)
    gs = planted_graph(gdakit, np.random.default_rng(seed), n, 4, 10.0, 0.8,
                       means, 2.0)
    gt = planted_graph(gdakit, np.random.default_rng(seed + 1000), n, 4, 8.0, 0.6,
                       means + offset, 2.0)
    return gs, gt


def make_inputs(gdakit, workload: str, seed: int) -> dict:
    """{"main": (source, target), "kernel": (source, target)} for a workload.

    "kernel" is the pair the mmd, cl and shift_report runs use; it is the
    main pair except on sparse20k.
    """
    if workload == "gate600":
        main = gate_pair(gdakit, seed)
        return {"main": main, "kernel": main}
    if workload == "sparse20k":
        return {"main": planted_pair(gdakit, seed, 10_000),
                "kernel": planted_pair(gdakit, seed, 500)}
    raise KeyError(workload)


def experiment(gdakit, wl: Workload, family: str, seed: int):
    """The ExperimentConfig one family trains with on a workload: library
    defaults apart from the encoder size, dropout 0.1 and the epochs."""
    aggregator = family if family in ("gcn", "mean", "max", "gin") else "gcn"
    align = {"mmd": "mmd", "adv": "adversarial"}.get(family, "none")
    unsup = family if family in ("im", "ae", "cl") else "none"
    return gdakit.ExperimentConfig(
        encoder=gdakit.EncoderConfig(aggregator=aggregator, hops=wl.hops,
                                     hidden=wl.hidden, dropout=0.1),
        align=gdakit.AlignmentConfig(kind=align, alpha=1.0),
        unsup=gdakit.UnsupConfig(kind=unsup, beta=0.5),
        optim=gdakit.OptimConfig(epochs=wl.epochs[family]),
        seed=seed,
    )
