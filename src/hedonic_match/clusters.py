"""Clusters of near gradients, for many slices of rows at once.

sample_splitting_sets groups each buyer's splitting-set members by their
buyer gradients; this is the array pass that does it for every buyer in one
go.  It needs numpy only.
"""

from __future__ import annotations

import numpy as np


def gradient_clusters(G: np.ndarray, bounds, tol) -> np.ndarray:
    """Cluster labels of the rows of G, slice by slice: the transitive
    closure of ‖G[a] − G[b]‖∞ ≤ tol[s] over the rows bounds[s]:bounds[s+1]
    of slice s.  Labels count the clusters in the order of their smallest
    row, so slice by slice.

    All slices grow their clusters in lockstep.  A cluster starts at its
    slice's smallest untaken row (its seed), and its rows are walked in the
    order they were taken.  Each round walks one row of every slice that
    still has untaken rows and compares it with those rows only, taking the
    near ones into the walked row's cluster.  So the rounds number the most
    rows any one slice walks, and a round costs the untaken rows of all
    slices.
    """
    bounds = np.asarray(bounds, dtype=np.intp)
    counts = np.diff(bounds)
    held = counts > 0
    # per slice with untaken rows, in slice order: how many, the next row to
    # walk in queue, where the next taken row goes, and the tolerance
    counts, ptr, tol = counts[held], bounds[:-1][held], np.asarray(tol, dtype=float)[held]
    fill = ptr.copy()
    label = np.empty(G.shape[0], dtype=np.intp)  # a cluster's seed, at first
    queue = np.empty(G.shape[0], dtype=np.intp)  # the taken rows, slice by slice
    rest = np.arange(G.shape[0])                 # the untaken rows, ascending
    cols = G.T.copy()
    while counts.size:
        first = counts.cumsum() - counts  # each slice's first untaken row in rest
        fresh = ptr == fill               # nothing to walk: the first row seeds
        seeded = first[fresh]
        walked = queue[ptr]
        seed = rest[seeded]
        walked[fresh] = label[seed] = seed
        ptr += ~fresh
        if counts.size == 1:  # the walked row and tol broadcast
            at, bound = walked, tol
        else:
            at, bound = np.repeat(walked, counts), np.repeat(tol, counts)
        near = np.abs(cols[0][rest] - cols[0][at]) <= bound
        for col in cols[1:]:  # ‖·‖∞ ≤ bound, one coordinate at a time
            near &= np.abs(col[rest] - col[at]) <= bound
        near[seeded] = False  # a seed is walked now, not queued
        took = np.add.reduceat(near, first, dtype=np.intp)
        if took.any():
            rows = rest[near]
            label[rows] = np.repeat(label[walked], took)
            queue[np.repeat(fill - took.cumsum() + took, took) + np.arange(rows.size)] = rows
            fill += took
        near[seeded] = True
        rest = rest[~near]
        counts -= took + fresh
        left = counts > 0
        if not left.all():
            counts, ptr, fill, tol = counts[left], ptr[left], fill[left], tol[left]
    return np.unique(label, return_inverse=True)[1]
