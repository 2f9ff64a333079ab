"""One-query searches as batches of one row.

Search structures implement only the batch protocol (``nn_batch``,
``knn_batch``, ``radius_batch_csr``); these helpers give tests the
one-query form of each, and the per-query lists of a radius batch.
"""

import numpy as np


def nn(index, query, stats=None):
    indices, dists = index.nn_batch(np.atleast_2d(query), stats)
    return int(indices[0]), float(dists[0])


def knn(index, query, k, stats=None):
    indices, dists = index.knn_batch(np.atleast_2d(query), k, stats)
    return indices[0], dists[0]


def radius(index, query, r, stats=None, sort=False):
    result = index.radius_batch_csr(np.atleast_2d(query), r, stats, sort=sort)
    return result.indices, result.distances


def radius_lists(index, queries, r, stats=None, sort=False):
    return index.radius_batch_csr(queries, r, stats, sort=sort).to_list_pair()
