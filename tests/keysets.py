"""Packed-key sets for the tests.

A GroupSet is its chain and holds no key.  The oracles of the tests compare
sorted key arrays, so this module lists a group's keys
(finite_census._listed), yields its elements as matrices in key order, and
builds groups from generators and sets from keys or matrices.
"""

import numpy as np

from sympkit.families import GroupSet, _chain
from sympkit.finite_census import (_CHUNK_ROWS, _listed, pack_matrices,
                                   unpack_keys)


def sorted_keys(group):
    "The keys of a GroupSet (its chain's listing) or a KeySet, ascending."
    if isinstance(group, KeySet):
        return group.keys
    return _listed(group._chain, group.ell)


def _passes(keys, ell):
    "Yield the matrices of `keys`, in order, as (N, 4, 4) int64 passes."
    for i in range(0, keys.size, _CHUNK_ROWS):
        yield unpack_keys(keys[i:i + _CHUNK_ROWS], ell)


def matrices(group):
    "Yield the elements of a group as (N, 4, 4) int64 arrays in key order."
    return _passes(sorted_keys(group), group.ell)


def generated(gens, ell, factors=()):
    """The GroupSet of the chain of the 4x4 integer matrices `gens` (none:
    the trivial group), with the similitude `factors` given."""
    return GroupSet(ell, _chain(gens, ell), factors)


class KeySet:
    """A set of packed keys over F_ell, sorted and deduplicated, any set
    (not only a group).  charpoly_census reads its `ell` and `_blocks`
    (matrices in passes), as it reads a GroupSet's, and nu_values is
    GroupSet's, in key order."""

    def __init__(self, ell, keys):
        # by one sort (np.unique hashes since numpy 2.3, many times slower)
        keys = np.sort(np.asarray(keys, dtype=np.uint64), axis=None)
        keep = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        self.ell, self.keys = ell, keys[keep]

    @classmethod
    def from_matrices(cls, mats, ell):
        return cls(ell, pack_matrices(np.asarray(mats, np.int64) % ell, ell))

    @property
    def order(self):
        return self.keys.size

    def _blocks(self):
        return _passes(self.keys, self.ell)

    nu_values = GroupSet.nu_values

    def similitude_factors(self):
        "The factors nu of the elements, ascending."
        return np.flatnonzero(np.bincount(self.nu_values())).tolist()
