"""Pinned output of the TPC-H generator (``repro.analytics.datagen``).

The SQL tests and the benchmark's sql_tpch check build their reference
results from the same generator, so they cannot see its output drift. These
digests cover every table, column and value, in order. They were recorded
while the generator still called ``randrange``/``randint``/``choice``
directly, before it moved onto draw streams, and must not move.
"""

import hashlib

import pytest

from repro.analytics.datagen import generate_database

#: sha256 of :func:`database_digest` per (scale factor, seed).
DIGESTS = {
    (0.001, 7): "1075321383779edef60db2d9bce6bad733d65ef8d59edb9adb09b4e94b97aae2",
    (0.002, 3): "ffd1c90b5dafef3a8ae01621a06ec58013f9ad6a807d1238dfd31f926d7978e7",
}


def database_digest(db) -> str:
    """Hash of every table's name, row count and columns, in order."""
    digest = hashlib.sha256()
    for name, table in db.items():
        digest.update(repr((name, table.nrows)).encode())
        for column, values in table.columns.items():
            digest.update(repr((column, values)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("scale_factor, seed", sorted(DIGESTS))
def test_generated_database_matches_its_pinned_digest(scale_factor, seed):
    db = generate_database(scale_factor, seed=seed)
    assert database_digest(db) == DIGESTS[scale_factor, seed]
