"""Memory guards: the score export, the binary store and the user fits hold
temporaries bounded by a chunk, not by the table, and a table holds its
int64 inputs without a copy. Peaks are tracemalloc's, above what was held
before the call, on a 200 k-entry table (400 users x 500 entries)."""

import tracemalloc

import numpy as np
import pytest

from persize.calibrate import fit_all_users, fit_global
from persize.scorer import ScoreTable, export_scores, load_scores, save_scores

MB = 2**20


@pytest.fixture(scope="module")
def table_and_labels():
    rng = np.random.default_rng(0)
    users, per_user = 400, 500
    scores = rng.normal(size=users * per_user)
    labels = (rng.random(len(scores)) < 1.0 / (1.0 + np.exp(3.0 - scores))).astype(np.float64)
    table = ScoreTable(np.arange(users), np.arange(users + 1) * per_user,
                       np.tile(np.arange(per_user) * 3, users), scores)
    return table, labels


def _peak(call) -> int:
    """Bytes that ``call()`` allocates above what was traced at its start,
    at its peak."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_export_streams_its_text(table_and_labels, tmp_path):
    # the whole text, joined and encoded, was 17 MB
    table, _ = table_and_labels
    assert _peak(lambda: export_scores(table, tmp_path / "s.tsv", header="# h")) < MB


def test_store_writes_the_table_buffers(table_and_labels, tmp_path):
    # the joined copies of the arrays were 6 MB
    table, _ = table_and_labels
    assert _peak(lambda: save_scores(table, tmp_path / "s.bin")) < MB


def test_user_fits_hold_one_group_above_the_global_fit(table_and_labels):
    # one engine call over every user's segment held 4 MB above the global
    # fit's peak; a 32 768-entry group's eight float arrays are 2 MB
    table, labels = table_and_labels
    global_peak = _peak(lambda: fit_global(table, labels))
    assert _peak(lambda: fit_all_users(table, labels)) <= global_peak + 2 * MB


def _owner(arr):
    """The object at the end of an array's ``.base`` chain."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr


def test_a_loaded_store_is_views_of_the_file_bytes(table_and_labels, tmp_path):
    # a copy by the id rule would add the items column, 8 B per entry, to
    # every stage that loads the store
    table, _ = table_and_labels
    save_scores(table, tmp_path / "s.bin")
    loaded = load_scores(tmp_path / "s.bin")
    owners = [_owner(a) for a in (loaded.ids, loaded.indptr, loaded.items, loaded.scores)]
    assert all(owner is owners[0] for owner in owners)
    assert isinstance(owners[0], bytes) and len(owners[0]) == (tmp_path / "s.bin").stat().st_size


def test_a_table_holds_views_of_int64_arrays(table_and_labels):
    table, _ = table_and_labels
    ids, indptr, items = (np.array(a) for a in (table.ids, table.indptr, table.items))
    again = ScoreTable(ids, indptr, items, table.scores)
    for held, given in zip((again.ids, again.indptr, again.items), (ids, indptr, items)):
        assert np.shares_memory(held, given)
