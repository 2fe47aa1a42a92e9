"""Output verification.

The paper kept the original input files around to verify output files
(footnote 7). We verify more strongly, using the ``uid`` field stamped
by the workload generators:

1. **order** — output keys are nondecreasing in PDM global order;
2. **permutation** — the output's uid multiset equals the input's (no
   record lost, duplicated, or fabricated);
3. **integrity** — each record's key still matches the key its uid had
   in the input (no record body was corrupted in flight).

A stored output is checked in one streamed pass over its chunks, so
verification needs no more memory than the input plus one chunk plus
about 9 bytes per record.
"""

from __future__ import annotations

import numpy as np

from repro.disks.matrixfile import CHUNK_BYTES, PdmStore
from repro.errors import VerificationError
from repro.records.format import stable_argsort


def verify_sorted(records: np.ndarray) -> None:
    """Raise unless keys are nondecreasing."""
    keys = records["key"]
    if len(keys) and np.any(keys[:-1] > keys[1:]):
        bad = int(np.flatnonzero(keys[:-1] > keys[1:])[0])
        raise VerificationError(
            f"output not sorted: key[{bad}]={keys[bad]} > key[{bad + 1}]={keys[bad + 1]}"
        )


def verify_permutation(output: np.ndarray, reference: np.ndarray) -> None:
    """Raise unless ``output`` is a true permutation of ``reference``
    with intact keys (matched through the uid field)."""
    if len(output) != len(reference):
        raise VerificationError(
            f"output has {len(output)} records, input had {len(reference)}"
        )
    out_order = stable_argsort(output["uid"])
    ref_order = stable_argsort(reference["uid"])
    out_uid = output["uid"][out_order]
    ref_uid = reference["uid"][ref_order]
    if not np.array_equal(out_uid, ref_uid):
        raise VerificationError("output uids are not a permutation of input uids")
    if not np.array_equal(output["key"][out_order], reference["key"][ref_order]):
        raise VerificationError("some record's key changed between input and output")


def verify_pdm_balance(store: PdmStore) -> None:
    """Raise unless the output layout has PDM's load-balance property
    (paper footnote 6): any window of ``k·B·D`` consecutive records
    touches every disk exactly ``k·B`` records' worth.

    Checked structurally from the store's address arithmetic over a set
    of windows covering every block-phase offset.
    """
    from repro.disks.pdm import pdm_disk_of

    block, d = store.block, store.cfg.virtual_disks
    stripe = block * d
    if store.n < stripe:
        return  # fewer records than one stripe: balance is vacuous
    for start in range(0, min(store.n - stripe, 3 * stripe) + 1, max(1, block // 2)):
        counts = np.bincount(
            [pdm_disk_of(g, block, d) for g in range(start, start + stripe)],
            minlength=d,
        )
        if counts.max() != counts.min():
            raise VerificationError(
                f"PDM balance violated: window [{start}, {start + stripe}) "
                f"touches disks unevenly ({counts.tolist()})"
            )


def _key_by_uid(reference: np.ndarray) -> np.ndarray:
    """Each reference key at its uid's index. Raise unless the uids are
    a permutation of ``0..N-1`` — the stamp of every generator and of
    :meth:`~repro.records.format.RecordFormat.make`."""
    n = len(reference)
    key_by_uid = np.empty(n, dtype=reference.dtype["key"])
    seen = np.zeros(n, dtype=bool)
    step = max(1, CHUNK_BYTES // reference.dtype.itemsize)
    for start in range(0, n, step):
        part = reference[start : start + step]
        uids = part["uid"]
        if uids.max() >= n:
            raise VerificationError(
                f"reference uids are not a permutation of 0..N-1: uid "
                f"{int(uids.max())} ≥ N={n}"
            )
        key_by_uid[uids] = part["key"]
        seen[uids] = True
    if not seen.all():
        raise VerificationError(
            f"reference uids are not a permutation of 0..N-1: uid "
            f"{int(np.argmin(seen))} is missing"
        )
    return key_by_uid


def _verify_store(store: PdmStore, reference: np.ndarray) -> None:
    """Order, permutation and integrity of a stored output, streamed:
    one :meth:`PdmStore.chunks` chunk plus a key-by-uid column and a
    seen flag (about 9 bytes per record) at a time."""
    n = store.n
    if n != len(reference):
        raise VerificationError(
            f"output has {n} records, input had {len(reference)}"
        )
    key_by_uid = _key_by_uid(reference)
    seen = np.zeros(n, dtype=bool)
    last = None
    for start, chunk in store.chunks():
        keys, uids = chunk["key"], chunk["uid"]
        # order, carrying the previous chunk's last key across the seam
        if last is not None and last > keys[0]:
            bad = start - 1
            raise VerificationError(
                f"output not sorted: key[{bad}]={last} > key[{start}]={keys[0]}"
            )
        down = keys[:-1] > keys[1:]
        if down.any():
            i = int(np.argmax(down))
            raise VerificationError(
                f"output not sorted: key[{start + i}]={keys[i]} > "
                f"key[{start + i + 1}]={keys[i + 1]}"
            )
        last = keys[-1]
        top = int(uids.max())
        if top >= n:
            raise VerificationError(
                f"output uids are not a permutation of input uids: "
                f"uid {top} ≥ N={n}"
            )
        changed = key_by_uid[uids] != keys
        if changed.any():
            i = int(np.argmax(changed))
            raise VerificationError(
                f"some record's key changed between input and output: "
                f"key[{start + i}] (uid {uids[i]})"
            )
        seen[uids] = True
    # n uids all below n: every one seen means none was lost or doubled
    if not seen.all():
        raise VerificationError(
            f"output uids are not a permutation of input uids: uid "
            f"{int(np.argmin(seen))} is missing"
        )


def verify_output(
    output: PdmStore | np.ndarray, reference: np.ndarray
) -> np.ndarray | None:
    """Full verification of a sort run: order, permutation and
    integrity, and — for stores — the PDM balance property.

    A store is streamed (:func:`_verify_store`) and returns None; its
    ``reference`` must carry uids that are a permutation of ``0..N-1``.
    An in-memory output is checked whole and returned for inspection.
    """
    if isinstance(output, PdmStore):
        _verify_store(output, reference)
        verify_pdm_balance(output)
        return None
    verify_sorted(output)
    verify_permutation(output, reference)
    return output
