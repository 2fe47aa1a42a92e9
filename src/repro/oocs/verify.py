"""Output verification.

The paper kept the original input files around to verify output files
(footnote 7). We verify more strongly, using the ``uid`` field stamped
by the workload generators:

1. **order** — output keys are nondecreasing in PDM global order;
2. **permutation** — the output's uid multiset equals the input's (no
   record lost, duplicated, or fabricated);
3. **integrity** — each record's key still matches the key its uid had
   in the input (no record body was corrupted in flight).
"""

from __future__ import annotations

import numpy as np

from repro.disks.matrixfile import PdmStore
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


def verify_output(
    output: PdmStore | np.ndarray, reference: np.ndarray
) -> np.ndarray:
    """Full verification of a sort run: read the output (if given as a
    store), check order, permutation, integrity, and — for stores — the
    PDM balance property. Returns the output records for inspection."""
    if isinstance(output, PdmStore):
        records = output.read_all()
        verify_pdm_balance(output)
    else:
        records = output
    verify_sorted(records)
    verify_permutation(records, reference)
    return records
