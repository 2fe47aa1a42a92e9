"""Online per-pass invariant audits.

A checkpoint is only worth resuming from if the pass it records
actually produced columnsort-legal data. :class:`PassAuditor` runs on
rank 0 at every pass boundary (before the checkpoint manifest is
written) and verifies, against the structural claims of
:mod:`repro.columnsort.checks`:

* **count/permutation structure** — every column (or portion / PDM
  stripe set) holds exactly the records it must: a pass that dropped or
  duplicated a segment fails the size check immediately;
* **sorted-run structure** — a sampled column of a deal pass's output
  is a bounded interleaving of sorted chunks, so its number of maximal
  sorted runs is bounded (``s·g`` per portion: ``s`` for whole columns,
  ``s·P`` at ``g = P`` — see the paper's §3 run-structure argument);
* **output order** — sampled ranges of the PDM store, spanning block
  boundaries, must be globally nondecreasing.

A violation raises :class:`~repro.errors.AuditError` on rank 0, which
surfaces as a structured SPMD failure *before* ``save_pass`` runs — a
corrupted pass can never become a resume point.

Audit reads go through the normal store read path, so they are metered
I/O and get block-checksum verification (and degraded-mode
reconstruction) for free. Audits are opt-in (``OocJob.audit``) because
the extra reads perturb the byte-exact pass accounting the integration
tests assert.
"""

from __future__ import annotations

import random

from repro.columnsort.checks import count_sorted_runs
from repro.errors import AuditError


class PassAuditor:
    """Samples and verifies one pass's output store.

    Parameters
    ----------
    samples:
        Columns (or portions, or PDM ranges) to spot-check per pass, on
        top of the exhaustive structural size check.
    seed:
        Sampling PRNG seed (audits are deterministic per run).
    """

    def __init__(self, samples: int = 2, seed: int = 0) -> None:
        self.samples = max(1, samples)
        self._rng = random.Random(seed)
        self.audited_passes = 0
        self.audited_units = 0

    # ------------------------------------------------------------------

    def audit_pass(self, algorithm: str, store, index: int, total: int) -> None:
        """Verify the store pass ``index`` just wrote; raises
        :class:`AuditError` on any violation."""
        from repro.disks.matrixfile import ColumnStore, PdmStore  # disks imports durability

        ctx = f"{algorithm} pass {index}/{total}, store {store.name!r}"
        if isinstance(store, PdmStore):
            self._audit_pdm(store, ctx)
        elif isinstance(store, ColumnStore):
            self._audit_columns(store, ctx)
        else:
            raise AuditError(
                f"{ctx}: no audit for a {type(store).__name__} — an "
                "unauditable store must not count as a clean pass"
            )
        self.audited_passes += 1

    # ------------------------------------------------------------------

    def _sample(self, n: int) -> list[int]:
        return self._rng.sample(range(n), min(self.samples, n))

    def _audit_columns(self, store, ctx: str) -> None:
        want = store.fmt.nbytes(store.portion)
        for j in range(store.s):
            for m in range(store.g):
                have = store._disk_for(j, store.rank_of(j, m)).size(store._file(j, m))
                if have != want:
                    raise AuditError(
                        f"{ctx}: column {j} part {m} holds {have} bytes, "
                        f"expected {want} (r/g={store.portion} records) — "
                        "records were lost or duplicated"
                    )
        # A deal lands one sorted band per source column in a whole
        # column (s runs); a portion of a striped one takes at most P
        # runs in each of its group's s/G rounds.
        bound = store.s * store.g
        for j in self._sample(store.s):
            m = self._rng.randrange(store.g)
            part = store.read_portion(store.rank_of(j, m), j)
            runs = count_sorted_runs(part)
            if runs > bound:
                raise AuditError(
                    f"{ctx}: column {j} part {m} has {runs} sorted runs, "
                    f"legal bound is s·g={bound} — the deal structure is "
                    "violated"
                )
            self.audited_units += 1

    def _audit_pdm(self, store, ctx: str) -> None:
        total = sum(
            disk.size(store._file(d))
            for d, disk in enumerate(store.disks[: store.cfg.virtual_disks])
        )
        want = store.fmt.nbytes(store.n)
        if total != want:
            raise AuditError(
                f"{ctx}: output holds {total} bytes across its stripes, "
                f"expected {want} (N={store.n} records)"
            )
        span = min(store.n, 2 * store.block)
        for _ in range(self.samples):
            start = self._rng.randrange(max(1, store.n - span + 1))
            ranged = store.read_global(start, span)
            if count_sorted_runs(ranged) > 1:
                raise AuditError(
                    f"{ctx}: output range [{start}, {start + span}) is not "
                    "nondecreasing — final order is corrupt"
                )
            self.audited_units += 1
