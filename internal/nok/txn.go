package nok

import (
	"dolxml/internal/storage"
)

// WithTxn runs fn as one atomic update batch when the store's pager is
// write-ahead-logged (a *storage.WALPager), and plainly otherwise.
//
// On the transactional path the sequence is: open (or join) a batch, run
// fn, flush every dirty buffer-pool frame into the batch, commit. The
// commit makes the whole region rewrite durable at once — a crash at any
// point leaves the pages either all-old or all-new, never a torn
// transition region. Batches nest: an update composed of several region
// rewrites (MoveSubtree = delete + insert) commits as a single batch at
// the outermost boundary, which may sit here or a layer above (securexml
// opens the batch before calling into dol).
//
// When fn fails, or the flush or commit fails, the batch is rolled back.
// The in-memory directory may then be ahead of disk; callers that observed
// buffered writes being discarded (WALPager.LastAbortDirty reports this)
// must discard the store and reopen it — recovery restores the pre-batch
// pages.
func (s *Store) WithTxn(fn func() error) error {
	tp, ok := s.pool.Pager().(*storage.WALPager)
	if !ok {
		return fn()
	}
	if err := tp.Begin(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		// Push whatever the failed fn buffered into the batch before
		// discarding it, so the pager's dirty-abort report is accurate:
		// a validation failure that wrote nothing stays clean, a failure
		// mid-rewrite is flagged as having discarded writes.
		_ = s.pool.FlushAll()
		_ = tp.Rollback()
		return err
	}
	if err := s.pool.FlushAll(); err != nil {
		_ = tp.Rollback()
		return err
	}
	return tp.Commit(nil)
}
