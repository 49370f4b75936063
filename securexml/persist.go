package securexml

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"dolxml/internal/acl"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/storage"
)

// metaFile sits beside the page file and carries everything the pages do
// not: the codebook (held in memory at runtime, §3.2), the subject
// directory, the mode table and the NoK reopen metadata.
const metaFile = "store.json"

// pageFile is the default page file name inside a store directory.
const pageFile = "pages.db"

// walSuffix names the write-ahead log beside a page file.
const walSuffix = ".wal"

// sidecarFormat is what every writer emits: format 2 packs nok's value refs
// into one blob where format 1 had an object per text value. readMeta takes
// both, so a format-1 store upgrades on its next commit or Save.
const sidecarFormat = 2

type persistedStore struct {
	Format   int                   `json:"format"`
	PageSize int                   `json:"page_size"`
	Modes    []string              `json:"modes"`
	Dir      acl.DirectorySnapshot `json:"directory"`
	Nok      nok.Meta              `json:"nok"`
	Codebook string                `json:"codebook"` // base64 of Codebook.MarshalBinary
}

// metaSink receives the metadata blob of every committed WAL batch — both
// live commits and batches redone during recovery — and rewrites the
// store.json sidecar atomically. Until a persisted directory is known
// (a store sealed but never saved) the blobs are dropped: there is no
// sidecar on disk whose staleness could matter.
type metaSink struct {
	mu  sync.Mutex
	dir string
}

func (m *metaSink) set(dir string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dir = dir
}

func (m *metaSink) deliver(meta []byte) error {
	m.mu.Lock()
	dir := m.dir
	m.mu.Unlock()
	if dir == "" {
		return nil
	}
	return writeFileAtomic(filepath.Join(dir, metaFile), meta)
}

// writeFileAtomic replaces path with data via a same-directory temp file
// and rename, fsyncing the file before the rename and the directory after,
// so a crash leaves either the old sidecar or the new one — never a torn
// or missing file.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op once renamed away
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// The sidecar image is assembled from cached fragments: the expensive
// pieces (directory, tag table, the packed value index) change rarely, while the page-ID list changes on EVERY accessibility
// update now that rewrites shadow-page into fresh frames. marshalMeta
// therefore re-encodes only structure_pages (small: one int per page) per
// commit and splices it between the cached fragments; re-encoding the whole
// sidecar put milliseconds of JSON work inside the sealing critical section
// and capped group-commit throughput.
//
// metaHeadState fingerprints the NoK shape the cached nok fragments were
// built from, as a backstop for the explicit invalidations: structural
// updates call invalidateMetaHead, and node/tag/value counts cannot change
// without one.
type metaHeadState struct {
	numNodes  int
	numTags   int
	numValues int
}

func (s *Store) metaHeadState() metaHeadState {
	st := s.ss.Store()
	hs := metaHeadState{
		numNodes: st.NumNodes(),
		numTags:  st.NumTags(),
	}
	if vs := st.Values(); vs != nil {
		hs.numValues = vs.NumValues()
	}
	return hs
}

// invalidateMetaHead drops every cached sidecar fragment. Updates that
// mutate the directory or restructure NoK state (insert/delete/move,
// vacuum, subject changes) call it under the write lock before sealing;
// pure accessibility updates need not — their only sidecar change is the
// always-fresh page-ID list.
func (s *Store) invalidateMetaHead() {
	s.metaPre = nil
	s.metaNokHead = nil
	s.metaVals = nil
}

// marshalMeta serializes the store's current metadata sidecar image — the
// blob Save writes to store.json and update commits journal in the WAL.
// The output is byte-assembled from the cached fragments in
// persistedStore's field order; readMeta decodes it like any other JSON.
// Caller holds s.mu.
func (s *Store) marshalMeta() ([]byte, error) {
	st := s.ss.Store()
	if s.metaPre == nil {
		pre, err := json.Marshal(struct {
			Format   int                   `json:"format"`
			PageSize int                   `json:"page_size"`
			Modes    []string              `json:"modes"`
			Dir      acl.DirectorySnapshot `json:"directory"`
		}{sidecarFormat, s.opts.PageSize, s.modes, s.dir.Snapshot()})
		if err != nil {
			return nil, err
		}
		s.metaPre = pre
	}
	hs := s.metaHeadState()
	if s.metaNokHead == nil || hs != s.metaFP {
		m := st.Meta()
		head, err := json.Marshal(struct {
			NumNodes int      `json:"num_nodes"`
			Tags     []string `json:"tags"`
		}{m.NumNodes, m.Tags})
		if err != nil {
			return nil, err
		}
		s.metaNokHead = head
		s.metaVals = nil
		if len(m.ValueRefs) > 0 {
			vals, err := json.Marshal(m.ValueRefs)
			if err != nil {
				return nil, err
			}
			s.metaVals = vals
		}
		s.metaFP = hs
	}
	pages, err := json.Marshal(st.StructurePages())
	if err != nil {
		return nil, err
	}
	// The path summary is re-encoded per commit like the page-ID list: ACL
	// rewrites can degrade class code modes and structural updates change
	// the class sets, and the summary is small (one node per distinct
	// label path plus per-block bitsets).
	var psum []byte
	if pm := st.PathSummaryMeta(); pm != nil {
		if psum, err = json.Marshal(pm); err != nil {
			return nil, err
		}
	}
	cb, err := s.ss.Codebook().MarshalBinary()
	if err != nil {
		return nil, err
	}
	b64 := base64.StdEncoding.EncodeToString(cb)
	var buf bytes.Buffer
	buf.Grow(len(s.metaPre) + len(s.metaNokHead) + len(pages) + len(s.metaVals) + len(b64) + 64)
	buf.Write(s.metaPre[:len(s.metaPre)-1]) // strip the closing '}'
	buf.WriteString(`,"nok":`)
	buf.Write(s.metaNokHead[:len(s.metaNokHead)-1])
	buf.WriteString(`,"structure_pages":`)
	buf.Write(pages)
	if psum != nil {
		buf.WriteString(`,"path_summary":`)
		buf.Write(psum)
	}
	if s.metaVals != nil {
		buf.WriteString(`,"value_refs":`)
		buf.Write(s.metaVals)
	}
	buf.WriteString(`},"codebook":"`)
	buf.WriteString(b64)
	buf.WriteString(`"}`)
	s.sidecarBytes.Store(int64(buf.Len()))
	return buf.Bytes(), nil
}

// Save persists the store into the directory: the (already file-backed or
// copied) page file plus a JSON metadata sidecar. A store sealed without
// StoreOptions.Path is written out page by page. The sidecar lands via an
// atomic temp-file-and-rename, and both it and the pages are fsynced, so
// an interrupted Save never leaves a half-written store behind.
// Save also acts as a durability barrier: the pager Sync (or the page
// copy) below drains any sealed-but-unflushed async commits first.
func (s *Store) Save(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failedNow() {
		return errStoreFailed
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	pagePath := filepath.Join(dir, pageFile)
	if s.opts.Path == "" || s.opts.Path != pagePath {
		// Copy pages into the target file.
		dst, err := storage.OpenFilePager(pagePath, s.opts.PageSize)
		if err != nil {
			return err
		}
		defer dst.Close()
		if dst.NumPages() != 0 {
			return fmt.Errorf("securexml: %s already contains %d pages", pagePath, dst.NumPages())
		}
		src := s.pool.Pager()
		buf := make([]byte, s.opts.PageSize)
		for p := 0; p < src.NumPages(); p++ {
			if err := src.ReadPage(storage.PageID(p), buf); err != nil {
				return err
			}
			id, err := dst.Allocate()
			if err != nil {
				return err
			}
			if err := dst.WritePage(id, buf); err != nil {
				return err
			}
		}
		if err := dst.Sync(); err != nil {
			return err
		}
	} else if err := s.pool.Pager().Sync(); err != nil {
		return err
	}
	meta, err := s.marshalMeta()
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, metaFile), meta); err != nil {
		return err
	}
	if s.opts.Path == pagePath {
		// The live page file sits in the saved directory: from now on
		// every committed update keeps the sidecar current through the
		// WAL's metadata sink.
		s.sink.set(dir)
	}
	return nil
}

// readMeta loads and validates the store.json sidecar, and reports its size.
func readMeta(dir string) (persistedStore, int, error) {
	var ps persistedStore
	b, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return ps, 0, err
	}
	if err := json.Unmarshal(b, &ps); err != nil {
		return ps, 0, fmt.Errorf("securexml: corrupt metadata: %w", err)
	}
	if ps.Format != 1 && ps.Format != sidecarFormat {
		return ps, 0, fmt.Errorf("securexml: unsupported format %d", ps.Format)
	}
	return ps, len(b), nil
}

// Open loads a store previously written by Save, first running WAL crash
// recovery: update batches whose commit record reached the log but whose
// pages (or sidecar) did not all reach the store are redone, and torn or
// uncommitted batches are discarded, restoring the pre-update state. The
// path summary, deny bitmaps, decode cache and tag indexes are derived
// structures rebuilt here from the recovered pages, so no stale cached
// view of a rolled-forward or rolled-back page can survive a reopen.
func Open(dir string, opts StoreOptions) (_ *Store, err error) {
	opts.defaults()
	ps, metaLen, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	opts.PageSize = ps.PageSize
	opts.Path = filepath.Join(dir, pageFile)

	var pager storage.Pager
	fp, err := storage.OpenFilePager(opts.Path, opts.PageSize)
	if err != nil {
		return nil, err
	}
	pager = fp
	if opts.WrapPager != nil {
		pager = opts.WrapPager(pager)
	}
	sink := &metaSink{dir: dir}
	var info storage.RecoveryInfo
	var wal *storage.WALPager
	if !opts.DisableWAL {
		osf, err := storage.OpenOSFile(opts.Path + walSuffix)
		if err != nil {
			pager.Close()
			return nil, err
		}
		var log storage.File = osf
		if opts.WrapWALFile != nil {
			log = opts.WrapWALFile(log)
		}
		wp, ri, err := storage.OpenWALPager(pager, log, sink.deliver)
		if err != nil {
			log.Close()
			pager.Close()
			return nil, fmt.Errorf("securexml: wal recovery: %w", err)
		}
		pager, info, wal = wp, ri, wp
		if info.MetaApplied {
			// Recovery redid a batch whose sidecar had not landed;
			// the sink just rewrote store.json — reload it.
			if ps, metaLen, err = readMeta(dir); err != nil {
				pager.Close()
				return nil, err
			}
			if ps.PageSize != opts.PageSize {
				pager.Close()
				return nil, fmt.Errorf("securexml: recovered metadata page size %d, had %d", ps.PageSize, opts.PageSize)
			}
		}
	}
	pool := storage.NewBufferPool(pager, opts.PoolPages)
	// Nothing has been written: a store that is rejected from here on only
	// has its page file and its log to close.
	defer func() {
		if err != nil {
			pager.Close()
		}
	}()
	// The refs are held against the recovered page file: a value on a page
	// past its end would fail the first query that reads it.
	if err := ps.Nok.CheckValueRefs(ps.PageSize, pager.NumPages()); err != nil {
		return nil, fmt.Errorf("securexml: corrupt metadata: %w", err)
	}
	// One scan of the blocks checks the store (everything CheckConsistency
	// checks), rebuilds the path summary and yields the tag index's entries.
	x := &extents{numNodes: ps.Nok.NumNodes}
	st, err := nok.OpenScan(pool, ps.Nok, x.add)
	if err != nil {
		return nil, err
	}
	applyDecodeCacheBudget(st, opts.DecodeCacheBytes)
	cbBytes, err := base64.StdEncoding.DecodeString(ps.Codebook)
	if err != nil {
		return nil, fmt.Errorf("securexml: corrupt codebook: %w", err)
	}
	cb := dol.NewCodebook(0)
	if err := cb.UnmarshalBinary(cbBytes); err != nil {
		return nil, fmt.Errorf("securexml: corrupt codebook: %w", err)
	}
	d, err := acl.DirectoryFromSnapshot(ps.Dir)
	if err != nil {
		return nil, fmt.Errorf("securexml: corrupt directory: %w", err)
	}
	if want := d.Len() * len(ps.Modes); cb.NumSubjects() != want {
		return nil, fmt.Errorf("securexml: codebook covers %d columns, directory needs %d", cb.NumSubjects(), want)
	}
	modeIdx := make(map[string]int, len(ps.Modes))
	for i, m := range ps.Modes {
		modeIdx[m] = i
	}
	s := &Store{
		opts:       opts,
		pool:       pool,
		ss:         dol.OpenSecureStore(st, cb),
		dir:        d,
		modes:      ps.Modes,
		modeIdx:    modeIdx,
		sink:       sink,
		recovery:   info,
		wp:         wal,
		maskHits:   obs.NewCounter(),
		maskMisses: obs.NewCounter(),
	}
	s.sidecarBytes.Store(int64(metaLen))
	s.initSnapshot()
	if err := s.initObs(); err != nil {
		return nil, err
	}
	sn := s.cur.Load()
	if err := sn.idx.ensure(sn.st, x); err != nil {
		return nil, err
	}
	return s, nil
}
