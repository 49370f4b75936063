package securexml

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"

	"dolxml/internal/acl"
	"dolxml/internal/dol"
	"dolxml/internal/nok"
	"dolxml/internal/obs"
	"dolxml/internal/storage"
	"dolxml/internal/wire"
)

// metaFile sits beside the page file and carries everything the pages do
// not: the codebook (held in memory at runtime, §3.2), the subject
// directory, the mode table and the NoK reopen metadata.
const metaFile = "store.json"

// pageFile is the default page file name inside a store directory.
const pageFile = "pages.db"

// walSuffix names the write-ahead log beside a page file.
const walSuffix = ".wal"

// store.json is sidecar format 4: a JSON envelope,
// {"format":4,"page_size":N,"nok":"<base64>","store":"<base64>"}, around
// two binary images: nok.Meta's (AppendHead, then AppendTail) and the
// store's (appendStoreHead: modes, directory, then the codebook, every row
// as runs). It is read only in exactly the bytes appendEnvelope writes;
// anything else, an older format included, is corrupt metadata.
//
// The envelope, in the pieces appendEnvelope writes and splitEnvelope
// recognises.
const (
	envelopeHead  = `{"format":4,"page_size":`
	envelopeNok   = `,"nok":"`
	envelopeStore = `","store":"`
	envelopeEnd   = `"}`
)

// persistedStore is store.json decoded.
type persistedStore struct {
	PageSize int
	Modes    []string
	Dir      acl.DirectorySnapshot
	Nok      nok.Meta
	Codebook []byte // Codebook.MarshalBinary
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
// pieces (directory, tag table, the packed value index) change rarely, while
// the page-ID list changes on EVERY accessibility update now that rewrites
// shadow-page into fresh frames. marshalMeta therefore encodes only the nok
// image's tail (path summary, structure pages) and the codebook per commit;
// re-encoding the whole sidecar put milliseconds of work inside the sealing
// critical section and capped group-commit throughput. The order of the
// images also keeps what a commit changes at their ends, so the WAL's meta
// delta record (the suffix after the prefix shared with the previous image)
// stays short.
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
// pure accessibility updates need not — their only sidecar change is in
// the always-fresh tail.
func (s *Store) invalidateMetaHead() {
	s.metaPre = nil
	s.metaNokB64 = nil
	s.metaNokRest = nil
}

// marshalMeta serializes the store's current metadata sidecar image — the
// blob Save writes to store.json and update commits journal in the WAL.
// The nok image's head is cached as the base64 of its longest prefix that
// ends on a base64 quantum (a multiple of three bytes) plus the bytes after
// it, so a commit encodes only those and the tail. Caller holds s.mu.
func (s *Store) marshalMeta() ([]byte, error) {
	st := s.ss.Store()
	if s.metaPre == nil {
		s.metaPre = appendStoreHead(nil, s.modes, s.dir.Snapshot())
	}
	hs := s.metaHeadState()
	if s.metaNokB64 == nil || hs != s.metaFP {
		m := st.Meta()
		head := m.AppendHead(nil)
		k := len(head) / 3 * 3
		s.metaNokB64 = base64.StdEncoding.AppendEncode([]byte{}, head[:k])
		s.metaNokRest = head[k:]
		s.metaFP = hs
	}
	tail := &nok.Meta{PathSummary: st.PathSummaryMeta(), StructurePages: st.StructurePages()}
	nokRest := tail.AppendTail(slices.Clone(s.metaNokRest))
	cb, err := s.ss.Codebook().MarshalBinary()
	if err != nil {
		return nil, err
	}
	storeImg := wire.AppendBytes(slices.Clone(s.metaPre), cb)
	out := appendEnvelope(nil, s.opts.PageSize, s.metaNokB64, nokRest, storeImg)
	s.sidecarBytes.Store(int64(len(out)))
	return out, nil
}

// appendEnvelope appends a format-4 store.json. nokB64 is the base64 of
// the nok image's first bytes, a multiple of three of them, and nokRest the
// rest of that image.
func appendEnvelope(b []byte, pageSize int, nokB64, nokRest, storeImg []byte) []byte {
	enc := base64.StdEncoding
	b = slices.Grow(b, len(envelopeHead)+len(nokB64)+enc.EncodedLen(len(nokRest))+enc.EncodedLen(len(storeImg))+48)
	b = append(b, envelopeHead...)
	b = strconv.AppendInt(b, int64(pageSize), 10)
	b = append(b, envelopeNok...)
	b = append(b, nokB64...)
	b = enc.AppendEncode(b, nokRest)
	b = append(b, envelopeStore...)
	b = enc.AppendEncode(b, storeImg)
	return append(b, envelopeEnd...)
}

// appendStoreHead appends the store image up to its codebook: the mode
// names, then the directory's image. The codebook ends the image,
// length-prefixed (wire.AppendBytes).
func appendStoreHead(b []byte, modes []string, dir acl.DirectorySnapshot) []byte {
	b = wire.AppendUvarint(b, uint64(len(modes)))
	for _, m := range modes {
		b = wire.AppendString(b, m)
	}
	return dir.AppendBinary(b)
}

// readStoreImage decodes a store image into ps, accepting nothing but what
// appendStoreHead and the codebook's wire.AppendBytes wrote.
func (ps *persistedStore) readStoreImage(img []byte) error {
	r := wire.NewReader(img)
	if n := r.Len(); n > 0 {
		ps.Modes = make([]string, n)
		for i := range ps.Modes {
			ps.Modes[i] = r.String()
		}
	}
	ps.Dir = acl.ReadDirectorySnapshot(r)
	ps.Codebook = r.Bytes()
	if err := r.Done(); err != nil {
		return fmt.Errorf("store image: %w", err)
	}
	return nil
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

// readMeta loads and decodes the store.json sidecar, and reports its size.
func readMeta(dir string) (persistedStore, int, error) {
	b, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return persistedStore{}, 0, err
	}
	ps, err := decodeSidecar(b)
	if err != nil {
		return ps, 0, err
	}
	return ps, len(b), nil
}

// decodeSidecar decodes a store.json: the envelope appendEnvelope writes,
// byte for byte, around two images that decode.
func decodeSidecar(b []byte) (persistedStore, error) {
	ps := persistedStore{}
	pageSize, nokB64, storeB64, ok := splitEnvelope(b)
	if !ok {
		return ps, errors.New("securexml: corrupt metadata: not a format-4 envelope")
	}
	// Strict: padding bits other than zero would decode to the same image.
	enc := base64.StdEncoding.Strict()
	img := make([]byte, enc.DecodedLen(len(nokB64))+enc.DecodedLen(len(storeB64)))
	n, nokErr := enc.Decode(img, nokB64)
	m, storeErr := enc.Decode(img[n:], storeB64)
	err := errors.Join(nokErr, storeErr)
	// The decoder skips line breaks, which a JSON string cannot hold raw.
	if err == nil && (enc.EncodedLen(n) != len(nokB64) || enc.EncodedLen(m) != len(storeB64)) {
		err = errors.New("line break in an image")
	}
	if err == nil {
		err = ps.Nok.UnmarshalBinary(img[:n])
	}
	if err == nil {
		err = ps.readStoreImage(img[n : n+m])
	}
	if err != nil {
		return ps, fmt.Errorf("securexml: corrupt metadata: %w", err)
	}
	ps.PageSize = pageSize
	return ps, nil
}

// splitEnvelope recognises the canonical format-4 envelope appendEnvelope
// writes, byte for byte, and returns its page size and the text of its two
// images' strings. ok is false for anything else, even an equivalent JSON
// text: whitespace, a page size over nine digits or with a leading zero.
func splitEnvelope(b []byte) (pageSize int, nokB64, storeB64 []byte, ok bool) {
	rest, ok := bytes.CutPrefix(b, []byte(envelopeHead))
	if !ok {
		return 0, nil, nil, false
	}
	digits := 0
	for digits < len(rest) && digits < 9 && '0' <= rest[digits] && rest[digits] <= '9' {
		pageSize = pageSize*10 + int(rest[digits]-'0')
		digits++
	}
	if digits == 0 || (rest[0] == '0' && digits > 1) {
		return 0, nil, nil, false
	}
	rest = rest[digits:]
	if nokB64, rest, ok = cutString(rest, envelopeNok); ok {
		storeB64, rest, ok = cutString(rest, envelopeStore)
	}
	if !ok || string(rest) != envelopeEnd {
		return 0, nil, nil, false
	}
	return pageSize, nokB64, storeB64, true
}

// cutString cuts prefix from b, then the bytes up to the next quote.
func cutString(b []byte, prefix string) (s, rest []byte, ok bool) {
	if b, ok = bytes.CutPrefix(b, []byte(prefix)); !ok {
		return nil, nil, false
	}
	i := bytes.IndexByte(b, '"')
	if i < 0 {
		return nil, nil, false
	}
	return b[:i], b[i:], true
}

// openPager opens the pages a store runs on: a page file at opts.Path, or
// memory when Path is empty, wrapped by opts.WrapPager. A file-backed store
// is write-ahead logged: its log at Path+walSuffix (wrapped by
// opts.WrapWALFile) is opened with crash recovery, which delivers committed
// metadata to sink and reports what it found. wal is nil without a log.
func openPager(opts StoreOptions, sink *metaSink) (pager storage.Pager, wal *storage.WALPager, info storage.RecoveryInfo, err error) {
	if opts.Path == "" {
		pager = storage.NewMemPager(opts.PageSize)
	} else if pager, err = storage.OpenFilePager(opts.Path, opts.PageSize); err != nil {
		return nil, nil, info, err
	}
	if opts.WrapPager != nil {
		pager = opts.WrapPager(pager)
	}
	if opts.Path == "" {
		return pager, nil, info, nil
	}
	osf, err := storage.OpenOSFile(opts.Path + walSuffix)
	if err != nil {
		pager.Close()
		return nil, nil, info, err
	}
	var log storage.File = osf
	if opts.WrapWALFile != nil {
		log = opts.WrapWALFile(log)
	}
	if wal, info, err = storage.OpenWALPager(pager, log, sink.deliver); err != nil {
		log.Close()
		pager.Close()
		return nil, nil, info, fmt.Errorf("securexml: wal recovery: %w", err)
	}
	return wal, wal, info, nil
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

	sink := &metaSink{dir: dir}
	pager, wal, info, err := openPager(opts, sink)
	if err != nil {
		return nil, err
	}
	if info.MetaApplied {
		// Recovery redid a batch whose sidecar had not landed; the sink just
		// rewrote store.json — reload it.
		if ps, metaLen, err = readMeta(dir); err != nil {
			pager.Close()
			return nil, err
		}
		if ps.PageSize != opts.PageSize {
			pager.Close()
			return nil, fmt.Errorf("securexml: recovered metadata page size %d, had %d", ps.PageSize, opts.PageSize)
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
	// One scan of the blocks checks the store (everything CheckConsistency
	// checks), rebuilds the path summary and yields the tag index's entries.
	// Before it, the value refs are held against the recovered page file: a
	// value on a page past its end would fail the first query that reads it.
	st, x, err := nok.OpenScan(pool, ps.Nok)
	if errors.Is(err, nok.ErrValueRef) {
		return nil, fmt.Errorf("securexml: corrupt metadata: %w", err)
	} else if err != nil {
		return nil, err
	}
	applyDecodeCacheBudget(st, opts.DecodeCacheBytes)
	cb := dol.NewCodebook(0)
	if err := cb.UnmarshalBinary(ps.Codebook); err != nil {
		return nil, fmt.Errorf("securexml: corrupt metadata: codebook: %w", err)
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
		opts:     opts,
		pool:     pool,
		ss:       dol.OpenSecureStore(st, cb),
		dir:      d,
		modes:    ps.Modes,
		modeIdx:  modeIdx,
		sink:     sink,
		recovery: info,
		wp:       wal,
		rec:      obs.NewRecorder(0, 0, 0),
	}
	s.sidecarBytes.Store(int64(metaLen))
	s.initSnapshot()
	sn := s.cur.Load()
	if err := sn.idx.ensure(sn.st, x); err != nil {
		return nil, err
	}
	return s, nil
}
