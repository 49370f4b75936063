// Package registry grows the one-store serve path into a multi-tenant
// server: a directory of secure XML stores opened lazily by tenant ID,
// bounded by an LRU of open stores, all sharing one global buffer-pool byte
// budget and one decode-cache byte budget. Admission of a new tenant evicts
// the coldest idle store; stores serving in-flight queries are pinned by
// reference counts and, when evicted anyway, drain — they keep answering
// until the last handle closes, then flush and close so WAL checkpoints
// land. Budgets are divided fairly: every open (or draining) store gets an
// equal slice of the byte budgets, recomputed on every membership change,
// so the sum of per-store pool capacities never exceeds the global budget.
package registry

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"dolxml/internal/obs"
	"dolxml/securexml"
)

// Options configures a Registry.
type Options struct {
	// Root is the directory holding one store directory per tenant ID.
	Root string
	// MaxOpen bounds the number of concurrently open stores (default 16).
	// Stores pinned by in-flight queries cannot be evicted, so the bound
	// can be exceeded transiently while every open store is busy.
	MaxOpen int
	// PoolBytes is the global buffer-pool budget shared by all open
	// stores (default 64 MiB). Each open store's pool capacity is its
	// equal slice, floored at MinPoolPages frames.
	PoolBytes int64
	// DecodeCacheBytes is the global decoded-block cache budget shared
	// the same way (default 16 MiB).
	DecodeCacheBytes int64
	// MinPoolPages floors every store's pool share (default 8 frames) so
	// a crowded registry cannot starve a store below a working set.
	MinPoolPages int
	// Store is the template for per-tenant StoreOptions. Path, PageSize,
	// PoolPages and DecodeCacheBytes are overridden per tenant.
	Store securexml.StoreOptions
	// SLOLatencyByTenant overrides Store.SLOLatency for specific tenants:
	// each tenant's store opens with its own latency objective, and its
	// slo_* gauges (burn rate included) export under that tenant's metrics
	// prefix. Tenants not in the map use Store.SLOLatency (default 250ms
	// when serving through a registry, so burn-rate gauges are meaningful
	// out of the box; set Store.SLOLatency negative to disable).
	SLOLatencyByTenant map[string]time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxOpen < 1 {
		o.MaxOpen = 16
	}
	if o.PoolBytes <= 0 {
		o.PoolBytes = 64 << 20
	}
	if o.DecodeCacheBytes <= 0 {
		o.DecodeCacheBytes = 16 << 20
	}
	if o.MinPoolPages < 1 {
		o.MinPoolPages = 8
	}
	if o.Store.SLOLatency == 0 {
		o.Store.SLOLatency = 250 * time.Millisecond
	}
	return o
}

// tenantIDRe admits exactly the IDs TenantPath maps to store directories:
// lowercase alphanumerics, underscore and dash, starting with an
// alphanumeric, at most 64 runes. No dots, no separators — traversal is
// unrepresentable.
var tenantIDRe = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`)

// ErrNoTenant marks an Acquire of a tenant that does not exist: an ID
// outside the grammar, or no store directory under the root. ErrClosed marks
// an Acquire after Close. Test with errors.Is; any other Acquire error is a
// store that would not open or an eviction that would not finish.
var (
	ErrNoTenant = errors.New("registry: no such tenant")
	ErrClosed   = errors.New("registry: closed")
)

// TenantPath maps a tenant ID to its store directory under root, rejecting
// any ID that could escape it. The ID grammar contains no path separators
// or dots, and the result is additionally verified to resolve to a direct
// child of root.
func TenantPath(root, id string) (string, error) {
	if !tenantIDRe.MatchString(id) {
		return "", fmt.Errorf("%w: invalid tenant id %q", ErrNoTenant, id)
	}
	p := filepath.Join(root, id)
	// Defense in depth: the joined path must be exactly root/id again.
	if rel, err := filepath.Rel(root, p); err != nil || rel != id {
		return "", fmt.Errorf("%w: tenant id %q escapes root", ErrNoTenant, id)
	}
	return p, nil
}

// MetricsSlug converts a tenant ID into a metrics-name-safe prefix
// fragment: dashes become underscores under the obs lowercase_snake
// grammar.
func MetricsSlug(id string) string {
	return "tenant_" + strings.ReplaceAll(id, "-", "_")
}

// tenant is one registry entry. refs counts outstanding Handles; elem is
// the tenant's LRU slot while open (nil once draining).
type tenant struct {
	id    string
	store *securexml.Store
	refs  int
	elem  *list.Element
	// draining marks a tenant evicted (or registry-closed) while handles
	// were outstanding: it is out of the LRU and invisible to eviction,
	// keeps serving its open handles, and closes when the last one goes.
	draining bool
	// done closes once the store is closed; closeErr holds the result.
	done     chan struct{}
	closeErr error
}

// Registry is the multi-tenant store directory. It is safe for concurrent
// use.
type Registry struct {
	opts Options
	reg  *obs.Registry

	mu      sync.Mutex
	tenants map[string]*tenant // open and draining tenants
	lru     *list.List         // open tenants only; front = most recent
	closed  bool

	acquires  obs.Counter // handle acquisitions
	opens     obs.Counter // physical store opens
	evictions obs.Counter // tenants pushed out by LRU admission
	drains    obs.Counter // evictions deferred behind open handles
	revives   obs.Counter // draining tenants re-acquired before closing
	overages  obs.Counter // admissions past MaxOpen (every store busy)
	openNs    *obs.Histogram
}

// New creates a registry over root. The root directory must exist; tenant
// stores are opened lazily on first Acquire.
func New(opts Options) (*Registry, error) {
	r := &Registry{
		opts:    opts.withDefaults(),
		reg:     obs.NewRegistry(),
		tenants: make(map[string]*tenant),
		lru:     list.New(),
	}
	for _, c := range []struct {
		name, help string
		ctr        *obs.Counter
	}{
		{"acquires_total", "Tenant handle acquisitions.", &r.acquires},
		{"opens_total", "Tenant stores opened from disk.", &r.opens},
		{"evictions_total", "Tenants evicted from the open set.", &r.evictions},
		{"drains_total", "Evicted tenants fully drained and closed.", &r.drains},
		{"revives_total", "Draining tenants revived by a new acquire.", &r.revives},
		{"overage_admissions_total", "Opens admitted past the pool byte budget.", &r.overages},
	} {
		if err := r.reg.RegisterCounter(c.name, c.ctr); err != nil {
			return nil, err
		}
		r.reg.SetHelp(c.name, c.help)
	}
	r.openNs = r.reg.Histogram("open_ns")
	r.reg.SetHelp("open_ns", "Time to open a tenant store from disk (decoding the store.json images, WAL header check or recovery, one verified scan of the structure blocks yielding path summary and tag runs) in nanoseconds.")
	for _, g := range []struct {
		name, help string
		fn         obs.Gauge
	}{
		{"tenants_open", "Tenant stores currently open.", func() int64 { r.mu.Lock(); defer r.mu.Unlock(); return int64(r.lru.Len()) }},
		{"tenants_draining", "Evicted tenants still draining handles.", func() int64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return int64(len(r.tenants) - r.lru.Len())
		}},
		{"pool_budget_bytes", "Configured aggregate buffer-pool byte budget.", func() int64 { return r.opts.PoolBytes }},
		{"pool_bytes_in_use", "Buffer-pool bytes in use across open tenants.", r.PoolBytesInUse},
	} {
		if err := r.reg.RegisterGauge(g.name, g.fn); err != nil {
			return nil, err
		}
		r.reg.SetHelp(g.name, g.help)
	}
	return r, nil
}

// Handle pins one tenant's store for use. Close releases the pin; the
// store stays valid until then even if the tenant is evicted meanwhile.
type Handle struct {
	r    *Registry
	t    *tenant
	once sync.Once
}

// TenantID returns the tenant the handle is for.
func (h *Handle) TenantID() string { return h.t.id }

// Store returns the pinned store.
func (h *Handle) Store() *securexml.Store { return h.t.store }

// Close releases the handle. The last handle of a draining tenant closes
// its store. Close is idempotent.
func (h *Handle) Close() error {
	var err error
	h.once.Do(func() { err = h.r.release(h.t) })
	return err
}

// Acquire opens (or re-uses) the store for tenant id and returns a pinned
// handle. While any handle is open the tenant cannot be closed out from
// under it: eviction defers to a drain that completes at the last Close.
func (r *Registry) Acquire(id string) (*Handle, error) {
	dir, err := TenantPath(r.opts.Root, id)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	r.acquires.Inc()
	if t, ok := r.tenants[id]; ok {
		if t.draining {
			// Evicted but still open behind handles — hot again; cancel
			// the drain instead of double-opening the same directory.
			t.draining = false
			t.elem = r.lru.PushFront(t)
			r.revives.Inc()
			r.rebalanceLocked()
		} else {
			r.lru.MoveToFront(t.elem)
		}
		t.refs++
		return &Handle{r: r, t: t}, nil
	}

	// Admission: push the coldest idle store out first. Busy stores are
	// skipped; if every open store is busy the registry runs over MaxOpen
	// rather than reopening a directory twice or blocking the query.
	for r.lru.Len() >= r.opts.MaxOpen {
		victim := r.coldestIdleLocked()
		if victim == nil {
			r.overages.Inc()
			break
		}
		r.evictions.Inc()
		if err := r.removeLocked(victim); err != nil {
			return nil, fmt.Errorf("registry: evicting %s: %w", victim.id, err)
		}
	}

	opts := r.opts.Store
	if d, ok := r.opts.SLOLatencyByTenant[id]; ok {
		opts.SLOLatency = d
	}
	share := r.shareLocked(len(r.tenants) + 1)
	opts.DecodeCacheBytes = share.decodeBytes
	// PoolPages needs the page size, which lives in the store's meta; open
	// with a floor and re-budget right after.
	opts.PoolPages = r.opts.MinPoolPages
	start := time.Now()
	st, err := securexml.Open(dir, opts)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %w", ErrNoTenant, err)
	}
	if err != nil {
		return nil, err
	}
	r.openNs.Observe(time.Since(start).Nanoseconds())
	r.opens.Inc()
	t := &tenant{id: id, store: st, refs: 1, done: make(chan struct{})}
	t.elem = r.lru.PushFront(t)
	r.tenants[id] = t
	r.rebalanceLocked()
	return &Handle{r: r, t: t}, nil
}

// acquireOpen pins tenant id only if it is already open (used by metrics
// export, which must not fault tenants in or resurrect draining ones).
func (r *Registry) acquireOpen(id string) *Handle {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	if !ok || t.draining || r.closed {
		return nil
	}
	t.refs++
	return &Handle{r: r, t: t}
}

// coldestIdleLocked returns the least recently used open tenant with no
// outstanding handles, or nil when every open tenant is busy.
func (r *Registry) coldestIdleLocked() *tenant {
	for e := r.lru.Back(); e != nil; e = e.Prev() {
		if t := e.Value.(*tenant); t.refs == 0 {
			return t
		}
	}
	return nil
}

// removeLocked takes tenant t out of the open set: idle tenants flush and
// close immediately, busy ones switch to draining. Caller holds r.mu.
func (r *Registry) removeLocked(t *tenant) error {
	r.lru.Remove(t.elem)
	t.elem = nil
	if t.refs > 0 {
		t.draining = true
		r.drains.Inc()
		r.rebalanceLocked()
		return nil
	}
	err := r.closeLocked(t)
	r.rebalanceLocked()
	return err
}

// closeLocked closes t's store and forgets the tenant. Caller holds r.mu;
// t must have no handles.
func (r *Registry) closeLocked(t *tenant) error {
	t.closeErr = t.store.Close()
	delete(r.tenants, t.id)
	close(t.done)
	return t.closeErr
}

// release drops one handle reference; the last reference of a draining
// tenant closes its store.
func (r *Registry) release(t *tenant) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t.refs <= 0 {
		return fmt.Errorf("registry: release of unreferenced tenant %s", t.id)
	}
	t.refs--
	if t.draining && t.refs == 0 {
		err := r.closeLocked(t)
		r.rebalanceLocked()
		return err
	}
	// Repay overage admissions: when every store was busy, Acquire admits
	// past MaxOpen rather than blocking, and once all tenants are resident
	// no admission ever runs again — so the shrink back to MaxOpen has to
	// happen here, as pins release.
	for r.lru.Len() > r.opts.MaxOpen {
		victim := r.coldestIdleLocked()
		if victim == nil {
			break
		}
		r.evictions.Inc()
		if err := r.removeLocked(victim); err != nil {
			return err
		}
	}
	return nil
}

// Evict closes tenant id's store (deferring behind open handles). It is a
// no-op for tenants that are not open.
func (r *Registry) Evict(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	if !ok || t.draining {
		return nil
	}
	r.evictions.Inc()
	return r.removeLocked(t)
}

type share struct {
	poolFrames  func(pageSize int) int
	decodeBytes int64
}

// shareLocked computes the fair per-tenant budget slice with n members.
// Caller holds r.mu.
func (r *Registry) shareLocked(n int) share {
	if n < 1 {
		n = 1
	}
	poolBytes := r.opts.PoolBytes / int64(n)
	decode := r.opts.DecodeCacheBytes / int64(n)
	if decode < 1 {
		decode = -1 // disable rather than "keep default"
	}
	min := r.opts.MinPoolPages
	return share{
		poolFrames: func(pageSize int) int {
			f := int(poolBytes / int64(pageSize))
			if f < min {
				f = min
			}
			return f
		},
		decodeBytes: decode,
	}
}

// rebalanceLocked re-divides the global budgets across every tenant still
// holding pool frames — open and draining alike, since draining stores
// keep their frames until the last handle closes. Caller holds r.mu.
func (r *Registry) rebalanceLocked() {
	n := len(r.tenants)
	if n == 0 {
		return
	}
	sh := r.shareLocked(n)
	for _, t := range r.tenants {
		// Shrink errors mean a dirty-page write-back failed; the store
		// will surface that on its own write path, so budgeting continues.
		_ = t.store.SetPoolCapacity(sh.poolFrames(t.store.PageSize()))
		t.store.SetDecodeCacheBudget(sh.decodeBytes)
	}
}

// PoolBytesInUse sums the buffer-pool bytes held by every open and
// draining store — the quantity the global budget bounds.
func (r *Registry) PoolBytesInUse() int64 {
	r.mu.Lock()
	stores := make([]*securexml.Store, 0, len(r.tenants))
	for _, t := range r.tenants {
		stores = append(stores, t.store)
	}
	r.mu.Unlock()
	var sum int64
	for _, st := range stores {
		sum += st.PoolBufferedBytes()
	}
	return sum
}

// TenantInfo describes one registry entry at a point in time.
type TenantInfo struct {
	ID        string
	Refs      int
	Draining  bool
	PoolBytes int64
	PageSize  int
}

// Tenants lists the open and draining tenants, sorted by ID.
func (r *Registry) Tenants() []TenantInfo {
	r.mu.Lock()
	infos := make([]TenantInfo, 0, len(r.tenants))
	for _, t := range r.tenants {
		infos = append(infos, TenantInfo{
			ID:        t.id,
			Refs:      t.refs,
			Draining:  t.draining,
			PoolBytes: t.store.PoolBufferedBytes(),
			PageSize:  t.store.PageSize(),
		})
	}
	r.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// OpenCount returns the number of open (non-draining) tenants.
func (r *Registry) OpenCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}

// MetricsSnapshot returns the registry-level metrics.
func (r *Registry) MetricsSnapshot() obs.Snapshot { return r.reg.Snapshot() }

// WriteMetricsJSON writes the registry-level metrics as JSON.
func (r *Registry) WriteMetricsJSON(w io.Writer) error { return r.reg.WriteJSON(w) }

// WriteMetricsPrometheus writes the registry-level metrics in Prometheus
// text format under the dolxml_registry prefix, then each open tenant's
// store metrics under dolxml_tenant_<id> — the per-tenant split of
// /metrics. Tenants are pinned while their section writes, so eviction
// cannot close a store mid-export.
func (r *Registry) WriteMetricsPrometheus(w io.Writer) error {
	if err := r.reg.WritePrometheus(w, "dolxml_registry"); err != nil {
		return err
	}
	for _, info := range r.Tenants() {
		h := r.acquireOpen(info.ID)
		if h == nil {
			continue
		}
		err := h.Store().WriteMetricsPrometheusAs(w, "dolxml_"+MetricsSlug(info.ID))
		h.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// Close evicts every tenant and shuts the registry down. Tenants with
// outstanding handles drain; Close waits for them until ctx expires, then
// returns an error naming the stragglers (their stores still close when
// their last handle does).
func (r *Registry) Close(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	var waits []*tenant
	var firstErr error
	for _, t := range r.tenants {
		if t.elem != nil {
			r.lru.Remove(t.elem)
			t.elem = nil
		}
		if t.refs > 0 {
			t.draining = true
			r.drains.Inc()
			waits = append(waits, t)
			continue
		}
		if err := r.closeLocked(t); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	r.mu.Unlock()
	for _, t := range waits {
		select {
		case <-t.done:
			if t.closeErr != nil && firstErr == nil {
				firstErr = t.closeErr
			}
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = fmt.Errorf("registry: tenant %s still busy at close deadline", t.id)
			}
		}
	}
	return firstErr
}
