package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/btree"
	"dolxml/internal/dol"
	"dolxml/internal/join"
	"dolxml/internal/nok"
	"dolxml/internal/query"
	"dolxml/internal/storage"
	"dolxml/internal/xmltree"
	"dolxml/securexml"
)

// replica is the tenant rebuilt one rung below the facade: the same
// document and the accessibility matrix read back through
// Store.Accessible, sealed with dol.BuildSecureStore on a memory pager and
// indexed the way the facade indexes a snapshot. It must answer the golden
// set identically; the evaluator and primitive rungs run on it.
type replica struct {
	pool     *storage.BufferPool
	ss       *dol.SecureStore
	index    *btree.Tree
	ev       *query.Evaluator
	views    []*dol.SubjectView // per tenant subject; nil for the administrator
	numModes int
	subjects map[string]acl.SubjectID
}

// indexes are a tag and a value index over one store, in a pool of their
// own, as securexml builds them per snapshot.
type indexes struct {
	pool   *storage.BufferPool
	tags   *btree.Tree
	values *btree.ValueTree
}

// buildIndexes indexes the replica the way securexml indexes a snapshot
// (one ForEachExtent pass inserting every node into both B-trees), so that
// the evaluator rung runs on what the facade's evaluator runs on. It is not
// timed: the engine's own rebuild is what btree.index_build_ms estimates.
func buildIndexes(st *nok.Store) (*indexes, error) {
	ix := &indexes{pool: storage.NewBufferPool(storage.NewMemPager(pageSize), 1<<30/pageSize)}
	var err error
	if ix.tags, err = btree.New(ix.pool); err != nil {
		return nil, err
	}
	if ix.values, err = btree.NewValueTree(ix.pool); err != nil {
		return nil, err
	}
	vs := st.Values()
	var inner error
	err = st.ForEachExtent(func(n, end xmltree.NodeID, level int, tag int32) {
		if inner != nil {
			return
		}
		p := btree.Posting{Node: n, End: end, Level: uint16(level)}
		if inner = ix.tags.Insert(tag, p); inner != nil || vs == nil {
			return
		}
		var v string
		if v, inner = vs.Value(n); inner == nil && v != "" {
			inner = ix.values.Insert(tag, v, p)
		}
	})
	if err == nil {
		err = inner
	}
	return ix, err
}

// buildReplica reads t's matrix back through the memory-backed store the
// tenant was saved from (so it must run before t.release) and seals the
// replica. frames and decodeBytes mirror the workload's budgets; 0 keeps
// the defaults.
func buildReplica(t *tenant, frames int, decodeBytes int64) (*replica, error) {
	names := t.mem.Subjects()
	modes := t.mem.Modes()
	r := &replica{numModes: len(modes), subjects: map[string]acl.SubjectID{}}
	m := acl.NewMatrix(t.doc.Len(), len(names)*len(modes))
	for si, name := range names {
		r.subjects[name] = acl.SubjectID(si)
		for mi, md := range modes {
			for n := 0; n < t.doc.Len(); n++ {
				ok, err := t.mem.Accessible(name, md, securexml.NodeID(n))
				if err != nil {
					return nil, err
				}
				if ok {
					m.Set(xmltree.NodeID(n), acl.SubjectID(si*len(modes)+mi), true)
				}
			}
		}
	}
	if frames == 0 {
		frames = 4096
	}
	r.pool = storage.NewBufferPool(storage.NewMemPager(pageSize), frames)
	var err error
	if r.ss, err = dol.BuildSecureStore(r.pool, t.doc, m, nok.BuildOptions{FillPercent: 90, StoreValues: true}); err != nil {
		return nil, err
	}
	if decodeBytes > 0 {
		r.ss.Store().SetDecodeCacheBudget(decodeBytes)
	}
	ix, err := buildIndexes(r.ss.Store())
	if err != nil {
		return nil, err
	}
	r.index = ix.tags
	r.ev = query.NewEvaluator(r.ss.Store(), ix.tags).WithValueIndex(ix.values)
	for _, sub := range t.subjects {
		if sub.admin {
			r.views = append(r.views, nil)
			continue
		}
		r.views = append(r.views, r.ss.View(r.effective(sub)))
	}
	return r, nil
}

// effective is the subject's own read bit plus its groups'.
func (r *replica) effective(sub subject) *bitset.Bitset {
	eff := bitset.New(len(r.subjects) * r.numModes)
	for _, name := range append([]string{sub.user}, sub.groups...) {
		eff.Set(int(r.subjects[name]) * r.numModes)
	}
	return eff
}

func (r *replica) options(tg *target) query.Options {
	o := query.Options{View: r.views[tg.subject], Limit: tg.opts.Limit}
	if tg.pruned && o.View != nil {
		o.Semantics = query.SemanticsPrunedSubtree
	}
	return o
}

// sameNodes compares an evaluator result with a golden answer.
func sameNodes(got []xmltree.NodeID, want []securexml.NodeID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if securexml.NodeID(got[i]) != want[i] {
			return false
		}
	}
	return true
}

// primitives times the calls the evaluator is made of, each as one span
// over many operations on the replica: navigation steps, access checks,
// posting-list fetches, the secure structural joins of Q4–Q6, and pool
// hits. It returns per-operation figures by metric name.
func (r *replica) primitives(tr *tracer, sub subject) (map[string]float64, error) {
	out := map[string]float64{}
	st := r.ss.Store()
	timed := func(name string, fn func() (int, error)) (float64, int, error) {
		id := tr.begin(name)
		start := time.Now()
		n, err := fn()
		took := time.Since(start)
		tr.end(id, n)
		return float64(took.Nanoseconds()), n, err
	}

	// nok: a full depth-first walk by FirstChild / FollowingSibling.
	ns, n, err := timed("nok.nav_steps", func() (int, error) {
		steps := 0
		var walk func(xmltree.NodeID) error
		walk = func(p xmltree.NodeID) error {
			c, err := st.FirstChild(p)
			for ; err == nil && c != xmltree.InvalidNode; c, err = st.FollowingSibling(c) {
				steps += 2
				if err = walk(c); err != nil {
					break
				}
			}
			return err
		}
		return steps, walk(0)
	})
	if err != nil {
		return nil, err
	}
	out["nok.nav_step_ns"] = ratio(ns, float64(n))

	view := r.ss.View(r.effective(sub))
	ns, n, err = timed("dol.access_checks", func() (int, error) {
		for n := 0; n < st.NumNodes(); n++ {
			if _, err := view.AccessibleCtx(bg, xmltree.NodeID(n)); err != nil {
				return n, err
			}
		}
		return st.NumNodes(), nil
	})
	if err != nil {
		return nil, err
	}
	out["dol.access_check_ns"] = ratio(ns, float64(n))

	// btree and join: the posting lists of Q4–Q6 and their ε-STD joins.
	items := map[string][]join.Item{}
	var postingsUs, joinUs []float64
	for _, pair := range [][2]string{{"parlist", "parlist"}, {"listitem", "keyword"}, {"item", "emph"}} {
		for _, tag := range pair {
			code, ok := st.LookupTag(tag)
			if !ok {
				return nil, fmt.Errorf("replica has no %s", tag)
			}
			var ps []btree.Posting
			ns, _, err := timed("btree.postings", func() (int, error) {
				var err error
				ps, err = r.index.Postings(code)
				return len(ps), err
			})
			if err != nil {
				return nil, err
			}
			postingsUs = append(postingsUs, ns/1e3)
			its := make([]join.Item, len(ps))
			for i, p := range ps {
				its[i] = join.Item{Node: p.Node, End: p.End, Level: int(p.Level)}
			}
			items[tag] = its
		}
		ns, _, err := timed("join.secure_std", func() (int, error) {
			pairs, err := join.SecureSTD(bg, r.ss, r.effective(sub), items[pair[0]], items[pair[1]])
			return len(pairs), err
		})
		if err != nil {
			return nil, err
		}
		joinUs = append(joinUs, ns/1e3)
	}
	out["btree.postings_us"] = mean(postingsUs)
	out["join.secure_std_us"] = mean(joinUs)

	// storage: Get + Unpin on a page that is resident.
	page := st.PageInfoAt(0).Page
	const gets = 200000
	ns, _, err = timed("storage.pool_get_hits", func() (int, error) {
		for i := 0; i < gets; i++ {
			if _, err := r.pool.Get(page); err != nil {
				return i, err
			}
			if err := r.pool.Unpin(page, false); err != nil {
				return i, err
			}
		}
		return gets, nil
	})
	if err != nil {
		return nil, err
	}
	out["storage.pool_get_hit_ns"] = ns / gets
	return out, nil
}

// securePlainRatio is the paper's Figure 7 ratio on the replica: for each
// of Q1–Q6, the median secure evaluation time over the five subjects'
// views divided by the median unsecured one, averaged over the shapes.
func (r *replica) securePlainRatio(t *tenant) (float64, error) {
	eval := func(tg *target, opts query.Options) (float64, error) {
		pt, err := query.Parse(tg.xpath)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = r.ev.EvaluateCtx(bg, pt, opts)
		return us(time.Since(start)), err
	}
	var ratios []float64
	for si := 0; si < 6; si++ {
		var secure, plain []float64
		for ui := range t.subjects {
			tg := t.targets[si][ui][0]
			for rep := 0; rep < 3; rep++ {
				v, err := eval(tg, r.options(tg))
				if err != nil {
					return 0, err
				}
				if tg.opts.Unrestricted {
					plain = append(plain, v)
				} else {
					secure = append(secure, v)
				}
			}
		}
		ratios = append(ratios, ratio(median(secure), median(plain)))
	}
	return mean(ratios), nil
}

// dolUpdates applies n single-node toggles for writerGroup straight to the
// replica's secure store and returns the mean call time and the mean
// number of transitions each added (Proposition 1 bounds it by 2).
func (r *replica) dolUpdates(tr *tracer, t *tenant, n int) (meanUs, addedPerUpdate float64, err error) {
	bit := acl.SubjectID(int(r.subjects[writerGroup]) * r.numModes)
	before, err := r.ss.TransitionCount()
	if err != nil {
		return 0, 0, err
	}
	var took []float64
	for i := 0; i < n; i++ {
		node := xmltree.NodeID(t.keywords[i*7919%len(t.keywords)])
		id := tr.begin("dol.set_node_access")
		start := time.Now()
		err := r.ss.SetNodeAccess(node, bit, true)
		took = append(took, us(time.Since(start)))
		tr.end(id, 0)
		if err != nil {
			return 0, 0, err
		}
	}
	after, err := r.ss.TransitionCount()
	if err != nil {
		return 0, 0, err
	}
	return mean(took), float64(after-before) / float64(n), nil
}

// openLadder times what a cold open is made of, on a stopped tenant
// directory: securexml.Open and Close, then one rung lower nok.Open,
// CheckConsistency, the extent scan and the path-summary rebuild. Each figure is the median of reps runs, in milliseconds.
func openLadder(tr *tracer, dir string, reps int) (map[string]float64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "store.json"))
	if err != nil {
		return nil, err
	}
	var meta struct {
		Nok nok.Meta `json:"nok"`
	}
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, err
	}
	samples := map[string][]float64{}
	timed := func(name string, fn func() error) error {
		id := tr.begin(name)
		start := time.Now()
		err := fn()
		samples[name+"_ms"] = append(samples[name+"_ms"], ms(time.Since(start)))
		tr.end(id, 0)
		return err
	}
	for rep := 0; rep < reps; rep++ {
		var st *securexml.Store
		if err := timed("securexml.open", func() (err error) {
			st, err = securexml.Open(dir, securexml.StoreOptions{})
			return err
		}); err != nil {
			return nil, err
		}
		if err := timed("securexml.close", st.Close); err != nil {
			return nil, err
		}

		fp, err := storage.OpenFilePager(filepath.Join(dir, "pages.db"), pageSize)
		if err != nil {
			return nil, err
		}
		pool := storage.NewBufferPool(fp, 4096)
		var ns *nok.Store
		steps := []struct {
			name string
			fn   func() error
		}{
			{"nok.open", func() (err error) { ns, err = nok.Open(pool, meta.Nok); return err }},
			{"nok.check_consistency", func() error { return ns.CheckConsistency() }},
			{"nok.extent_scan", func() error {
				return ns.ForEachExtent(func(n, end xmltree.NodeID, level int, tag int32) {})
			}},
			{"pathsum.rebuild", func() error { return ns.RebuildPathSummary() }},
		}
		for _, s := range steps {
			if err := timed(s.name, s.fn); err != nil {
				fp.Close()
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
		}
		if err := fp.Close(); err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	for name, vals := range samples {
		out[name] = median(vals)
	}
	return out, nil
}

// distinctPages counts the pool pins and the distinct pages among them in
// one query's full event trace, and its structural-join probes.
func distinctPages(evs []securexml.TraceEvent) (pins, distinct, probes int) {
	seen := map[int64]bool{}
	for _, e := range evs {
		switch e.Kind {
		case "page_pin":
			pins++
			seen[e.Page] = true
		case "join_probe":
			probes++
		}
	}
	return pins, len(seen), probes
}
