package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dolxml/internal/xmltree"
	"dolxml/securexml"
)

const markerFragment = "<" + markerTag + "><bench_probe>x</bench_probe></" + markerTag + ">"

type updateKind int

const (
	toggle updateKind = iota
	insertMarker
	deleteMarker
)

// update is one scheduled write and, once applied, its outcome.
type update struct {
	kind  updateKind
	due   time.Duration // offset from the writer's start
	begin time.Duration // when it actually started
	end   time.Duration // when the call returned
	probe time.Duration // structural only: the writer's own probe query
	done  bool
	err   error
}

// writer applies updates to one tenant through the registry handle's
// store: SetAccess toggles on //keyword nodes for writerGroup, and marker
// fragments inserted as the last child of /site/closed_auctions and
// deleted again. Neither touches what table1_mix reads — no query subject
// is in writerGroup, the marker's tags occur in no shape, and appending at
// the end of the document renumbers nothing — so every read stays
// verifiable against the golden answers.
type writer struct {
	t     *tenant
	st    *securexml.Store
	s     *served
	rng   *rand.Rand
	state map[securexml.NodeID]bool // last acknowledged toggle states
	node  securexml.NodeID          // where the marker lands
	// probe is the writer's own query; its answer flips with the marker.
	probeURL string
	probeSum [2][sha256.Size]byte // marker absent, present
	present  bool
	// liveMax is the most store versions seen live at once, sampled from
	// the store's own gauge after each write.
	liveMax int64
}

func newWriter(seed int64, t *tenant, st *securexml.Store, s *served) *writer {
	w := &writer{t: t, st: st, s: s, rng: rand.New(rand.NewSource(seed ^ 0x3717e)),
		state: map[securexml.NodeID]bool{}, node: securexml.NodeID(t.doc.End(xmltree.NodeID(t.lastClosed)) + 1)}
	tg := markerProbe(t)
	w.probeURL = tg.url
	w.probeSum[0] = sha256.Sum256(encodeMatches([]securexml.Match{}))
	w.probeSum[1] = sha256.Sum256(encodeMatches([]securexml.Match{{Node: w.node, Tag: markerTag}}))
	return w
}

// markerProbe is the administrator's query for the marker fragment.
func markerProbe(t *tenant) *target {
	return t.newTarget(shape{xpath: "/site/closed_auctions/" + markerTag}, subject{admin: true}, false)
}

// write applies u's store call alone and records its outcome in u.err.
func (w *writer) write(u *update) {
	switch u.kind {
	case toggle:
		n := w.t.keywords[w.rng.Intn(len(w.t.keywords))]
		allowed := !w.state[n]
		if u.err = w.st.SetAccess(writerGroup, mode, n, allowed, false); u.err == nil {
			w.state[n] = allowed
		}
	case insertMarker:
		if u.err = w.st.InsertXML(w.t.closedAuctions, w.t.lastClosed, markerFragment); u.err == nil {
			w.present = true
		}
	case deleteMarker:
		if u.err = w.st.Delete(w.node); u.err == nil {
			w.present = false
		}
	}
}

// checkProbe holds the probe's answer against the marker's state.
func (w *writer) checkProbe(u *update, sum [sha256.Size]byte, err error) {
	want := w.probeSum[0]
	if w.present {
		want = w.probeSum[1]
	}
	if err != nil {
		u.err = fmt.Errorf("probe: %w", err)
	} else if sum != want {
		u.err = fmt.Errorf("probe after structural commit: marker present=%v not reflected", w.present)
	}
}

// apply is write followed, after a structural commit, by the writer's own
// probe query: the first read, which pays the index rebuild.
func (w *writer) apply(u *update) {
	if w.write(u); u.err != nil || u.kind == toggle {
		return
	}
	start := time.Now()
	sum, err := w.s.get(w.probeURL)
	u.probe = time.Since(start)
	w.checkProbe(u, sum, err)
}

// schedule lays out the open-loop plan: toggles at rate per second over
// total, and three marker inserts at 1/4, 1/2 and 3/4 of the measured
// window [from, total), each deleted again hold later.
func schedule(rate float64, from, total, hold time.Duration) []*update {
	var plan []*update
	for i := 0; ; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if due >= total {
			break
		}
		plan = append(plan, &update{kind: toggle, due: due})
	}
	for k := 1; k <= 3; k++ {
		at := from + (total-from)*time.Duration(k)/4
		plan = append(plan, &update{kind: insertMarker, due: at}, &update{kind: deleteMarker, due: at + hold})
	}
	sort.SliceStable(plan, func(i, j int) bool { return plan[i].due < plan[j].due })
	return plan
}

// run executes the plan open-loop: each update waits for its due instant,
// never for the previous one's reply beyond that, and is timed from when
// it was due. It stops at deadline, leaving later updates unapplied — but
// never leaves the marker in: a pending delete is still run.
func (w *writer) run(plan []*update, start time.Time, deadline time.Duration) {
	for _, u := range plan {
		if wait := time.Until(start.Add(u.due)); wait > 0 {
			time.Sleep(wait)
		}
		if time.Since(start) >= deadline && !(u.kind == deleteMarker && w.present) {
			continue
		}
		u.begin = time.Since(start)
		w.apply(u)
		u.end = time.Since(start)
		u.done = true
		if v := w.st.MetricsSnapshot().Get("snapshot_versions_live"); v > w.liveMax {
			w.liveMax = v
		}
	}
}
