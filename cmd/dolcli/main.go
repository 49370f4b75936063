// Command dolcli builds and queries secure XML stores from the shell.
//
// Usage:
//
//	dolcli build -xml doc.xml -policy rules.acl -store DIR
//	dolcli query -store DIR -user NAME -mode read -xpath '//item[name]'
//	dolcli query -store DIR -admin -xpath '//item'
//	dolcli query -store DIR -user NAME -xpath '//item' -limit 10 -timeout 5s
//	dolcli query -store DIR -user NAME -xpath '//item' -stats [-no-pathsummary]
//	dolcli query -store DIR -user NAME -xpath '//item' -analyze
//	dolcli explain -store DIR -user NAME -xpath '//item' [-analyze] [-json]
//	dolcli grant  -store DIR -subject NAME -mode read -xpath '//x' [-node-only] [-durability sync|async]
//	dolcli revoke -store DIR -subject NAME -mode read -xpath '//x' [-node-only] [-durability sync|async]
//	dolcli export -store DIR -user NAME -mode read [-o view.xml]
//	dolcli stats -store DIR
//	dolcli serve -root TENANTS_DIR -addr 127.0.0.1:9464 [-max-open 16] [-pool-budget 67108864] [-tokens tokens.json] [-rate 50] [-slow 100ms] [-snapshot-log 1s] [-access-log access.jsonl]
//	dolcli serve -store DIR [the same flags]
//
// serve -store DIR is serve -root over DIR's parent directory, pinned to the
// one tenant named by DIR's base name (which must be a valid tenant id):
// the same server, and requests need not say tenant=.
//
// The policy file is line-oriented:
//
//	user  alice
//	group doctors
//	member doctors alice          # member <group> <subject>
//	mode  read                    # (read and write are pre-registered)
//	grant doctors read /hospital  # grant <subject> <mode> <xpath>
//	revoke doctors read //billing
//	grant-local ...               # non-cascading variants
//	revoke-local ...
//	default permit                # open world
//
// Blank lines and lines starting with # are ignored.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dolxml/securexml"
	"dolxml/securexml/registry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = build(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "explain":
		err = explain(os.Args[2:])
	case "grant":
		err = setAccess(os.Args[2:], true)
	case "revoke":
		err = setAccess(os.Args[2:], false)
	case "export":
		err = export(os.Args[2:])
	case "stats":
		err = stats(os.Args[2:])
	case "serve":
		err = serve(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dolcli:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dolcli {build|query|explain|grant|revoke|export|stats|serve} [flags]")
	os.Exit(2)
}

func build(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	xmlPath := fs.String("xml", "", "XML document to secure")
	policyPath := fs.String("policy", "", "policy rules file")
	storeDir := fs.String("store", "", "output store directory")
	fs.Parse(args)
	if *xmlPath == "" || *storeDir == "" {
		return fmt.Errorf("build requires -xml and -store")
	}
	f, err := os.Open(*xmlPath)
	if err != nil {
		return err
	}
	defer f.Close()
	b := securexml.NewBuilder().LoadXML(f)
	if *policyPath != "" {
		pf, err := os.Open(*policyPath)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := applyPolicy(b, pf.Name(), pf); err != nil {
			return err
		}
	}
	s, err := b.Seal(securexml.StoreOptions{})
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.Save(*storeDir); err != nil {
		return err
	}
	st, err := s.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stored %d nodes on %d pages; %d transitions, %d codebook entries\n",
		st.Nodes, st.StructurePages, st.Transitions, st.CodebookEntries)
	return nil
}

// applyPolicy parses the line-oriented policy format into builder calls.
func applyPolicy(b *securexml.Builder, name string, r *os.File) error {
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		bad := func() error {
			return fmt.Errorf("%s:%d: malformed directive %q", name, lineNo, line)
		}
		switch fields[0] {
		case "user":
			if len(fields) != 2 {
				return bad()
			}
			b.AddUser(fields[1])
		case "group":
			if len(fields) != 2 {
				return bad()
			}
			b.AddGroup(fields[1])
		case "member":
			if len(fields) != 3 {
				return bad()
			}
			b.AddMember(fields[1], fields[2])
		case "mode":
			if len(fields) != 2 {
				return bad()
			}
			b.AddMode(fields[1])
		case "grant", "revoke", "grant-local", "revoke-local":
			if len(fields) != 4 {
				return bad()
			}
			subject, mode, xpath := fields[1], fields[2], fields[3]
			switch fields[0] {
			case "grant":
				b.Grant(subject, mode, xpath)
			case "revoke":
				b.Revoke(subject, mode, xpath)
			case "grant-local":
				b.GrantLocal(subject, mode, xpath)
			case "revoke-local":
				b.RevokeLocal(subject, mode, xpath)
			}
		case "default":
			if len(fields) != 2 || fields[1] != "permit" {
				return bad()
			}
			b.PermitByDefault()
		default:
			return bad()
		}
	}
	return sc.Err()
}

// queryFlags are the flags query and explain share, bound straight to the
// QueryOptions fields they set.
type queryFlags struct {
	store, user, mode, xpath string
	analyze                  bool
	opts                     securexml.QueryOptions
}

func (q *queryFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&q.store, "store", "", "store directory")
	fs.StringVar(&q.user, "user", "", "querying user")
	fs.StringVar(&q.mode, "mode", "read", "action mode")
	fs.StringVar(&q.xpath, "xpath", "", "twig query")
	fs.BoolVar(&q.opts.Unrestricted, "admin", false, "bypass access control")
	fs.BoolVar(&q.opts.Pruned, "pruned", false, "use the pruned-subtree (Gabillon-Bruno) semantics")
	fs.IntVar(&q.opts.Limit, "limit", 0, "stop after this many answers (0 = all)")
	fs.BoolVar(&q.opts.DisablePathSummary, "no-pathsummary", false, "run the paper's engine alone: no empty-query proof from the path summary, no index plan")
	fs.BoolVar(&q.analyze, "analyze", false, "execute the query once, traced, and report per-operator attribution (pages, skips, probes, time)")
}

// open validates the parsed flags and opens the store.
func (q *queryFlags) open(cmd string) (*securexml.Store, error) {
	if q.store == "" || q.xpath == "" {
		return nil, fmt.Errorf("%s requires -store and -xpath", cmd)
	}
	if !q.opts.Unrestricted && q.user == "" {
		return nil, fmt.Errorf("%s requires -user (or -admin)", cmd)
	}
	if q.analyze {
		q.opts.Analyze = &securexml.QueryAnalysis{}
	}
	return securexml.Open(q.store, securexml.StoreOptions{})
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	var q queryFlags
	q.register(fs)
	timeout := fs.Duration("timeout", 0, "abort the query after this duration (0 = none)")
	showStats := fs.Bool("stats", false, "print page-read and cache statistics for the query")
	fs.Parse(args)
	s, err := q.open("query")
	if err != nil {
		return err
	}
	defer s.Close()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	before := s.MetricsSnapshot()
	matches, err := s.QueryCtx(ctx, q.user, q.mode, q.xpath, q.opts)
	if err != nil {
		return err
	}
	for _, m := range matches {
		if m.Value != "" {
			fmt.Printf("node %d <%s> %q\n", m.Node, m.Tag, m.Value)
		} else {
			fmt.Printf("node %d <%s>\n", m.Node, m.Tag)
		}
	}
	fmt.Fprintf(os.Stderr, "%d answers\n", len(matches))
	if *showStats {
		// All numbers come from the store's one metrics registry — the same
		// counters MetricsSnapshot, dolcli serve and dolbench report.
		after := s.MetricsSnapshot()
		d := func(name string) int64 { return after.Get(name) - before.Get(name) }
		gets, hits := d("pool_gets"), d("pool_hits")
		ratio := 0.0
		if gets > 0 {
			ratio = float64(hits) / float64(gets)
		}
		decHits, decMisses := d("decode_cache_hits"), d("decode_cache_misses")
		decRatio := 0.0
		if decHits+decMisses > 0 {
			decRatio = float64(decHits) / float64(decHits+decMisses)
		}
		fmt.Fprintf(os.Stderr, "pages read:       %d (pool hit ratio %.2f)\n", d("pool_misses"), ratio)
		fmt.Fprintf(os.Stderr, "pages skipped:    %d access\n", d("query_pages_skipped_access"))
		fmt.Fprintf(os.Stderr, "candidates cut:   %d\n", d("query_candidates_rejected"))
		fmt.Fprintf(os.Stderr, "path summary:     %d empty short-circuits, %d classes pre-resolved\n",
			d("query_path_empty_total"), d("query_path_classes_preresolved"))
		fmt.Fprintf(os.Stderr, "decode cache:     %d hits, %d misses (ratio %.2f)\n", decHits, decMisses, decRatio)
	}
	if q.analyze {
		return q.opts.Analyze.WriteText(os.Stderr)
	}
	return nil
}

// explain prints a query's compiled plan without executing it; with
// -analyze it executes once and annotates the plan with per-operator
// attribution.
func explain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	var q queryFlags
	q.register(fs)
	asJSON := fs.Bool("json", false, "emit JSON instead of the text report")
	fs.Parse(args)
	s, err := q.open("explain")
	if err != nil {
		return err
	}
	defer s.Close()
	ctx := context.Background()
	var text, js func(io.Writer) error
	if q.analyze {
		_, err = s.QueryCtx(ctx, q.user, q.mode, q.xpath, q.opts)
		text, js = q.opts.Analyze.WriteText, q.opts.Analyze.WriteJSON
	} else {
		var plan *securexml.Plan
		plan, err = s.Explain(ctx, q.user, q.mode, q.xpath, q.opts)
		text, js = plan.WriteText, plan.WriteJSON
	}
	if err != nil {
		return err
	}
	if *asJSON {
		return js(os.Stdout)
	}
	return text(os.Stdout)
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	storeDir := fs.String("store", "", "serve this one store directory: -root over its parent, pinned to its base name as the tenant")
	root := fs.String("root", "", "tenant root directory (one store per tenant id)")
	addr := fs.String("addr", "127.0.0.1:9464", "listen address")
	slow := fs.Duration("slow", 0, "slow-query threshold: queries at least this slow dump their trace to stderr (0 = off)")
	snapLog := fs.Duration("snapshot-log", 0, "slow-pin threshold: snapshot pins held at least this long are reported to stderr — long pins keep retired page versions alive (0 = off)")
	maxOpen := fs.Int("max-open", 16, "max concurrently open stores (LRU beyond; always 1 with -store)")
	poolBudget := fs.Int64("pool-budget", 64<<20, "global buffer-pool byte budget shared across open stores")
	cacheBudget := fs.Int64("cache-budget", 16<<20, "global decode-cache byte budget shared across open stores")
	tokensFile := fs.String("tokens", "", "JSON file mapping bearer tokens to {\"tenant\",\"subject\",\"admin\"} (omit for open trusted mode)")
	rate := fs.Float64("rate", 0, "sustained per-principal queries/sec (token bucket; 0 = unlimited)")
	burst := fs.Int("burst", 0, "rate-limit burst depth (default ~rate)")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown: in-flight drain deadline after SIGTERM/SIGINT")
	accessLogPath := fs.String("access-log", "", "write one JSON line per /query and /explain request to this file (\"-\" = stderr)")
	fs.Parse(args)
	if (*storeDir == "") == (*root == "") {
		return fmt.Errorf("serve requires exactly one of -store or -root")
	}
	sopts := registry.ServerOptions{
		RatePerSec:   *rate,
		Burst:        *burst,
		DrainTimeout: *drain,
	}
	if *storeDir != "" {
		dir, err := filepath.Abs(*storeDir)
		if err != nil {
			return err
		}
		*root, *maxOpen, sopts.Tenant = filepath.Dir(dir), 1, filepath.Base(dir)
	}
	if *accessLogPath == "-" {
		sopts.AccessLog = os.Stderr
	} else if *accessLogPath != "" {
		f, err := os.OpenFile(*accessLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		sopts.AccessLog = f
	}
	if *tokensFile != "" {
		raw, err := os.ReadFile(*tokensFile)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &sopts.Tokens); err != nil {
			return fmt.Errorf("parsing %s: %w", *tokensFile, err)
		}
	}

	// SIGTERM/SIGINT begins a graceful shutdown: stop accepting, drain
	// in-flight requests bounded by -drain, then close stores so their WAL
	// checkpoints land.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg, err := registry.New(registry.Options{
		Root:             *root,
		MaxOpen:          *maxOpen,
		PoolBytes:        *poolBudget,
		DecodeCacheBytes: *cacheBudget,
		Store: securexml.StoreOptions{
			SlowQueryThreshold: *slow,
			SlowPinThreshold:   *snapLog,
		},
	})
	if err != nil {
		return err
	}
	if sopts.Tenant != "" {
		// A store that cannot be served is a start-up error, not the first
		// request's: open it now (with MaxOpen 1 it stays open).
		h, err := reg.Acquire(sopts.Tenant)
		if err != nil {
			return err
		}
		h.Close()
	}
	srv := registry.NewServer(reg, sopts)

	outer := http.NewServeMux()
	outer.Handle("/", srv)
	outer.HandleFunc("/debug/pprof/", pprof.Index)
	outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
	outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Shutdown(context.Background())
		return err
	}
	httpSrv := &http.Server{Handler: outer}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "dolcli: serving on http://%s (/debug/vars, /metrics, /query, /explain, /debug/queries, /tenants, /healthz, /debug/pprof/)\n", ln.Addr())

	select {
	case err := <-errc:
		srv.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Fprintf(os.Stderr, "dolcli: shutting down (draining up to %s)\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "dolcli: http drain: %v\n", err)
	}
	return srv.Shutdown(sctx)
}

// setAccess applies an accessibility update to a persisted store: the
// §3.4 in-place updates, exposed on the command line. Targets come from an
// unrestricted XPath evaluation; by default the whole subtree of each
// match is updated.
func setAccess(args []string, allowed bool) error {
	fs := flag.NewFlagSet("grant/revoke", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	subject := fs.String("subject", "", "subject to update")
	mode := fs.String("mode", "read", "action mode")
	xpath := fs.String("xpath", "", "target selector")
	nodeOnly := fs.Bool("node-only", false, "update only the matched nodes, not their subtrees")
	durability := fs.String("durability", "sync", "commit durability: sync or async (async multi-target updates share their flushes)")
	fs.Parse(args)
	if *storeDir == "" || *subject == "" || *xpath == "" {
		return fmt.Errorf("grant/revoke require -store, -subject and -xpath")
	}
	d, err := parseDurability(*durability)
	if err != nil {
		return err
	}
	s, err := securexml.Open(*storeDir, securexml.StoreOptions{Durability: d})
	if err != nil {
		return err
	}
	defer s.Close()
	targets, err := s.QueryUnrestricted(*xpath)
	if err != nil {
		return err
	}
	for _, m := range targets {
		if err := s.SetAccess(*subject, *mode, m.Node, allowed, !*nodeOnly); err != nil {
			return err
		}
	}
	if err := s.Save(*storeDir); err != nil {
		return err
	}
	verb := "revoked"
	if allowed {
		verb = "granted"
	}
	fmt.Fprintf(os.Stderr, "%s %s/%s on %d targets\n", verb, *subject, *mode, len(targets))
	return nil
}

// parseDurability maps the -durability flag onto securexml's modes. Save
// (and Close) act as durability barriers, so async commits are always on
// disk before the command exits.
func parseDurability(s string) (securexml.Durability, error) {
	switch s {
	case "sync":
		return securexml.DurabilitySync, nil
	case "async":
		return securexml.DurabilityAsync, nil
	default:
		return 0, fmt.Errorf("unknown durability %q (want sync or async)", s)
	}
}

// export writes the user's authorized (pruned-subtree) view as XML.
func export(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	user := fs.String("user", "", "user whose view to export")
	mode := fs.String("mode", "read", "action mode")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)
	if *storeDir == "" || *user == "" {
		return fmt.Errorf("export requires -store and -user")
	}
	s, err := securexml.Open(*storeDir, securexml.StoreOptions{})
	if err != nil {
		return err
	}
	defer s.Close()
	var w *os.File = os.Stdout
	if *out != "" {
		w, err = os.Create(*out)
		if err != nil {
			return err
		}
		defer w.Close()
	}
	return s.ExportVisible(*user, *mode, w)
}

func stats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	storeDir := fs.String("store", "", "store directory")
	fs.Parse(args)
	if *storeDir == "" {
		return fmt.Errorf("stats requires -store")
	}
	s, err := securexml.Open(*storeDir, securexml.StoreOptions{})
	if err != nil {
		return err
	}
	defer s.Close()
	st, err := s.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("nodes:            %d\n", st.Nodes)
	fmt.Printf("structure pages:  %d\n", st.StructurePages)
	fmt.Printf("transitions:      %d (1 per %.1f nodes)\n", st.Transitions, float64(st.Nodes)/float64(st.Transitions))
	fmt.Printf("codebook entries: %d (%d bytes)\n", st.CodebookEntries, st.CodebookBytes)
	fmt.Printf("directory bytes:  %d\n", st.DirectoryBytes)
	fmt.Printf("modes:            %s\n", strings.Join(s.Modes(), ", "))
	fmt.Printf("subjects:         %d\n", len(s.Subjects()))
	return nil
}
