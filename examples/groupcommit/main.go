// Groupcommit: demonstrates the two durability modes on a file-backed
// store under a burst of accessibility toggles. The same burst — several
// goroutines flipping ACL bits on their own nodes — runs once per mode:
//
//   - sync: every SetAccess seals its WAL batch and flushes inline before
//     it returns; an updater that seals while another one flushes waits
//     for that flush and then flushes every batch sealed meanwhile, so
//     concurrent updaters share the three fsyncs of one flush;
//   - async: SetAccessAsync returns as soon as the update is applied and
//     sealed (already visible to queries); the returned Commit handle
//     reports durability, and AwaitDurable is the collective barrier.
//
// The printed updates/sec and fsyncs/update per mode show the group-commit
// bargain (a lone sync updater would pay 3.00 fsyncs/update), and the
// async run demonstrates the notification API: the burst fires a few
// hundred toggles, then waits on every handle before trusting the clock.
//
//	go run ./examples/groupcommit
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"dolxml/securexml"
)

const (
	updaters     = 4
	opsPerWorker = 40
)

func buildStore(dir string, d securexml.Durability) *securexml.Store {
	var doc strings.Builder
	doc.WriteString("<site>")
	for i := 0; i < updaters; i++ {
		fmt.Fprintf(&doc, "<region id=\"%d\"><item><name>item %d</name></item></region>", i, i)
	}
	doc.WriteString("</site>")
	s, err := securexml.NewBuilder().
		LoadXMLString(doc.String()).
		AddGroup("staff").
		AddUser("alice").
		AddMember("staff", "alice").
		Grant("staff", "read", "/site").
		Seal(securexml.StoreOptions{Path: dir + "/pages.db"})
	if err != nil {
		log.Fatal(err)
	}
	// Save attaches the WAL's metadata sink to the directory; from here on
	// every committed update keeps the on-disk sidecar current.
	if err := s.Save(dir); err != nil {
		log.Fatal(err)
	}
	// Reopen in the durability mode under test.
	if err := s.Close(); err != nil {
		log.Fatal(err)
	}
	s, err = securexml.Open(dir, securexml.StoreOptions{Durability: d})
	if err != nil {
		log.Fatal(err)
	}
	return s
}

// burst flips each worker's node opsPerWorker times and returns the elapsed
// time to full durability.
func burst(s *securexml.Store, async bool) time.Duration {
	targets, err := s.QueryUnrestricted("//name")
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < updaters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := targets[w%len(targets)].Node
			var handles []*securexml.Commit
			for i := 0; i < opsPerWorker; i++ {
				allowed := i%2 == 1 // revoke, grant, … — ends granted
				if async {
					c, err := s.SetAccessAsync("staff", "read", node, allowed, false)
					if err != nil {
						log.Fatal(err)
					}
					handles = append(handles, c)
					continue
				}
				if err := s.SetAccess("staff", "read", node, allowed, false); err != nil {
					log.Fatal(err)
				}
			}
			// The async commits are already visible to queries; the handles
			// tell us when they are on disk.
			for _, c := range handles {
				if err := c.Wait(); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
	// Collective barrier: a no-op for sync, and already satisfied
	// here for async (every handle resolved), but this is the call a server
	// would make before acknowledging a snapshot.
	if err := s.AwaitDurable(); err != nil {
		log.Fatal(err)
	}
	return time.Since(start)
}

func main() {
	fmt.Printf("%d updaters x %d ACL toggles each, file-backed store:\n\n", updaters, opsPerWorker)
	for _, m := range []struct {
		name  string
		d     securexml.Durability
		async bool
	}{
		{"sync", securexml.DurabilitySync, false},
		{"async", securexml.DurabilityAsync, true},
	} {
		dir, err := os.MkdirTemp("", "groupcommit-"+m.name)
		if err != nil {
			log.Fatal(err)
		}
		s := buildStore(dir, m.d)
		elapsed := burst(s, m.async)
		snap := s.MetricsSnapshot()
		updates := updaters * opsPerWorker
		fmt.Printf("  %-8s %6.0f updates/s  (%.2f fsyncs/update)\n",
			m.name,
			float64(updates)/elapsed.Seconds(),
			float64(snap.Get("wal_fsyncs"))/float64(updates))
		if err := s.Close(); err != nil {
			log.Fatal(err)
		}
		os.RemoveAll(dir)
	}
	fmt.Println("\nsync updaters share the flushes they wait for; async amortizes one flush across the burst")
}
