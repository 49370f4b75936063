package securexml_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"dolxml/internal/xmark"
	"dolxml/securexml"
)

// Secure a small document with rule-based policies, then run twig queries
// as different users.
func Example() {
	const doc = `<hospital>
  <ward name="A">
    <patient id="p1"><name>Ann</name><diagnosis>flu</diagnosis><billing><amount>100</amount></billing></patient>
    <patient id="p2"><name>Bob</name><diagnosis>cold</diagnosis><billing><amount>50</amount></billing></patient>
  </ward>
  <ward name="B">
    <patient id="p3"><name>Cid</name><diagnosis>cough</diagnosis><billing><amount>75</amount></billing></patient>
  </ward>
</hospital>`
	store, err := securexml.NewBuilder().
		LoadXMLString(doc).
		AddGroup("doctors").
		AddGroup("billing").
		AddUser("dave").
		AddUser("betty").
		AddUser("alice").
		AddMember("doctors", "dave").
		AddMember("billing", "betty").
		// Doctors read everything except billing records.
		Grant("doctors", "read", "/hospital").
		Revoke("doctors", "read", "//billing").
		// Billing staff read the tree but not medical details.
		Grant("billing", "read", "/hospital").
		Revoke("billing", "read", "//diagnosis").
		// Nurse alice reads ward A only.
		Grant("alice", "read", `/hospital/ward[@name='A']`).
		Seal(securexml.StoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	show := func(user, xpath string) {
		matches, err := store.QueryCtx(context.Background(), user, "read", xpath, securexml.QueryOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %-22s ->", user, xpath)
		for _, m := range matches {
			if m.Value != "" {
				fmt.Printf(" <%s>%s", m.Tag, m.Value)
			} else {
				fmt.Printf(" <%s:%d>", m.Tag, m.Node)
			}
		}
		fmt.Printf("  (%d answers)\n", len(matches))
	}

	fmt.Println("Secure twig queries (Cho et al. semantics):")
	show("dave", "//patient/name")
	show("dave", "//billing/amount")
	show("betty", "//billing/amount")
	show("betty", "//diagnosis")
	show("alice", "//patient/name")

	st, err := store.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDOL encoding: %d nodes, %d transition nodes, %d codebook entries (%d bytes)\n",
		st.Nodes, st.Transitions, st.CodebookEntries, st.CodebookBytes)
	// Output:
	// Secure twig queries (Cho et al. semantics):
	// dave   //patient/name         -> <name>Ann <name>Bob <name>Cid  (3 answers)
	// dave   //billing/amount       ->  (0 answers)
	// betty  //billing/amount       -> <amount>100 <amount>50 <amount>75  (3 answers)
	// betty  //diagnosis            ->  (0 answers)
	// alice  //patient/name         -> <name>Ann <name>Bob  (2 answers)
	//
	// DOL encoding: 23 nodes, 10 transition nodes, 6 codebook entries (116 bytes)
}

// Run the paper's Table 1 benchmark queries (Q1–Q6) over a generated
// XMark-like document, comparing unrestricted evaluation with secure
// evaluation for a user whose rights come from synthetic rules, under both
// secure semantics.
func ExampleStore_QueryCtx() {
	queries := []struct{ name, expr string }{
		{"Q1", "/site/regions/africa/item[location][name][quantity]"},
		{"Q2", "/site/categories/category[name]/description/text/bold"},
		{"Q3", "/site/categories/category/description/text/bold"},
		{"Q4", "//parlist//parlist"},
		{"Q5", "//listitem//keyword"},
		{"Q6", "//item//emph"},
	}
	// Generate an XMark-like instance and serialize it through the public
	// loader.
	doc := xmark.Generate(xmark.Scaled(7, 30000))
	var xml strings.Builder
	if err := doc.WriteXML(&xml); err != nil {
		log.Fatal(err)
	}

	store, err := securexml.NewBuilder().
		LoadXMLString(xml.String()).
		AddUser("analyst").
		// The analyst may read the whole site except the africa region
		// and all auction annotations.
		Grant("analyst", "read", "/site").
		Revoke("analyst", "read", "/site/regions/africa").
		Revoke("analyst", "read", "//annotation").
		Seal(securexml.StoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	ctx := context.Background()
	fmt.Printf("%-4s %-55s %8s %8s %8s\n", "", "query", "admin", "secure", "pruned")
	for _, q := range queries {
		admin, err := store.QueryUnrestricted(q.expr)
		if err != nil {
			log.Fatal(err)
		}
		secure, err := store.QueryCtx(ctx, "analyst", "read", q.expr, securexml.QueryOptions{})
		if err != nil {
			log.Fatal(err)
		}
		pruned, err := store.QueryCtx(ctx, "analyst", "read", q.expr, securexml.QueryOptions{Pruned: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4s %-55s %8d %8d %8d\n", q.name, q.expr, len(admin), len(secure), len(pruned))
	}
	fmt.Println("\nadmin  = unrestricted evaluation")
	fmt.Println("secure = ε-NoK, Cho et al. bindings semantics (§4)")
	fmt.Println("pruned = ε-STD, Gabillon-Bruno pruned-subtree semantics (§4.2)")
	// Output:
	//      query                                                      admin   secure   pruned
	// Q1   /site/regions/africa/item[location][name][quantity]          103        0        0
	// Q2   /site/categories/category[name]/description/text/bold         87       87       87
	// Q3   /site/categories/category/description/text/bold               87       87       87
	// Q4   //parlist//parlist                                           502      139      139
	// Q5   //listitem//keyword                                          464      126      126
	// Q6   //item//emph                                                 249      210      210
	//
	// admin  = unrestricted evaluation
	// secure = ε-NoK, Cho et al. bindings semantics (§4)
	// pruned = ε-STD, Gabillon-Bruno pruned-subtree semantics (§4.2)
}

// The paper's §3.4 update operations on a sealed store — node and subtree
// accessibility changes, structural inserts, deletes and moves — with a
// live check of Proposition 1: each update adds at most two transition
// nodes.
func Example_updates() {
	const doc = `<library>
  <shelf topic="databases">
    <book><title>Transaction Processing</title></book>
    <book><title>Readings in DB Systems</title></book>
  </shelf>
  <shelf topic="security">
    <book><title>Applied Cryptography</title></book>
  </shelf>
</library>`
	store, err := securexml.NewBuilder().
		LoadXMLString(doc).
		AddUser("reader").
		Grant("reader", "read", "/library").
		Seal(securexml.StoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	transitions := func() int {
		st, err := store.Stats()
		if err != nil {
			log.Fatal(err)
		}
		return st.Transitions
	}
	books := func(user string) int {
		ms, err := store.QueryCtx(context.Background(), user, "read", "//book", securexml.QueryOptions{})
		if err != nil {
			log.Fatal(err)
		}
		return len(ms)
	}
	count := func(label string) {
		fmt.Printf("%-46s -> reader sees %d books, %d transition nodes\n",
			label, books("reader"), transitions())
	}
	checkProp1 := func(before int, op string) {
		if after := transitions(); after > before+2 {
			log.Fatalf("Proposition 1 violated by %s: %d -> %d", op, before, after)
		}
	}

	count("initial state")

	// Revoke one shelf's subtree (accessibility update).
	shelves, err := store.QueryUnrestricted("//shelf")
	if err != nil {
		log.Fatal(err)
	}
	before := transitions()
	if err := store.SetAccess("reader", "read", shelves[1].Node, false, true); err != nil {
		log.Fatal(err)
	}
	checkProp1(before, "subtree revoke")
	count("after revoking the security shelf")

	// Insert a new book (structural update; inherits the shelf's ACL).
	before = transitions()
	if err := store.InsertXML(shelves[0].Node, securexml.InvalidNode,
		"<book><title>The DOL Paper</title></book>"); err != nil {
		log.Fatal(err)
	}
	checkProp1(before, "insert")
	count("after inserting a book into databases")

	// Move a book into the revoked shelf: its ACL travels with it, so the
	// reader still sees it there.
	all, err := store.QueryUnrestricted("//book")
	if err != nil {
		log.Fatal(err)
	}
	shelves, _ = store.QueryUnrestricted("//shelf")
	before = transitions()
	if err := store.Move(all[0].Node, shelves[1].Node, securexml.InvalidNode); err != nil {
		log.Fatal(err)
	}
	checkProp1(before, "move")
	count("after moving a book to the revoked shelf")

	// Delete a subtree.
	all, _ = store.QueryUnrestricted("//book")
	before = transitions()
	if err := store.Delete(all[len(all)-1].Node); err != nil {
		log.Fatal(err)
	}
	checkProp1(before, "delete")
	count("after deleting the last book")

	// Subject updates are codebook-only.
	if err := store.AddUserLike("reader2", "reader"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-46s -> reader2 sees %d books (cloned rights, no page writes)\n",
		"after AddUserLike(reader2, reader)", books("reader2"))
	// Output:
	// initial state                                  -> reader sees 3 books, 1 transition nodes
	// after revoking the security shelf              -> reader sees 2 books, 2 transition nodes
	// after inserting a book into databases          -> reader sees 3 books, 2 transition nodes
	// after moving a book to the revoked shelf       -> reader sees 3 books, 4 transition nodes
	// after deleting the last book                   -> reader sees 3 books, 4 transition nodes
	// after AddUserLike(reader2, reader)             -> reader2 sees 3 books (cloned rights, no page writes)
}

// In an organization with correlated rights — each department's group and
// each of its users granted the department, every third user denied its
// documents — the codebook and the transition count stay flat as the user
// population grows (Figures 5 and 6).
func Example_multiuser() {
	const departments = 6
	var doc strings.Builder
	doc.WriteString("<org>")
	for d := 0; d < departments; d++ {
		fmt.Fprintf(&doc, `<dept name="d%d">`, d)
		for f := 0; f < 40; f++ {
			fmt.Fprintf(&doc, "<folder><doc>file-%d-%d</doc><doc>memo</doc></folder>", d, f)
		}
		doc.WriteString("</dept>")
	}
	doc.WriteString("</org>")

	for _, usersPerDept := range []int{2, 8, 32} {
		b := securexml.NewBuilder().LoadXMLString(doc.String())
		for d := 0; d < departments; d++ {
			group, dept := fmt.Sprintf("dept%d", d), fmt.Sprintf(`/org/dept[@name='d%d']`, d)
			b.AddGroup(group).Grant(group, "read", dept)
			for u := 0; u < usersPerDept; u++ {
				user := fmt.Sprintf("u%d-%d", d, u)
				b.AddUser(user).AddMember(group, user).Grant(user, "read", dept)
				if u%3 == 0 {
					b.Revoke(user, "read", dept+"/folder/doc")
				}
			}
		}
		store, err := b.Seal(securexml.StoreOptions{})
		if err != nil {
			log.Fatal(err)
		}
		st, err := store.Stats()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("subjects=%d nodes=%d transitions=%d codebookEntries=%d codebookBytes=%d\n",
			len(store.Subjects()), st.Nodes, st.Transitions, st.CodebookEntries, st.CodebookBytes)
		if err := store.Close(); err != nil {
			log.Fatal(err)
		}
	}
	// Output:
	// subjects=18 nodes=733 transitions=481 codebookEntries=13 codebookBytes=313
	// subjects=54 nodes=733 transitions=481 codebookEntries=13 codebookBytes=913
	// subjects=198 nodes=733 transitions=481 codebookEntries=13 codebookBytes=3321
}

// Selective dissemination (§7): each subscriber receives the part of a
// feed they may read (its pruned view), written from the store in one
// document-order pass.
func ExampleStore_ExportVisible() {
	const feed = `<newsfeed>
  <public><story>Local team wins</story><story>Weather sunny</story></public>
  <business><story>Quarterly numbers</story><analysis>Deep dive</analysis></business>
  <internal><draft>Unpublished investigation</draft></internal>
</newsfeed>`
	store, err := securexml.NewBuilder().
		LoadXMLString(feed).
		AddGroup("subscribers").
		AddGroup("premium").
		AddUser("sam").
		AddUser("pat").
		AddMember("subscribers", "sam").
		AddMember("subscribers", "pat").
		AddMember("premium", "pat").
		Grant("subscribers", "read", "/newsfeed").
		Revoke("subscribers", "read", "//business").
		Revoke("subscribers", "read", "//internal").
		Grant("premium", "read", "//business").
		Seal(securexml.StoreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	for _, user := range []string{"sam", "pat"} {
		var out strings.Builder
		if err := store.ExportVisible(user, "read", &out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %s\n", user, out.String())
	}
	// Output:
	// sam: <newsfeed><public><story>Local team wins</story><story>Weather sunny</story></public></newsfeed>
	// pat: <newsfeed><public><story>Local team wins</story><story>Weather sunny</story></public><business><story>Quarterly numbers</story><analysis>Deep dive</analysis></business></newsfeed>
}
