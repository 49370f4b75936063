package dol_test

import (
	"encoding/xml"
	"fmt"
	"io"
	"log"
	"strings"

	"dolxml/internal/acl"
	"dolxml/internal/bitset"
	"dolxml/internal/dol"
	"dolxml/internal/xmltree"
)

// Label a stream in one pass (§2, §7): each element's "acl" attribute
// names the subjects that may read it, and an element without one
// inherits its parent's. One Append per element, in document order, and
// no accessibility matrix is ever built.
func ExampleStreamBuilder() {
	const stream = `<feed acl="alice,bob,carol">
  <public><headline>markets up</headline><headline>weather fine</headline></public>
  <premium acl="alice,bob">
    <article><body>deep analysis</body></article>
    <article acl="alice"><body>alice-only scoop</body></article>
  </premium>
  <internal acl=""><draft>unpublished</draft></internal>
</feed>`
	subjects := []string{"alice", "bob", "carol"}
	sb := dol.NewStreamBuilder(dol.NewCodebook(len(subjects)))

	var stack []*bitset.Bitset // the ACL in force at each open element
	var tags []string
	dec := xml.NewDecoder(strings.NewReader(stream))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			cur := bitset.New(len(subjects))
			if len(stack) > 0 {
				cur = stack[len(stack)-1].Clone()
			}
			for _, a := range t.Attr {
				if a.Name.Local == "acl" {
					cur = bitset.New(len(subjects))
					for i, s := range subjects {
						if strings.Contains(","+a.Value+",", ","+s+",") {
							cur.Set(i)
						}
					}
				}
			}
			stack = append(stack, cur)
			tags = append(tags, t.Name.Local)
			sb.Append(cur)
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		}
	}
	lab := sb.Finish()

	fmt.Printf("%d elements, %d transition nodes, %d codebook entries\n",
		lab.NumNodes(), lab.NumTransitions(), lab.Codebook().Len())
	for n := 0; n < lab.NumNodes(); n++ {
		row := fmt.Sprintf("%-2d %-9s", n, tags[n])
		for i := range subjects {
			if lab.Accessible(xmltree.NodeID(n), acl.SubjectID(i)) {
				row += " " + subjects[i]
			} else {
				row += " " + strings.Repeat("-", len(subjects[i]))
			}
		}
		if lab.IsTransition(xmltree.NodeID(n)) {
			row += " *"
		}
		fmt.Println(row)
	}
	// Output:
	// 11 elements, 4 transition nodes, 4 codebook entries
	// 0  feed      alice bob carol *
	// 1  public    alice bob carol
	// 2  headline  alice bob carol
	// 3  headline  alice bob carol
	// 4  premium   alice bob ----- *
	// 5  article   alice bob -----
	// 6  body      alice bob -----
	// 7  article   alice --- ----- *
	// 8  body      alice --- -----
	// 9  internal  ----- --- ----- *
	// 10 draft     ----- --- -----
}
