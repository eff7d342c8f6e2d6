package core

import (
	"testing"
	"time"

	"hftnetview/internal/graph"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
)

// checkGraphIdentity asserts the numbering a network's graph follows
// (see Network.g): node i is tower i, the data-center nodes come next,
// edge i is link i between its two towers with the link's latency, and
// edge len(Links)+j is fiber tail j between its data center and tower.
// The route, APA and storm analyses map graph ids back to towers, links
// and tails through this identity alone.
func checkGraphIdentity(t *testing.T, n *Network) {
	t.Helper()
	if got, want := n.g.NumNodes(), len(n.Towers)+len(n.dcCodes); got != want {
		t.Fatalf("%s: %d graph nodes, want %d towers + %d data centers", n.Licensee, got, len(n.Towers), len(n.dcCodes))
	}
	if got, want := n.g.NumEdges(), len(n.Links)+len(n.Fiber); got != want {
		t.Fatalf("%s: %d graph edges, want %d links + %d fiber tails", n.Licensee, got, len(n.Links), len(n.Fiber))
	}
	for k, code := range n.dcCodes {
		if id, ok := n.dcNode(code); !ok || int(id) != len(n.Towers)+k {
			t.Fatalf("%s: data center %s is node %d, want %d", n.Licensee, code, id, len(n.Towers)+k)
		}
	}
	for i, l := range n.Links {
		e := n.g.Edge(graph.EdgeID(i))
		if int(e.A) != l.From || int(e.B) != l.To || e.Weight != l.Latency.Seconds() {
			t.Fatalf("%s: edge %d = %+v, want link %d (%d-%d, %v s)", n.Licensee, i, e, i, l.From, l.To, l.Latency.Seconds())
		}
	}
	for j, f := range n.Fiber {
		e := n.g.Edge(graph.EdgeID(len(n.Links) + j))
		dc, _ := n.dcNode(f.DataCenter.Code)
		if e.A != dc || int(e.B) != f.Tower || e.Weight != f.Latency.Seconds() {
			t.Fatalf("%s: edge %d = %+v, want fiber tail %d (%s-%d)", n.Licensee, len(n.Links)+j, e, j, f.DataCenter.Code, f.Tower)
		}
	}
}

// TestGraphIdentity checks the node/edge identity on every network of
// the synthetic corpus at three dates, on their unions, on the whole
// database, with a duplicated data center in the request, and on a
// network rebuilt from its published YAML.
func TestGraphIdentity(t *testing.T) {
	db := corpusForCore(t)
	dates := []uls.Date{uls.NewDate(2014, time.June, 1), uls.NewDate(2017, time.January, 1), date20}
	dcs := append(append([]sites.DataCenter(nil), sites.All...), sites.CME)
	for _, d := range dates {
		for _, name := range append(db.Licensees(), "") {
			n, err := Reconstruct(db, name, d, dcs, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			checkGraphIdentity(t, n)
			if len(n.dcCodes) != len(sites.All) {
				t.Fatalf("%s: %d data-center nodes for %d distinct data centers", name, len(n.dcCodes), len(sites.All))
			}
		}
		u, err := ReconstructUnion(db, []string{"New Line Networks", "Webline Holdings"}, d, sites.All, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		checkGraphIdentity(t, u)
	}
	n := reconstructCorpus(t, db, "New Line Networks", date20)
	y, err := n.ToYAML()
	if err != nil {
		t.Fatal(err)
	}
	nf, err := ParseNetworkYAML(y)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := NetworkFromFile(nf, sites.All, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGraphIdentity(t, fromFile)
}
