package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hftnetview/internal/uls"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestNetworkYAMLGolden pins the published YAML format: any accidental
// format change (field order, rounding, quoting) breaks downstream
// consumers of the data files and must be deliberate.
func TestNetworkYAMLGolden(t *testing.T) {
	db := uls.NewDatabase()
	buildChainNetwork(t, db, "Golden Net", 5, grant15, uls.Date{}, 11245)
	n := reconstructOrDie(t, db, "Golden Net", date20)
	checkGraphIdentity(t, n)
	got, err := n.ToYAML()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "network_golden.yaml")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("YAML output changed; if intentional, rerun with -update.\ngot:\n%s\nwant:\n%s",
			got, want)
	}
}
