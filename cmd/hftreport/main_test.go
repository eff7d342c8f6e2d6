package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"hftnetview"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// scrapeWallTime matches the one line of an -exp all run that differs
// from run to run: how long the scrape took.
var scrapeWallTime = regexp.MustCompile(`(?m)^scraped \d+ licenses over HTTP in .*\n`)

// TestPaperArtifactsGolden runs `hftreport -exp all -data` — every
// experiment, in the same list and on one engine over the synthetic
// corpus — and pins what it publishes: the printed text
// (testdata/all.txt, less the scrape's wall time; the engine stats
// footer is main's, not an experiment's), every table's .dat file
// (testdata/dat/) and the Fig 3 files by SHA-256 (testdata/fig3.sha256).
// A change that moves an artifact on purpose reruns the test with
// -update and says which numbers moved and why.
func TestPaperArtifactsGolden(t *testing.T) {
	db, err := hftnetview.GenerateCorpus()
	if err != nil {
		t.Fatal(err)
	}
	eng := hftnetview.NewEngine(db)
	p := defaults
	p.outDir, p.dataDir = t.TempDir(), t.TempDir()
	var text bytes.Buffer
	for _, name := range experiments {
		if err := runExperiment(&text, eng, db, name, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	got := map[string][]byte{
		"all.txt":     scrapeWallTime.ReplaceAll(bytes.ReplaceAll(text.Bytes(), []byte(p.outDir), []byte(defaults.outDir)), nil),
		"fig3.sha256": digests(t, p.outDir),
	}
	dats, err := filepath.Glob(filepath.Join(p.dataDir, "*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range dats {
		got[filepath.Join("dat", filepath.Base(path))] = readFile(t, path)
	}

	for name, data := range got {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("reading golden %s (run with -update to create): %v", path, err)
			continue
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s moved; if intentional, rerun with -update\n%s", path, firstDiff(data, want))
		}
	}
	if golden, _ := filepath.Glob(filepath.Join("testdata", "dat", "*.dat")); len(golden) != len(dats) {
		t.Errorf("testdata/dat holds %d .dat files, the run wrote %d", len(golden), len(dats))
	}
}

// digests lists the SHA-256 of every file in dir, sha256sum style, in
// name order.
func digests(t *testing.T, dir string) []byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, e := range ents {
		fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(readFile(t, filepath.Join(dir, e.Name()))), e.Name())
	}
	return b.Bytes()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return ""
}
