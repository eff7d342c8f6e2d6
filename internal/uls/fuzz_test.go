package uls

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// FuzzReadBulk asserts the bulk parser never panics on arbitrary input,
// and that anything it accepts survives a write/re-read round trip.
func FuzzReadBulk(f *testing.F) {
	seeds := []string{
		"",
		"# comment only\n",
		"HD|WQAA001|1|MG|A|06/01/2015||\nEN|WQAA001|Net|0001|x@n.example\n",
		strings.Join([]string{
			"HD|WQAA001|1|MG|A|06/01/2015||",
			"EN|WQAA001|Net One|0001|noc@netone.example",
			"LO|WQAA001|1|41-45-00.0 N|88-12-00.0 W|200.0|100.0",
			"LO|WQAA001|2|41-42-00.0 N|87-42-00.0 W|190.0|100.0",
			"PA|WQAA001|1|1|2|FXO",
			"FR|WQAA001|1|11245.0",
		}, "\n"),
		"HD|X|x|MG|A|06/01/2015||\n",
		"ZZ|WQAA001|garbage\n",
		"HD|WQAA001|1|MG|A|99/99/9999||\n",
		"LO|WQAA001|1|junk|junk|x|y\n",
		"HD|WQAA001|1|MG|A|06/01/2015||\nHD|WQAA001|1|MG|A|06/01/2015||\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadBulk(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBulk(&buf, db); err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		back, err := ReadBulk(&buf)
		if err != nil {
			t.Fatalf("re-encoded output failed to parse: %v", err)
		}
		if back.Len() != db.Len() {
			t.Fatalf("round trip lost licenses: %d vs %d", back.Len(), db.Len())
		}
	})
}

// FuzzReadBulkLenient asserts the fault-tolerant path never panics,
// always produces a report, and only ever loads licenses that re-parse
// cleanly under the strict reader — a salvaged database is a clean
// database. Around every lifecycle date of a salvaged database, each
// activity count equals the brute-force License.ActiveAt count, so none
// is negative. Seeds imitate the synth corruption profiles: garbled
// fields, truncation, duplicated records, reordering, and shredded
// (joined) lines; one holds a license that expires before its grant.
func FuzzReadBulkLenient(f *testing.F) {
	clean := strings.Join([]string{
		"HD|WQAA001|1|MG|A|06/01/2015||",
		"EN|WQAA001|Net One|0001|noc@netone.example",
		"LO|WQAA001|1|41-45-00.0 N|88-12-00.0 W|200.0|100.0",
		"LO|WQAA001|2|41-42-00.0 N|87-42-00.0 W|190.0|100.0",
		"PA|WQAA001|1|1|2|FXO|45.0|225.0|38.0",
		"FR|WQAA001|1|11245.0",
		"",
	}, "\n")
	seeds := []string{
		"",
		clean,
		// garble: junk fields mid-record
		strings.Replace(clean, "200.0|100.0", "#?~|NaNope", 1),
		// truncate: record cut mid-field
		clean[:len(clean)/2],
		// duplicate: a record line filed twice
		clean + "EN|WQAA001|Net One|0001|noc@netone.example\n",
		// reorder: FR and records before their HD
		"FR|WQAA001|1|11245.0\nEN|WQAA001|Net|0001|x@n.example\n" + clean,
		// shred: two records joined by a lost newline
		strings.Replace(clean, "|0001|noc@netone.example\nLO|", "|0001|noc@netone.exampleLO|", 1),
		"HD|WQAA001|1|MG|A|99/99/9999||\nZZ|?|\x00\xff\n",
		// never in force: expiration before grant
		strings.Replace(clean, "06/01/2015||", "06/01/2015|06/01/2014|", 1),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, rep, err := ReadBulkWithOptions(bytes.NewReader(data), ReadBulkOptions{Mode: Lenient})
		if rep == nil {
			t.Fatal("nil report")
		}
		if rep.BadLines > rep.RecordLines || rep.RecordLines > rep.Lines {
			t.Fatalf("impossible accounting: bad %d > records %d > lines %d",
				rep.BadLines, rep.RecordLines, rep.Lines)
		}
		if err != nil {
			return
		}
		if db == nil {
			t.Fatal("nil database with nil error")
		}
		if db.Len() != rep.LicensesLoaded {
			t.Fatalf("db has %d licenses, report says %d", db.Len(), rep.LicensesLoaded)
		}
		var buf bytes.Buffer
		if err := WriteBulk(&buf, db); err != nil {
			t.Fatalf("salvaged database failed to encode: %v", err)
		}
		if _, err := ReadBulk(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("salvaged database is not strict-clean: %v", err)
		}
		log := db.EventLog()
		for _, d := range lifecycleProbes(db) {
			want := len(bruteActive(db, "", d))
			if got := log.ActiveCount("", d); got != want {
				t.Fatalf("ActiveCount(%s) = %d, want %d", d, got, want)
			}
			if got := len(db.ActiveAt(d)); got != want {
				t.Fatalf("len(ActiveAt(%s)) = %d, want %d", d, got, want)
			}
			byName := db.ActiveCountByLicensee(d)
			for _, name := range db.Licensees() {
				if got, want := byName[name], len(bruteActive(db, name, d)); got != want {
					t.Fatalf("ActiveCountByLicensee(%s)[%q] = %d, want %d", d, name, got, want)
				}
			}
		}
	})
}

// parseDateTwoLayouts is ParseDate as it was before it picked its
// layout by the input's shape: try the ULS layout, then ISO. It is the
// oracle FuzzParseDate holds ParseDate to.
func parseDateTwoLayouts(s string) (Date, error) {
	if s == "" {
		return Date{}, nil
	}
	for _, layout := range []string{"01/02/2006", "2006-01-02"} {
		if t, err := time.Parse(layout, s); err == nil {
			// Reject dates that normalized (e.g. 02/30/2020).
			if t.Format(layout) != s {
				return Date{}, fmt.Errorf("uls: invalid calendar date %q", s)
			}
			return DateOf(t), nil
		}
	}
	return Date{}, fmt.Errorf("uls: unparseable date %q (want MM/DD/YYYY or YYYY-MM-DD)", s)
}

// FuzzParseDate asserts the date parser never panics, that it returns
// the same Date and the same error as the two-layout loop it replaced,
// and that accepted dates re-render to a string that parses back to the
// same value.
func FuzzParseDate(f *testing.F) {
	for _, s := range []string{"", "04/01/2020", "2020-04-01", "02/29/2016",
		"13/01/2020", "garbage", "00/00/0000", "12/31/9999", "02/30/2019", "2019-02-29",
		"2020/04/01", "04-01-2020", "0000-01-01", "2020-4-01", " 2020-04-01", "2020-04-01 ",
		"+020-04-01", "04/01/20200", "1-2-3-4-5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDate(s)
		want, werr := parseDateTwoLayouts(s)
		if d != want || (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("ParseDate(%q) = %v, %v; the two-layout loop gives %v, %v", s, d, err, want, werr)
		}
		if err != nil {
			return
		}
		back, err := ParseDate(d.String())
		if err != nil {
			t.Fatalf("rendered date %q failed to parse: %v", d.String(), err)
		}
		if back != d {
			t.Fatalf("round trip changed %v to %v", d, back)
		}
	})
}
