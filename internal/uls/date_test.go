package uls

import (
	"testing"
	"testing/quick"
	"time"
)

func TestParseDate(t *testing.T) {
	good := []struct {
		in   string
		want Date
	}{
		{"", Date{}},
		{"04/01/2020", NewDate(2020, time.April, 1)},
		{"01/01/2013", NewDate(2013, time.January, 1)},
		{"12/31/1999", NewDate(1999, time.December, 31)},
		{"2020-04-01", NewDate(2020, time.April, 1)},
		{"02/29/2016", NewDate(2016, time.February, 29)}, // leap day
	}
	for _, tt := range good {
		got, err := ParseDate(tt.in)
		if err != nil {
			t.Errorf("ParseDate(%q) error: %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseDate(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
	bad := []string{"13/01/2020", "00/10/2020", "02/30/2019", "2020/04/01",
		"April 1 2020", "04-01-2020", "02/29/2019"}
	for _, in := range bad {
		if d, err := ParseDate(in); err == nil {
			t.Errorf("ParseDate(%q) = %v, want error", in, d)
		}
	}
}

func TestDateStringRoundTrip(t *testing.T) {
	f := func(days uint16) bool {
		d := NewDate(2010, time.January, 1).AddDays(int(days))
		got, err := ParseDate(d.String())
		return err == nil && got == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestZeroDate(t *testing.T) {
	var z Date
	if !z.IsZero() {
		t.Error("zero Date should be IsZero")
	}
	if z.String() != "" {
		t.Errorf("zero Date String = %q, want empty", z.String())
	}
	if !z.Time().IsZero() {
		t.Error("zero Date Time should be zero time")
	}
	d := NewDate(2020, time.April, 1)
	if !z.Before(d) {
		t.Error("zero date should sort before real dates")
	}
}

func TestDateOrdering(t *testing.T) {
	a := NewDate(2016, time.January, 1)
	b := NewDate(2016, time.January, 2)
	c := NewDate(2017, time.January, 1)
	if !a.Before(b) || !b.Before(c) || !a.Before(c) {
		t.Error("Before ordering broken")
	}
	if b.Before(a) || a.After(b) {
		t.Error("inverse ordering broken")
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Error("Equal broken")
	}
}

func TestAddDays(t *testing.T) {
	d := NewDate(2015, time.December, 31)
	if got := d.AddDays(1); got != NewDate(2016, time.January, 1) {
		t.Errorf("AddDays(1) = %v", got)
	}
	if got := d.AddDays(-365); got != NewDate(2014, time.December, 31) {
		t.Errorf("AddDays(-365) = %v", got)
	}
	// Leap-year crossing.
	if got := NewDate(2016, time.February, 28).AddDays(1); got != NewDate(2016, time.February, 29) {
		t.Errorf("leap AddDays = %v", got)
	}
}

func TestDateOf(t *testing.T) {
	tm := time.Date(2020, time.April, 1, 23, 59, 0, 0, time.UTC)
	if got := DateOf(tm); got != NewDate(2020, time.April, 1) {
		t.Errorf("DateOf = %v", got)
	}
	if got := DateOf(time.Time{}); !got.IsZero() {
		t.Errorf("DateOf(zero) = %v", got)
	}
}

func TestMustParseDatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseDate did not panic on bad input")
		}
	}()
	MustParseDate("garbage")
}

// BenchmarkParseDate: an API date in each layout.
func BenchmarkParseDate(b *testing.B) {
	for _, c := range []struct{ name, date string }{{"iso", "2020-04-01"}, {"uls", "04/01/2020"}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseDate(c.date); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
