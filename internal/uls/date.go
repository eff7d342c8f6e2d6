package uls

import (
	"fmt"
	"time"
)

// Date is a calendar date as carried in FCC license records. The zero
// Date means "no date on file" (e.g. a license that was never cancelled).
// FCC ULS renders dates as MM/DD/YYYY; that is the interchange format
// used by the bulk files and the simulated portal.
type Date struct {
	Year  int
	Month time.Month
	Day   int
}

// NewDate builds a Date from components.
func NewDate(year int, month time.Month, day int) Date {
	return Date{Year: year, Month: month, Day: day}
}

// IsZero reports whether the date is the "no date on file" marker.
func (d Date) IsZero() bool { return d == Date{} }

// Time converts the date to a time.Time at midnight UTC. The zero Date
// converts to the zero time.Time.
func (d Date) Time() time.Time {
	if d.IsZero() {
		return time.Time{}
	}
	return time.Date(d.Year, d.Month, d.Day, 0, 0, 0, 0, time.UTC)
}

// Before reports whether d is strictly before other. Zero dates compare
// as the zero time (i.e. before everything non-zero).
func (d Date) Before(other Date) bool { return d.Time().Before(other.Time()) }

// After reports whether d is strictly after other.
func (d Date) After(other Date) bool { return d.Time().After(other.Time()) }

// Equal reports whether the two dates are the same day.
func (d Date) Equal(other Date) bool { return d == other }

// AddDays returns the date n days later (n may be negative).
func (d Date) AddDays(n int) Date {
	t := d.Time().AddDate(0, 0, n)
	return DateOf(t)
}

// DateOf truncates a time.Time to its UTC calendar date.
func DateOf(t time.Time) Date {
	if t.IsZero() {
		return Date{}
	}
	t = t.UTC()
	return Date{Year: t.Year(), Month: t.Month(), Day: t.Day()}
}

// String renders the date in FCC MM/DD/YYYY form; the zero date renders
// as the empty string, matching empty fields in bulk records.
func (d Date) String() string {
	if d.IsZero() {
		return ""
	}
	return fmt.Sprintf("%02d/%02d/%04d", d.Month, d.Day, d.Year)
}

// ParseDate parses an FCC MM/DD/YYYY date. The empty string parses to the
// zero Date. It also accepts ISO yyyy-mm-dd, which the CLI tools use. The
// input's shape picks the one layout that can match it: only an ISO date
// has a '-' after four characters, and only a ULS date a '/' after two.
func ParseDate(s string) (Date, error) {
	if s == "" {
		return Date{}, nil
	}
	layout := "01/02/2006"
	if len(s) > 4 && s[4] == '-' {
		layout = "2006-01-02"
	}
	t, err := time.Parse(layout, s)
	if err != nil {
		return Date{}, fmt.Errorf("uls: unparseable date %q (want MM/DD/YYYY or YYYY-MM-DD)", s)
	}
	// Reject dates that normalized (e.g. 02/30/2020).
	var buf [len("2006-01-02")]byte
	if string(t.AppendFormat(buf[:0], layout)) != s {
		return Date{}, fmt.Errorf("uls: invalid calendar date %q", s)
	}
	return DateOf(t), nil
}

// MustParseDate is ParseDate for tests and tables of constants; it panics
// on malformed input.
func MustParseDate(s string) Date {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}
