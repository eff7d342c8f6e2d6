package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
	"unsafe"

	"hftnetview/internal/geo"
	"hftnetview/internal/uls"
)

// Binary license codec.
//
// Segments carry licenses in a compact little-endian encoding rather
// than the pipe-delimited bulk text: decoding is a linear walk with no
// strconv work, which is what makes a warm boot an order of magnitude
// cheaper than re-ingesting the bulk file (E20). The codec is
// deliberately dumb — fixed-width integers, Float64bits floats,
// length-prefixed strings — so torn or bit-flipped input fails fast in
// the decoder (on top of the CRC that should have caught it first).

// codecVersion is bumped on any change to the license encoding; a
// manifest recording a different version is not readable by this
// binary and its generation is skipped during recovery.
const codecVersion = 1

// maxStringLen bounds decoded string fields; corrupt length prefixes
// must not drive allocations.
const maxStringLen = 1 << 16

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int)    { e.u64(uint64(int64(v))) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) date(d uls.Date) {
	e.u32(uint32(int32(d.Year)))
	e.u8(uint8(d.Month))
	e.u8(uint8(d.Day))
}

type decoder struct {
	buf []byte
	off int
}

var errShort = fmt.Errorf("store: truncated record block")

func (d *decoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return errShort
	}
	return nil
}

func (d *decoder) u8() (uint8, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) i64() (int, error) {
	v, err := d.u64()
	return int(int64(v)), err
}

func (d *decoder) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

func (d *decoder) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("store: string length %d exceeds %d", n, maxStringLen)
	}
	if err := d.need(int(n)); err != nil {
		return "", err
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// strZ is the zero-copy variant: the returned string aliases the
// decoder's buffer instead of copying out of it. Callers own the
// aliasing contract — the buffer must never be mutated after decoding
// (the store reads each segment into a fresh private buffer and only
// ever hands it to the decoder), and the buffer stays reachable as
// long as any decoded string does. Worth it because string fields are
// most of a license's bytes: copying them dominated warm-boot CPU via
// allocator and GC pressure.
func (d *decoder) strZ() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("store: string length %d exceeds %d", n, maxStringLen)
	}
	if err := d.need(int(n)); err != nil {
		return "", err
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	if len(b) == 0 {
		return "", nil
	}
	return unsafe.String(&b[0], len(b)), nil
}

func (d *decoder) date() (uls.Date, error) {
	y, err := d.u32()
	if err != nil {
		return uls.Date{}, err
	}
	m, err := d.u8()
	if err != nil {
		return uls.Date{}, err
	}
	day, err := d.u8()
	if err != nil {
		return uls.Date{}, err
	}
	return uls.Date{Year: int(int32(y)), Month: time.Month(m), Day: int(day)}, nil
}

// encodeLicense appends one license record to the encoder.
func encodeLicense(e *encoder, l *uls.License) {
	e.str(l.CallSign)
	e.i64(l.LicenseID)
	e.str(l.Licensee)
	e.str(l.FRN)
	e.str(l.ContactEmail)
	e.str(l.RadioService)
	e.str(string(l.Status))
	e.date(l.Grant)
	e.date(l.Expiration)
	e.date(l.Cancellation)
	e.u32(uint32(len(l.Locations)))
	for _, loc := range l.Locations {
		e.i64(loc.Number)
		e.f64(loc.Point.Lat)
		e.f64(loc.Point.Lon)
		e.f64(loc.GroundElevation)
		e.f64(loc.SupportHeight)
	}
	e.u32(uint32(len(l.Paths)))
	for _, p := range l.Paths {
		e.i64(p.Number)
		e.i64(p.TXLocation)
		e.i64(p.RXLocation)
		e.str(p.StationClass)
		e.f64(p.TXAzimuthDeg)
		e.f64(p.RXAzimuthDeg)
		e.f64(p.AntennaGainDBi)
		e.u32(uint32(len(p.FrequenciesMHz)))
		for _, f := range p.FrequenciesMHz {
			e.f64(f)
		}
	}
}

// maxSliceLen bounds decoded location/path/frequency counts per
// license; a corrupt count must not drive allocations.
const maxSliceLen = 1 << 20

func sliceLen(n uint32, what string) (int, error) {
	if n > maxSliceLen {
		return 0, fmt.Errorf("store: %s count %d exceeds %d", what, n, maxSliceLen)
	}
	return int(n), nil
}

// decodeLicense reads one license record into l, cutting its
// sub-record slices out of the block arenas and aliasing string fields
// into the decoder's buffer (strZ). Fixed-width runs — the three
// dates, each location, each path's numeric halves — are bounds-checked
// once per run and read at direct offsets, which is most of what makes
// a warm boot cheap on a single core.
func decodeLicense(d *decoder, l *uls.License, a *blockArenas) error {
	le := binary.LittleEndian
	var err error
	if l.CallSign, err = d.strZ(); err != nil {
		return err
	}
	if l.LicenseID, err = d.i64(); err != nil {
		return err
	}
	if l.Licensee, err = d.strZ(); err != nil {
		return err
	}
	if l.FRN, err = d.strZ(); err != nil {
		return err
	}
	if l.ContactEmail, err = d.strZ(); err != nil {
		return err
	}
	if l.RadioService, err = d.strZ(); err != nil {
		return err
	}
	var status string
	if status, err = d.strZ(); err != nil {
		return err
	}
	l.Status = uls.Status(status)

	// Grant, expiration and cancellation dates: 3 × (u32 + u8 + u8).
	if err := d.need(18); err != nil {
		return err
	}
	b := d.buf[d.off:]
	readDate := func(b []byte) uls.Date {
		return uls.Date{
			Year:  int(int32(le.Uint32(b))),
			Month: time.Month(b[4]),
			Day:   int(b[5]),
		}
	}
	l.Grant = readDate(b)
	l.Expiration = readDate(b[6:])
	l.Cancellation = readDate(b[12:])
	d.off += 18

	nLoc, err := d.u32()
	if err != nil {
		return err
	}
	n, err := sliceLen(nLoc, "location")
	if err != nil {
		return err
	}
	if l.Locations, err = takeLocs(a, n); err != nil {
		return err
	}
	// Each location is a fixed 40 bytes: i64 number + 4 × f64.
	if err := d.need(40 * n); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		b := d.buf[d.off : d.off+40]
		loc := &l.Locations[i]
		loc.Number = int(int64(le.Uint64(b)))
		loc.Point = geo.Point{
			Lat: math.Float64frombits(le.Uint64(b[8:])),
			Lon: math.Float64frombits(le.Uint64(b[16:])),
		}
		loc.GroundElevation = math.Float64frombits(le.Uint64(b[24:]))
		loc.SupportHeight = math.Float64frombits(le.Uint64(b[32:]))
		d.off += 40
	}

	nPath, err := d.u32()
	if err != nil {
		return err
	}
	if n, err = sliceLen(nPath, "path"); err != nil {
		return err
	}
	if l.Paths, err = takePaths(a, n); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		p := &l.Paths[i]
		// Fixed head: 3 × i64.
		if err := d.need(24); err != nil {
			return err
		}
		b := d.buf[d.off:]
		p.Number = int(int64(le.Uint64(b)))
		p.TXLocation = int(int64(le.Uint64(b[8:])))
		p.RXLocation = int(int64(le.Uint64(b[16:])))
		d.off += 24
		if p.StationClass, err = d.strZ(); err != nil {
			return err
		}
		// Fixed tail: 3 × f64 + u32 frequency count.
		if err := d.need(28); err != nil {
			return err
		}
		b = d.buf[d.off:]
		p.TXAzimuthDeg = math.Float64frombits(le.Uint64(b))
		p.RXAzimuthDeg = math.Float64frombits(le.Uint64(b[8:]))
		p.AntennaGainDBi = math.Float64frombits(le.Uint64(b[16:]))
		nf := le.Uint32(b[24:])
		d.off += 28
		fn, err := sliceLen(nf, "frequency")
		if err != nil {
			return err
		}
		if p.FrequenciesMHz, err = takeFreqs(a, fn); err != nil {
			return err
		}
		if err := d.need(8 * fn); err != nil {
			return err
		}
		for j := 0; j < fn; j++ {
			p.FrequenciesMHz[j] = math.Float64frombits(le.Uint64(d.buf[d.off:]))
			d.off += 8
		}
	}
	return nil
}

// encodeBlock encodes a batch of licenses as one record block payload:
// a header carrying the license count and the block-wide location,
// path and frequency totals (so the decoder can arena-allocate exact
// slabs), followed by the license records.
func encodeBlock(ls []*uls.License) []byte {
	var totLoc, totPath, totFreq int
	for _, l := range ls {
		totLoc += len(l.Locations)
		totPath += len(l.Paths)
		for _, p := range l.Paths {
			totFreq += len(p.FrequenciesMHz)
		}
	}
	e := &encoder{}
	e.u32(uint32(len(ls)))
	e.u32(uint32(totLoc))
	e.u32(uint32(totPath))
	e.u32(uint32(totFreq))
	for _, l := range ls {
		encodeLicense(e, l)
	}
	return e.buf
}

// blockArenas are the decode-side slabs: one allocation per kind per
// block instead of one per license. Licenses cut three-index slices
// out of them (capacity pinned to length, so a later append on a
// recovered license reallocates instead of scribbling into its
// neighbor). Corrupt headers cannot oversize them past the payload's
// own implied bounds because take fails when a slab runs dry.
type blockArenas struct {
	locs  []uls.Location
	paths []uls.Path
	freqs []float64
}

func takeLocs(a *blockArenas, n int) ([]uls.Location, error) {
	if n > len(a.locs) {
		return nil, fmt.Errorf("store: block location totals lie (%d needed, %d left)", n, len(a.locs))
	}
	s := a.locs[:n:n]
	a.locs = a.locs[n:]
	return s, nil
}

func takePaths(a *blockArenas, n int) ([]uls.Path, error) {
	if n > len(a.paths) {
		return nil, fmt.Errorf("store: block path totals lie (%d needed, %d left)", n, len(a.paths))
	}
	s := a.paths[:n:n]
	a.paths = a.paths[n:]
	return s, nil
}

func takeFreqs(a *blockArenas, n int) ([]float64, error) {
	if n > len(a.freqs) {
		return nil, fmt.Errorf("store: block frequency totals lie (%d needed, %d left)", n, len(a.freqs))
	}
	s := a.freqs[:n:n]
	a.freqs = a.freqs[n:]
	return s, nil
}

// Minimum encoded sizes of each record kind: a license with empty
// strings and no locations or paths (7 length prefixes, an i64, three
// dates and two counts), a location, a path with an empty station
// class and no frequencies, and a frequency.
const (
	minLicenseBytes   = 58
	minLocationBytes  = 40
	minPathBytes      = 56
	minFrequencyBytes = 8
)

// checkTotal bounds the arena sizes a block header may request; a
// corrupt header must not drive giant allocations. Every record costs
// at least its kind's minimum encoded size, so a total beyond what the
// payload could hold is a lie.
func checkTotal(n uint32, payloadLen, minBytes int, what string) (int, error) {
	v, err := sliceLen(n, what)
	if err != nil {
		return 0, err
	}
	if v > payloadLen/minBytes {
		return 0, fmt.Errorf("store: block header claims %d %ss in a %d-byte payload", v, what, payloadLen)
	}
	return v, nil
}

// decodeBlock decodes one record block payload. Decoded licenses alias
// the payload for their string fields (see strZ): the payload must not
// be mutated afterwards.
func decodeBlock(payload []byte) ([]*uls.License, error) {
	d := &decoder{buf: payload}
	count, err := d.u32()
	if err != nil {
		return nil, err
	}
	n, err := checkTotal(count, len(payload), minLicenseBytes, "license")
	if err != nil {
		return nil, err
	}
	totLoc, err := d.u32()
	if err != nil {
		return nil, err
	}
	totPath, err := d.u32()
	if err != nil {
		return nil, err
	}
	totFreq, err := d.u32()
	if err != nil {
		return nil, err
	}
	arenas := &blockArenas{}
	if v, err := checkTotal(totLoc, len(payload), minLocationBytes, "location"); err != nil {
		return nil, err
	} else {
		arenas.locs = make([]uls.Location, v)
	}
	if v, err := checkTotal(totPath, len(payload), minPathBytes, "path"); err != nil {
		return nil, err
	} else {
		arenas.paths = make([]uls.Path, v)
	}
	if v, err := checkTotal(totFreq, len(payload), minFrequencyBytes, "frequency"); err != nil {
		return nil, err
	} else {
		arenas.freqs = make([]float64, v)
	}

	slab := make([]uls.License, n)
	ls := make([]*uls.License, n)
	for i := 0; i < n; i++ {
		if err := decodeLicense(d, &slab[i], arenas); err != nil {
			return nil, fmt.Errorf("store: license %d of %d: %w", i+1, n, err)
		}
		ls[i] = &slab[i]
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("store: %d trailing bytes after %d licenses", len(d.buf)-d.off, n)
	}
	if len(arenas.locs)+len(arenas.paths)+len(arenas.freqs) > 0 {
		return nil, fmt.Errorf("store: block header totals exceed what its %d licenses use", n)
	}
	return ls, nil
}
