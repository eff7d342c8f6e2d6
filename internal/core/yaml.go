package core

import (
	"fmt"

	"hftnetview/internal/geo"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
	"hftnetview/internal/yamlx"
)

// The paper's tool "outputs the networks as human-readable YAML files,
// incorporating information about tower coordinates and heights, link
// lengths, and operating frequencies" (§1). This file implements that
// output format and its reader.

// ToYAML renders the reconstructed network as a YAML document.
func (n *Network) ToYAML() ([]byte, error) {
	doc := yamlx.NewMap().
		Set("licensee", n.Licensee).
		Set("date", n.Date.String()).
		Set("tower_count", len(n.Towers)).
		Set("link_count", len(n.Links))

	towers := make([]any, 0, len(n.Towers))
	for i, t := range n.Towers {
		towers = append(towers, yamlx.NewMap().
			Set("id", i).
			Set("lat", t.Point.Lat).
			Set("lon", t.Point.Lon).
			Set("height_m", t.HeightMeters))
	}
	doc.Set("towers", towers)

	links := make([]any, 0, len(n.Links))
	for _, l := range n.Links {
		freqs := make([]any, 0, len(l.FrequenciesMHz))
		for _, f := range l.FrequenciesMHz {
			freqs = append(freqs, f)
		}
		links = append(links, yamlx.NewMap().
			Set("from", l.From).
			Set("to", l.To).
			Set("call_sign", l.CallSign).
			Set("path", l.PathNumber).
			Set("length_km", roundTo(l.LengthMeters/1000, 3)).
			Set("latency_us", roundTo(l.Latency.Microseconds(), 3)).
			Set("frequencies_mhz", freqs))
	}
	doc.Set("links", links)

	fiber := make([]any, 0, len(n.Fiber))
	for _, f := range n.Fiber {
		fiber = append(fiber, yamlx.NewMap().
			Set("data_center", f.DataCenter.Code).
			Set("tower", f.Tower).
			Set("length_km", roundTo(f.LengthMeters/1000, 3)).
			Set("latency_us", roundTo(f.Latency.Microseconds(), 3)))
	}
	doc.Set("fiber_tails", fiber)

	return yamlx.Marshal(doc)
}

func roundTo(v float64, decimals int) float64 {
	scale := 1.0
	for i := 0; i < decimals; i++ {
		scale *= 10
	}
	return float64(int64(v*scale+0.5)) / scale
}

// NetworkFile is the parsed form of a network YAML document: the
// geometry and metadata without the reconstruction graph (reconstruct
// from the license database to run path queries).
type NetworkFile struct {
	Licensee string
	Date     string
	Towers   []TowerRecord
	Links    []LinkRecord
}

// TowerRecord is one tower entry of a network YAML file.
type TowerRecord struct {
	ID      int
	Point   geo.Point
	HeightM float64
}

// LinkRecord is one link entry of a network YAML file.
type LinkRecord struct {
	From, To       int
	CallSign       string
	PathNumber     int
	LengthKM       float64
	LatencyUS      float64
	FrequenciesMHz []float64
}

// ParseNetworkYAML reads a document produced by ToYAML.
func ParseNetworkYAML(data []byte) (*NetworkFile, error) {
	v, err := yamlx.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	doc, ok := v.(*yamlx.Map)
	if !ok {
		return nil, fmt.Errorf("core: network YAML root is not a mapping")
	}
	nf := &NetworkFile{}
	if s, ok := getString(doc, "licensee"); ok {
		nf.Licensee = s
	} else {
		return nil, fmt.Errorf("core: network YAML missing licensee")
	}
	nf.Date, _ = getString(doc, "date")

	towers, _ := doc.Get("towers")
	towerSeq, _ := towers.([]any)
	for i, item := range towerSeq {
		m, ok := item.(*yamlx.Map)
		if !ok {
			return nil, fmt.Errorf("core: tower %d is not a mapping", i)
		}
		id, _ := getInt(m, "id")
		lat, okLat := getFloat(m, "lat")
		lon, okLon := getFloat(m, "lon")
		if !okLat || !okLon {
			return nil, fmt.Errorf("core: tower %d missing coordinates", i)
		}
		h, _ := getFloat(m, "height_m")
		nf.Towers = append(nf.Towers, TowerRecord{
			ID: int(id), Point: geo.Point{Lat: lat, Lon: lon}, HeightM: h,
		})
	}

	links, _ := doc.Get("links")
	linkSeq, _ := links.([]any)
	for i, item := range linkSeq {
		m, ok := item.(*yamlx.Map)
		if !ok {
			return nil, fmt.Errorf("core: link %d is not a mapping", i)
		}
		from, okF := getInt(m, "from")
		to, okT := getInt(m, "to")
		if !okF || !okT {
			return nil, fmt.Errorf("core: link %d missing endpoints", i)
		}
		if int(from) >= len(nf.Towers) || int(to) >= len(nf.Towers) || from < 0 || to < 0 {
			return nil, fmt.Errorf("core: link %d references unknown tower", i)
		}
		lr := LinkRecord{From: int(from), To: int(to)}
		lr.CallSign, _ = getString(m, "call_sign")
		if p, ok := getInt(m, "path"); ok {
			lr.PathNumber = int(p)
		}
		lr.LengthKM, _ = getFloat(m, "length_km")
		lr.LatencyUS, _ = getFloat(m, "latency_us")
		if fs, ok := m.Get("frequencies_mhz"); ok {
			if seq, ok := fs.([]any); ok {
				for _, f := range seq {
					if fv, ok := toFloat(f); ok {
						lr.FrequenciesMHz = append(lr.FrequenciesMHz, fv)
					}
				}
			}
		}
		nf.Links = append(nf.Links, lr)
	}
	return nf, nil
}

// NetworkFromFile rebuilds an analyzable Network from a parsed YAML
// network file: downstream users of the published files can run every
// path/APA/CDF analysis without access to the license database. Link
// latencies are recomputed from the tower coordinates (the file's
// rounded lengths are informational).
func NetworkFromFile(nf *NetworkFile, dcs []sites.DataCenter, opts Options) (*Network, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	date, err := uls.ParseDate(nf.Date)
	if err != nil {
		return nil, fmt.Errorf("core: network file date: %w", err)
	}
	// Only an in-range coordinate has a site cell that fits an int64
	// (see uls.MaxSiteDecimals).
	for i, tr := range nf.Towers {
		if !tr.Point.Valid() {
			return nil, fmt.Errorf("core: tower %d has invalid coordinates %v", i, tr.Point)
		}
	}
	links := make([]uls.Link, 0, len(nf.Links))
	for _, lr := range nf.Links {
		if lr.From < 0 || lr.From >= len(nf.Towers) ||
			lr.To < 0 || lr.To >= len(nf.Towers) {
			return nil, fmt.Errorf("core: link references unknown tower %d-%d",
				lr.From, lr.To)
		}
		links = append(links, uls.Link{
			CallSign:   lr.CallSign,
			Licensee:   nf.Licensee,
			PathNumber: lr.PathNumber,
			TX: uls.Location{Number: 1, Point: nf.Towers[lr.From].Point,
				SupportHeight: nf.Towers[lr.From].HeightM},
			RX: uls.Location{Number: 2, Point: nf.Towers[lr.To].Point,
				SupportHeight: nf.Towers[lr.To].HeightM},
			FrequenciesMHz: lr.FrequenciesMHz,
		})
	}
	return reconstructLinks(links, nf.Licensee, date, dcs, opts)
}

func getString(m *yamlx.Map, key string) (string, bool) {
	v, ok := m.Get(key)
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

func getInt(m *yamlx.Map, key string) (int64, bool) {
	v, ok := m.Get(key)
	if !ok {
		return 0, false
	}
	i, ok := v.(int64)
	return i, ok
}

func getFloat(m *yamlx.Map, key string) (float64, bool) {
	v, ok := m.Get(key)
	if !ok {
		return 0, false
	}
	return toFloat(v)
}

func toFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case float64:
		return t, true
	case int64:
		return float64(t), true
	}
	return 0, false
}
