package serve

import (
	"sync"

	"hftnetview/internal/uls"
)

// answerCap bounds the encoded bodies one generation's answer cache
// holds. The paper-date surface (Table 1 and /v1/apa on the three
// corridor paths, Table 2, and the 2013–2020 evolution of each of the
// ten HFT networks on each corridor path) is 40 bodies and about 32 KB,
// so the cap holds it about four times over; the widest evolution the
// year bound allows is 6.8 KB. A constant, not a knob: the surface is
// fixed by the corpus, not by the deployment.
const answerCap = 128 << 10

// answerKey is a /v1 query's parsed and validated parameters, so the
// parameter order, unknown parameters, lower-case path codes and the
// two date layouts of one question all map to one key. Every string in
// it is the corpus's or the sites package's own, so a key keeps no
// request bytes alive.
type answerKey struct {
	endpoint         string
	date             uls.Date
	from, to         string // the path's data-center codes
	licensee         string
	top              int
	fromYear, toYear int
}

// answerCache holds a generation's encoded 200 bodies, keyed by query.
// A generation is immutable, so an answer stays right for its whole
// life, and a publish starts the next generation with an empty cache:
// an answer depends on every licensee's filings, so none carries over.
// Stored bodies are final bytes (body plus newline) and are never
// appended to.
type answerCache struct {
	mu     sync.Mutex
	bodies map[answerKey][]byte
	bytes  int

	hits, misses, resets int64
}

// get returns the stored body of k, counting a hit.
func (c *answerCache) get(k answerKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, ok := c.bodies[k]
	if ok {
		c.hits++
	}
	return body, ok
}

// put stores a freshly encoded 200 body under k, counting a miss. An
// insert that would pass answerCap starts the map over; a body larger
// than the cap is not stored.
func (c *answerCache) put(k answerKey, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	if _, ok := c.bodies[k]; ok || len(body) > answerCap {
		return // a concurrent miss stored the same bytes first, or too big
	}
	if c.bytes+len(body) > answerCap {
		c.bodies, c.bytes = nil, 0
		c.resets++
	}
	if c.bodies == nil {
		c.bodies = make(map[answerKey][]byte)
	}
	c.bodies[k] = body
	c.bytes += len(body)
}

// AnswerStats is the live generation's answer cache on /statsz.
type AnswerStats struct {
	Hits    int64 `json:"hits"`    // queries answered with stored bytes
	Misses  int64 `json:"misses"`  // 200s computed and encoded
	Entries int   `json:"entries"` // bodies held
	Bytes   int   `json:"bytes"`   // their size, at most answerCap
	Resets  int64 `json:"resets"`  // times an insert started the map over
}

func (c *answerCache) stats() AnswerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return AnswerStats{Hits: c.hits, Misses: c.misses, Entries: len(c.bodies), Bytes: c.bytes, Resets: c.resets}
}
