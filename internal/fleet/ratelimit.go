package fleet

import (
	"context"
	"io"
	"sync"
	"time"
)

// Pull bandwidth budget: replication traffic shares the replica's NIC
// with live serving, and an unthrottled multi-hundred-MB generation
// pull is exactly the burst that blows a serving-tier p99. A token
// bucket refilled at MaxBytesPerSec meters every segment body the
// puller reads (scrub-repair reads are not metered); transfers stretch
// out, serving keeps its headroom, and the staging area makes the
// stretched transfer safe to interrupt.

// throttleChunk bounds one metered read so a tiny budget still makes
// progress (the bucket's burst is never smaller than one chunk).
const throttleChunk = 16 << 10

// byteBucket is a token-bucket byte budget. A nil bucket is
// unthrottled; all methods are safe on nil.
type byteBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) added per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
}

func newByteBucket(bytesPerSec int64) *byteBucket {
	if bytesPerSec <= 0 {
		return nil
	}
	b := &byteBucket{rate: float64(bytesPerSec), burst: float64(bytesPerSec)}
	if b.burst < throttleChunk {
		b.burst = throttleChunk
	}
	b.tokens = b.burst
	b.last = time.Now()
	return b
}

// wait blocks until n bytes of budget are available or ctx ends,
// reporting whether it had to sleep at all.
func (b *byteBucket) wait(ctx context.Context, n int) (waited bool, err error) {
	if b == nil || n <= 0 {
		return false, nil
	}
	for {
		b.mu.Lock()
		now := time.Now()
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
		if b.tokens >= float64(n) {
			b.tokens -= float64(n)
			b.mu.Unlock()
			return waited, nil
		}
		sleep := time.Duration((float64(n) - b.tokens) / b.rate * float64(time.Second))
		b.mu.Unlock()
		waited = true
		select {
		case <-ctx.Done():
			return waited, ctx.Err()
		case <-time.After(sleep):
		}
	}
}

// throttledReader meters an underlying reader against a bucket: each
// read is capped at one chunk and paid for after it lands (pay-after
// smooths to the rate while letting the first chunk through
// immediately). onWait is called once per read that had to sleep.
type throttledReader struct {
	ctx    context.Context
	r      io.Reader
	bucket *byteBucket
	onWait func()
}

func (t *throttledReader) Read(p []byte) (int, error) {
	if len(p) > throttleChunk {
		p = p[:throttleChunk]
	}
	n, err := t.r.Read(p)
	if n > 0 {
		waited, werr := t.bucket.wait(t.ctx, n)
		if waited && t.onWait != nil {
			t.onWait()
		}
		if werr != nil && err == nil {
			err = werr
		}
	}
	return n, err
}
