package fleet

import (
	"context"
	"io"
	"sync"
	"time"
)

// Segment bandwidth budget: replication traffic shares the replica's
// NIC with live serving, and an unthrottled multi-hundred-MB generation
// pull is exactly the burst that blows a serving-tier p99. A token
// bucket refilled at MaxBytesPerSec meters every segment body the
// puller reads, pull and scrub repair alike; transfers stretch out,
// serving keeps its headroom, and resumption makes the stretched
// transfer safe to interrupt.

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

// segmentBody is a segment response body read on the puller's
// account: every byte counts in BytesFetched and, with a bucket, each
// read is capped at one chunk and paid for after it lands (pay-after
// smooths to the rate while letting the first chunk through
// immediately); a read the bucket made sleep counts in ThrottleWaits.
type segmentBody struct {
	io.Closer           // the response body
	r         io.Reader // the capped body
	p         *Puller
	ctx       context.Context
}

func (b *segmentBody) Read(buf []byte) (int, error) {
	if b.p.bucket != nil && len(buf) > throttleChunk {
		buf = buf[:throttleChunk]
	}
	n, err := b.r.Read(buf)
	if n > 0 {
		waited, werr := b.p.bucket.wait(b.ctx, n)
		b.p.bump(func(st *PullStatus) {
			st.BytesFetched += int64(n)
			if waited {
				st.ThrottleWaits++
			}
		})
		if werr != nil && err == nil {
			err = werr
		}
	}
	return n, err
}
