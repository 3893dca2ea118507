package persist

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff bounds of RetryPolicy.Delay: the scale before the first
// retry and the cap.
const (
	baseDelay = 500 * time.Millisecond
	maxDelay  = 30 * time.Second
)

// RetryPolicy bounds the re-execution of interrupted jobs after a
// crash: exponential backoff with full-range jitter, capped delay,
// capped attempts. The backoff is what keeps a job that crashes its
// worker from turning a restarting server into a crash loop — each
// rebirth waits longer before touching the poison pill again, and
// after MaxAttempts executions the job is declared failed instead of
// being retried forever.
type RetryPolicy struct {
	// MaxAttempts caps total executions (default 3): a job interrupted
	// with MaxAttempts attempts already spent is failed, not requeued.
	MaxAttempts int
}

// WithDefaults fills zero fields.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	return p
}

// jitterMu guards the package rand source (the global math/rand source
// is also safe, but a dedicated source keeps this independent of any
// deterministic seeding a test does elsewhere).
var (
	jitterMu  sync.Mutex
	jitterSrc = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// Delay returns the jittered backoff before re-executing a job that
// has already spent the given number of attempts (>= 1). The value is
// uniform in [d/2, d] where d = min(baseDelay * 2^(attempts-1),
// maxDelay) — always positive, never above maxDelay.
func (p RetryPolicy) Delay(attempts int) time.Duration {
	if attempts < 1 {
		attempts = 1
	}
	d := baseDelay
	for i := 1; i < attempts && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	jitterMu.Lock()
	f := jitterSrc.Float64()
	jitterMu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}
