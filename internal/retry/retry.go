// Package retry is the failure discipline shared by every networked client
// in this repository: a jittered exponential backoff policy with per-attempt
// timeouts and bounded attempts, a definitive-vs-retryable error
// classification, and a per-backend circuit breaker. RemoteCollector, the
// fan-in Fleet, and cmd/ldprouter all drive their requests through it, so
// "how hard do we hammer a struggling shard" is decided in exactly one place.
//
// The randomness and the clock are injectable, so tests pin a policy fully
// deterministic (zero jitter, recorded sleeps) while production gets full
// jitter — two retrying clients that failed together must not retry together.
package retry

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// Policy bounds a retry loop: how many attempts, how long each may take, and
// how the pauses between them grow. The zero Policy retries nothing (one
// attempt, no pause); DefaultPolicy is a sane production shape.
type Policy struct {
	// MaxAttempts is the total number of tries, first included. Values < 1
	// mean one attempt (no retries).
	MaxAttempts int
	// InitialBackoff is the pause after the first failed attempt.
	InitialBackoff time.Duration
	// MaxBackoff caps the pause, which doubles after each failed attempt.
	// 0 means no cap.
	MaxBackoff time.Duration
	// Jitter randomizes each pause within ±Jitter×pause (clamped to [0,1]).
	// Jittered clients that failed together do not retry together.
	Jitter float64
	// PerAttemptTimeout bounds each attempt with its own deadline, so one
	// black-holed request cannot consume the whole loop's budget. 0 inherits
	// the caller's context deadline alone.
	PerAttemptTimeout time.Duration

	// Rand supplies the jitter draw in [0,1); nil uses math/rand/v2. Tests
	// pin it for deterministic schedules.
	Rand func() float64
	// Sleep pauses between attempts; nil uses a context-aware timer. Tests
	// substitute a recorder so a schedule is asserted, not slept.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when set, observes each retry decision: attempt is the
	// 1-based number of the attempt that just failed with err, immediately
	// before the backoff pause. Telemetry only — it cannot alter the loop.
	OnRetry func(attempt int, err error)
}

// RetryAfterHinter is implemented by errors carrying a server-issued
// Retry-After hint (the transport's StatusError on 429/503 responses). Do
// honors the hint: the pause before the next attempt is raised to the hint,
// capped at the policy's MaxBackoff — a draining shard asking for a second
// gets its second, but a hostile or confused server cannot park clients
// beyond the policy's own ceiling.
type RetryAfterHinter interface {
	RetryAfterHint() time.Duration
}

// RetryAfterHint extracts a positive Retry-After hint from anywhere in err's
// chain (0, false when absent).
func RetryAfterHint(err error) (time.Duration, bool) {
	var h RetryAfterHinter
	if errors.As(err, &h) {
		if d := h.RetryAfterHint(); d > 0 {
			return d, true
		}
	}
	return 0, false
}

// attempts returns the effective total attempt count.
func (p Policy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the pause after failed attempt i (0-based), jitter applied.
func (p Policy) Backoff(i int) time.Duration {
	d := float64(p.InitialBackoff)
	for k := 0; k < i; k++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= float64(p.MaxBackoff) {
			d = float64(p.MaxBackoff)
			break
		}
	}
	if p.MaxBackoff > 0 && d > float64(p.MaxBackoff) {
		d = float64(p.MaxBackoff)
	}
	if j := p.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		r := p.Rand
		if r == nil {
			r = rand.Float64
		}
		// Uniform in [1-j, 1+j): full spread both ways keeps the mean pause
		// at the nominal value.
		d *= 1 - j + 2*j*r()
	}
	return time.Duration(d)
}

// sleep pauses for d or until ctx is done, whichever comes first.
func (p Policy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// definitive wraps an error the retry loop must not retry: the failure is a
// fact (a 4xx rejection, a mechanism mismatch), not weather.
type definitive struct{ err error }

func (d definitive) Error() string { return d.err.Error() }
func (d definitive) Unwrap() error { return d.err }

// Definitive marks err as non-retryable: Do returns it immediately. A nil
// err stays nil.
func Definitive(err error) error {
	if err == nil {
		return nil
	}
	return definitive{err}
}

// IsDefinitive reports whether err (anywhere in its chain) was marked
// Definitive. Context cancellation and deadline expiry of the caller's
// context are handled separately by Do and need no marking.
func IsDefinitive(err error) bool {
	var d definitive
	return errors.As(err, &d)
}

// AttemptsError annotates the final error of an exhausted retry loop with
// how many attempts were spent, so an operator reading a log line can tell a
// first-try rejection from a worn-down outage.
type AttemptsError struct {
	Attempts int
	Err      error
}

func (e *AttemptsError) Error() string {
	return fmt.Sprintf("after %d attempts: %v", e.Attempts, e.Err)
}

func (e *AttemptsError) Unwrap() error { return e.Err }

// Do runs op under the policy: each attempt gets its own per-attempt
// deadline, failures classified retryable pause (jittered, growing) and try
// again, and the loop stops on success, a Definitive error, the caller's
// context ending, or attempts running out. The returned error is the last
// attempt's, wrapped in *AttemptsError when more than one attempt ran.
func Do(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	attempts := p.attempts()
	var err error
	ran := 0
	for i := 0; i < attempts; i++ {
		actx, cancel := ctx, context.CancelFunc(nil)
		if p.PerAttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.PerAttemptTimeout)
		}
		err = op(actx)
		if cancel != nil {
			cancel()
		}
		ran = i + 1
		if err == nil {
			return nil
		}
		// A definitive failure, a dead parent context, or spent attempts end
		// the loop. A per-attempt deadline alone is retryable — that is what
		// it is for — but the parent's is not.
		if IsDefinitive(err) || ctx.Err() != nil || i+1 >= attempts {
			break
		}
		pause := p.Backoff(i)
		// Honor the server's Retry-After over a shorter computed backoff: the
		// hint is the server saying when it will be worth asking again. The
		// policy's MaxBackoff stays the ceiling in both directions.
		if hint, ok := RetryAfterHint(err); ok {
			if p.MaxBackoff > 0 && hint > p.MaxBackoff {
				hint = p.MaxBackoff
			}
			if hint > pause {
				pause = hint
			}
		}
		if p.OnRetry != nil {
			p.OnRetry(i+1, err)
		}
		if serr := p.sleep(ctx, pause); serr != nil {
			break
		}
	}
	if err != nil && ran > 1 {
		return &AttemptsError{Attempts: ran, Err: err}
	}
	return err
}
