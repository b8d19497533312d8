package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// hintErr is a scripted retryable failure carrying a server Retry-After.
type hintErr struct{ after time.Duration }

func (e hintErr) Error() string                 { return fmt.Sprintf("scripted 503 (retry after %v)", e.after) }
func (e hintErr) RetryAfterHint() time.Duration { return e.after }

func deterministic(maxBackoff time.Duration) (Policy, *[]time.Duration) {
	sleeps := &[]time.Duration{}
	return Policy{
		MaxAttempts:    4,
		InitialBackoff: 100 * time.Millisecond,
		MaxBackoff:     maxBackoff,
		Jitter:         0, // deterministic schedule
		Sleep: func(ctx context.Context, d time.Duration) error {
			*sleeps = append(*sleeps, d)
			return nil
		},
	}, sleeps
}

// TestRetryAfterRaisesBackoff scripts a draining backend: every failure says
// "come back in 1s" while the exponential schedule would have paused 100ms →
// 200ms → 400ms. The hint must win every pause.
func TestRetryAfterRaisesBackoff(t *testing.T) {
	p, sleeps := deterministic(2 * time.Second)
	calls := 0
	err := Do(context.Background(), p, func(ctx context.Context) error {
		calls++
		return hintErr{after: time.Second}
	})
	if err == nil || calls != 4 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	want := []time.Duration{time.Second, time.Second, time.Second}
	if len(*sleeps) != len(want) {
		t.Fatalf("sleeps %v, want %v", *sleeps, want)
	}
	for i, d := range want {
		if (*sleeps)[i] != d {
			t.Fatalf("sleep %d = %v, want %v (hint not honored)", i, (*sleeps)[i], d)
		}
	}
}

// TestRetryAfterCappedAtMaxBackoff scripts a backend demanding a 30s pause
// against a policy whose ceiling is 2s: the hint is honored only up to the
// policy's MaxBackoff — a confused server cannot park clients.
func TestRetryAfterCappedAtMaxBackoff(t *testing.T) {
	p, sleeps := deterministic(2 * time.Second)
	_ = Do(context.Background(), p, func(ctx context.Context) error {
		return hintErr{after: 30 * time.Second}
	})
	for i, d := range *sleeps {
		if d != 2*time.Second {
			t.Fatalf("sleep %d = %v, want the 2s MaxBackoff cap", i, d)
		}
	}
	if len(*sleeps) != 3 {
		t.Fatalf("expected 3 pauses, got %v", *sleeps)
	}
}

// TestRetryAfterShorterThanBackoffDoesNotShorten: by the third failure the
// exponential pause (400ms) exceeds a 50ms hint; the longer of the two wins
// (the hint is a floor on politeness, not a license to hammer).
func TestRetryAfterShorterThanBackoffDoesNotShorten(t *testing.T) {
	p, sleeps := deterministic(2 * time.Second)
	_ = Do(context.Background(), p, func(ctx context.Context) error {
		return hintErr{after: 50 * time.Millisecond}
	})
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	for i, d := range want {
		if (*sleeps)[i] != d {
			t.Fatalf("sleep %d = %v, want %v", i, (*sleeps)[i], d)
		}
	}
}

// TestRetryAfterHintWrapped proves the hint survives error wrapping.
func TestRetryAfterHintWrapped(t *testing.T) {
	err := fmt.Errorf("ship batch: %w", hintErr{after: 3 * time.Second})
	d, ok := RetryAfterHint(err)
	if !ok || d != 3*time.Second {
		t.Fatalf("hint = %v/%v", d, ok)
	}
	if _, ok := RetryAfterHint(errors.New("plain")); ok {
		t.Fatal("hint found on a plain error")
	}
}

// TestOnRetryObservesEachPause: the telemetry hook sees every retry decision
// with the failed attempt number and the causing error.
func TestOnRetryObservesEachPause(t *testing.T) {
	p, _ := deterministic(2 * time.Second)
	var seen []int
	p.OnRetry = func(attempt int, err error) {
		if err == nil {
			t.Error("OnRetry with nil error")
		}
		seen = append(seen, attempt)
	}
	_ = Do(context.Background(), p, func(ctx context.Context) error {
		return errors.New("transient")
	})
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Fatalf("OnRetry attempts %v, want [1 2 3]", seen)
	}
}

// TestBreakerOnStateChange walks closed → open → half-open → closed and
// checks the observer saw exactly those transitions.
func TestBreakerOnStateChange(t *testing.T) {
	now := time.Unix(0, 0)
	var transitions []string
	b := NewBreaker(BreakerPolicy{
		FailureThreshold: 2,
		Cooldown:         time.Second,
		Now:              func() time.Time { return now },
		OnStateChange: func(from, to BreakerState) {
			transitions = append(transitions, fmt.Sprintf("%s→%s", from, to))
		},
	})
	b.Failure()
	b.Failure() // trips open
	now = now.Add(2 * time.Second)
	if err := b.Allow(); err != nil { // half-open probe
		t.Fatalf("probe refused: %v", err)
	}
	b.Success() // closes
	want := []string{"closed→open", "open→half-open", "half-open→closed"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %s, want %s", i, transitions[i], want[i])
		}
	}
}
