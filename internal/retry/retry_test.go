package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The backoff schedule must be the textbook jittered exponential: initial ×
// 2^i, capped, spread ±jitter. Pinned rand makes it exact.
func TestBackoffSchedule(t *testing.T) {
	p := Policy{
		InitialBackoff: 100 * time.Millisecond,
		MaxBackoff:     2 * time.Second,
		Jitter:         0, // deterministic
	}
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second, // capped
		2 * time.Second,
	}
	for i, w := range want {
		if got := p.Backoff(i); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	// Rand pinned to the extremes: jitter 0.5 spreads ±50%.
	for _, tc := range []struct {
		r    float64
		want time.Duration
	}{
		{0, 50 * time.Millisecond},       // 1 - j
		{0.5, 100 * time.Millisecond},    // nominal
		{0.9999, 150 * time.Millisecond}, // → 1 + j
	} {
		p := Policy{InitialBackoff: 100 * time.Millisecond, Jitter: 0.5, Rand: func() float64 { return tc.r }}
		got := p.Backoff(0)
		if d := got - tc.want; d < -time.Millisecond || d > time.Millisecond {
			t.Errorf("Backoff(0) with rand=%v = %v, want ~%v", tc.r, got, tc.want)
		}
	}
}

// Do must stop immediately on success, on a Definitive error, and after
// MaxAttempts retryable failures — sleeping the pinned schedule in between.
func TestDoRetriesUntilAttemptsExhausted(t *testing.T) {
	var slept []time.Duration
	p := Policy{
		MaxAttempts:    4,
		InitialBackoff: 10 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	calls := 0
	boom := errors.New("boom")
	err := Do(context.Background(), p, func(ctx context.Context) error {
		calls++
		return boom
	})
	if calls != 4 {
		t.Fatalf("op ran %d times, want 4", calls)
	}
	var ae *AttemptsError
	if !errors.As(err, &ae) || ae.Attempts != 4 || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want AttemptsError{4, boom}", err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
}

func TestDoSucceedsMidway(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 5, Sleep: func(ctx context.Context, d time.Duration) error { return nil }}
	err := Do(context.Background(), p, func(ctx context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil after 3", err, calls)
	}
}

func TestDoStopsOnDefinitive(t *testing.T) {
	calls := 0
	rejected := errors.New("rejected")
	p := Policy{MaxAttempts: 5, Sleep: func(ctx context.Context, d time.Duration) error { return nil }}
	err := Do(context.Background(), p, func(ctx context.Context) error {
		calls++
		return Definitive(rejected)
	})
	if calls != 1 {
		t.Fatalf("op ran %d times after a definitive error, want 1", calls)
	}
	if !errors.Is(err, rejected) || !IsDefinitive(err) {
		t.Fatalf("err = %v, want the definitive rejection", err)
	}
	// One attempt: no AttemptsError wrapper noise.
	var ae *AttemptsError
	if errors.As(err, &ae) {
		t.Fatalf("single-attempt error wrapped in AttemptsError: %v", err)
	}
}

func TestDoHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := Policy{MaxAttempts: 10, InitialBackoff: time.Millisecond}
	err := Do(ctx, p, func(ctx context.Context) error {
		calls++
		cancel() // parent dies during the first attempt
		return errors.New("transient")
	})
	if calls != 1 {
		t.Fatalf("op ran %d times after parent cancellation, want 1", calls)
	}
	if err == nil {
		t.Fatal("want the attempt's error back")
	}
}

// A per-attempt timeout must bound each attempt without consuming the parent
// budget: the attempt context expires, the loop retries.
func TestDoPerAttemptTimeout(t *testing.T) {
	calls := 0
	p := Policy{
		MaxAttempts:       3,
		PerAttemptTimeout: 5 * time.Millisecond,
		Sleep:             func(ctx context.Context, d time.Duration) error { return nil },
	}
	err := Do(context.Background(), p, func(ctx context.Context) error {
		calls++
		<-ctx.Done() // attempt blocks until its own deadline
		return ctx.Err()
	})
	if calls != 3 {
		t.Fatalf("op ran %d times, want 3 (per-attempt deadline is retryable)", calls)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the last deadline error", err)
	}
}

func TestDefinitiveNil(t *testing.T) {
	if Definitive(nil) != nil {
		t.Fatal("Definitive(nil) must stay nil")
	}
	if IsDefinitive(errors.New("plain")) {
		t.Fatal("plain error misclassified definitive")
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	now := time.Unix(0, 0)
	p := BreakerPolicy{FailureThreshold: 3, Cooldown: time.Second, Now: func() time.Time { return now }}
	b := NewBreaker(p)

	// Under threshold: stays closed.
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused: %v", err)
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v, want closed", b.State())
	}
	// Third consecutive failure trips it.
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state %v, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker allowed a call (err=%v)", err)
	}

	// After the cooldown exactly one probe passes; concurrent calls refused.
	now = now.Add(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("second concurrent half-open call allowed")
	}
	// Probe fails → reopen, cooldown restarts.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("reopened breaker allowed a call before the new cooldown")
	}

	// Next probe succeeds → closed, and a fresh failure streak is required to
	// trip again.
	now = now.Add(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("streak did not reset on close")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker(BreakerPolicy{FailureThreshold: 2})
	b.Failure()
	b.Success()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("interleaved successes must keep the breaker closed")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("two consecutive failures must trip threshold 2")
	}
}
