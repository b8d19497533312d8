package chaos

import (
	"testing"
	"time"
)

func TestScheduleFiresInOrderExactlyOnce(t *testing.T) {
	sched := NewSchedule(
		Event{At: 0.5, Shard: 0, Kind: EventRestart},
		Event{At: 0.2, Shard: 1, Kind: EventSetPlan, Plan: Plan{Delay: 1, DelayFor: time.Millisecond}},
		Event{At: 0.5, Shard: 0, Kind: EventKill}, // same instant as the restart, listed after → fires after
		Event{At: 0.9, Shard: -1, Kind: EventHeal},
	)
	if ev := sched.Due(0.1); ev != nil {
		t.Fatalf("Due(0.1) = %v, want nil", ev)
	}
	ev := sched.Due(0.6)
	if len(ev) != 3 {
		t.Fatalf("Due(0.6) returned %d events, want 3", len(ev))
	}
	if ev[0].Kind != EventSetPlan || ev[0].Shard != 1 {
		t.Fatalf("first event = %+v, want shard 1 set-plan", ev[0])
	}
	// The stable sort keeps the listed order at At == 0.5.
	if ev[1].Kind != EventRestart || ev[2].Kind != EventKill {
		t.Fatalf("tied events fired as %v, %v; want restart then kill", ev[1].Kind, ev[2].Kind)
	}
	// Re-polling the same progress pops nothing: events fire exactly once.
	if again := sched.Due(0.6); again != nil {
		t.Fatalf("second Due(0.6) = %v, want nil", again)
	}
	last := sched.Due(1.0)
	if len(last) != 1 || last[0].Kind != EventHeal || last[0].Shard != -1 {
		t.Fatalf("Due(1.0) = %v, want the heal-all event", last)
	}
	if rest := sched.Due(2); rest != nil {
		t.Fatalf("Due(2) after the last event = %v, want nil", rest)
	}
}
