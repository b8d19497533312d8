package chaos

import (
	"fmt"
	"sort"
	"sync"
)

// EventKind is the process-level fault an Event fires: plan swaps on a
// shard's fault proxy, readiness drains, and hard kill/restart of the shard
// process itself. The schedule only sequences events — the harness executing
// it owns the shard handles and decides what "kill" means (SIGKILL for a
// subprocess shard, listener teardown for an in-process one).
type EventKind int

const (
	// EventSetPlan swaps the target shard proxy's fault mix to Event.Plan.
	EventSetPlan EventKind = iota
	// EventHeal clears the target proxy's faults (empty Plan).
	EventHeal
	// EventKill hard-stops the shard process (SIGKILL; nothing flushes).
	EventKill
	// EventRestart restarts a killed shard on its surviving data directory.
	EventRestart
	// EventDrain gates the shard out of readiness (routers stop sending).
	EventDrain
	// EventUndrain restores the shard's readiness.
	EventUndrain
)

func (k EventKind) String() string {
	switch k {
	case EventSetPlan:
		return "set-plan"
	case EventHeal:
		return "heal"
	case EventKill:
		return "kill"
	case EventRestart:
		return "restart"
	case EventDrain:
		return "drain"
	case EventUndrain:
		return "undrain"
	}
	return fmt.Sprintf("chaos.EventKind(%d)", int(k))
}

// Event is one scheduled fault. At is a progress fraction in [0, 1] of the
// scenario's offered load — not wall time — so a run at a fixed seed fires
// the same events after the same report counts regardless of machine speed.
type Event struct {
	At    float64
	Shard int // target shard index; -1 targets every shard
	Kind  EventKind
	Plan  Plan // fault mix for EventSetPlan, ignored otherwise
}

// Schedule is an ordered, pop-once sequence of fault events indexed by load
// progress. A harness reports its progress after each ingest wave; Due hands
// back every event whose time has come, exactly once, in order. Safe for
// concurrent use.
type Schedule struct {
	mu     sync.Mutex
	events []Event
	next   int
}

// NewSchedule sorts events by At (stable, so same-instant events keep their
// given order — a kill scheduled before a restart at the same fraction stays
// a kill-then-restart) and returns the ready schedule.
func NewSchedule(events ...Event) *Schedule {
	s := &Schedule{events: append([]Event(nil), events...)}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].At < s.events[j].At })
	return s
}

// Due pops every not-yet-fired event with At <= progress, in schedule order.
// Returns nil when nothing is due.
func (s *Schedule) Due(progress float64) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.next
	for s.next < len(s.events) && s.events[s.next].At <= progress {
		s.next++
	}
	if s.next == start {
		return nil
	}
	return s.events[start:s.next:s.next]
}
