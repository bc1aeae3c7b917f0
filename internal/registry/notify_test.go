package registry

import (
	"testing"
)

// TestNotifyDoesNotAllocate guards the dispatch path: a create/delete
// cycle with live (and a few cancelled) subscriptions must allocate no
// more than the same cycle on a store nobody watches.
func TestNotifyDoesNotAllocate(t *testing.T) {
	cycle := func(s *Store, w *widget) func() {
		return func() {
			if err := s.Create(w); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("widget", "a"); err != nil {
				t.Fatal(err)
			}
		}
	}
	bare := NewStore()
	bareRun := cycle(bare, newWidget("a", 1))
	bareRun()
	base := testing.AllocsPerRun(100, bareRun)

	s := NewStore()
	var seen int
	for i := 0; i < 4; i++ {
		s.Watch("widget", func(Event) { seen++ })
	}
	cancel := s.Watch("widget", func(Event) { seen++ })
	cancel()
	run := cycle(s, newWidget("a", 1))
	run() // let the compaction settle, then measure
	allocs := testing.AllocsPerRun(100, run)
	if allocs > base {
		t.Errorf("create/delete with subscribers allocates %.1f objects/run, %.1f without", allocs, base)
	}
	if seen == 0 {
		t.Fatal("handlers never ran")
	}
}

// TestSubscribeDuringDispatch: a handler that registers a new watch
// mid-dispatch must not see the in-flight event delivered to the new
// subscription, but the next mutation reaches it.
func TestSubscribeDuringDispatch(t *testing.T) {
	s := NewStore()
	var late []EventType
	subscribed := false
	s.Watch("widget", func(ev Event) {
		if subscribed {
			return
		}
		subscribed = true
		s.Watch("widget", func(inner Event) {
			late = append(late, inner.Type)
		})
		// The inner Watch replays the existing object synchronously;
		// drop that so the assertion sees only dispatched events.
		late = late[:0]
	})
	if err := s.Create(newWidget("a", 1)); err != nil { // triggers the inner subscribe
		t.Fatal(err)
	}
	if len(late) != 0 {
		t.Fatalf("new subscription saw the in-flight event: %v", late)
	}
	if err := s.Delete("widget", "a"); err != nil {
		t.Fatal(err)
	}
	if len(late) != 1 || late[0] != Deleted {
		t.Fatalf("new subscription missed the next event: %v", late)
	}
}

// TestCancelDuringDispatch: a handler cancelling a later subscription
// mid-dispatch prevents that subscription from seeing the same event.
func TestCancelDuringDispatch(t *testing.T) {
	s := NewStore()
	var cancelLater func()
	victimRan := 0
	s.Watch("widget", func(Event) {
		if cancelLater != nil {
			cancelLater()
		}
	})
	cancelLater = s.Watch("widget", func(Event) { victimRan++ })
	if err := s.Create(newWidget("a", 1)); err != nil {
		t.Fatal(err)
	}
	if victimRan != 0 {
		t.Fatalf("cancelled subscription still ran %d times", victimRan)
	}
	if err := s.Delete("widget", "a"); err != nil {
		t.Fatal(err)
	}
	if victimRan != 0 {
		t.Fatal("cancelled subscription resurrected on a later event")
	}
}
