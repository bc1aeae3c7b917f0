package registry

import "testing"

// TestAdvanceVersion pins the bulk-stamp contract: AdvanceVersion stands
// in for n owned-object stamps, and the version trajectory of later
// writes continues as if those stamps had happened.
func TestAdvanceVersion(t *testing.T) {
	s := NewStore()
	w := newWidget("a", 1)
	if err := s.Create(w); err != nil {
		t.Fatal(err)
	}
	v0 := w.ResourceVersion

	// Three phantom stamps, then a real update: the update's version must
	// land exactly where three Updates plus one more would have put it.
	s.AdvanceVersion(3)
	if err := s.Update(w); err != nil {
		t.Fatal(err)
	}
	if want := v0 + 4; w.ResourceVersion != want {
		t.Errorf("version after AdvanceVersion(3)+Update = %d, want %d", w.ResourceVersion, want)
	}
	s.AdvanceVersion(0)
	s.AdvanceVersion(-5) // non-positive advances are no-ops
	prev := w.ResourceVersion
	if err := s.Update(w); err != nil {
		t.Fatal(err)
	}
	if w.ResourceVersion != prev+1 {
		t.Errorf("non-positive AdvanceVersion moved the counter: %d -> %d", prev, w.ResourceVersion)
	}
}

// TestUpdateIsSilent: watches carry the object lifecycle only. An Update
// stamps a fresh version and still enforces the conflict check, but no
// watcher — kind-filtered or match-all — hears about it.
func TestUpdateIsSilent(t *testing.T) {
	s := NewStore()
	var got []EventType
	s.Watch("", func(ev Event) { got = append(got, ev.Type) })
	s.Watch("widget", func(ev Event) { got = append(got, ev.Type) })
	w := newWidget("a", 1)
	if err := s.Create(w); err != nil {
		t.Fatal(err)
	}
	v := w.ResourceVersion
	if err := s.Update(w); err != nil {
		t.Fatal(err)
	}
	if w.ResourceVersion != v+1 {
		t.Errorf("Update stamped version %d, want %d", w.ResourceVersion, v+1)
	}
	stale := newWidget("a", 1)
	stale.ResourceVersion = v
	if err := s.Update(stale); err == nil {
		t.Error("stale Update accepted without a conflict")
	}
	if err := s.Delete("widget", "a"); err != nil {
		t.Fatal(err)
	}
	want := []EventType{Added, Added, Deleted, Deleted}
	if len(got) != len(want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
}
