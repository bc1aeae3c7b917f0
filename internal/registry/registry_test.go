package registry

import (
	"errors"
	"testing"
)

type widget struct {
	Meta
	Size int
}

func (w *widget) GetMeta() *Meta { return &w.Meta }

func newWidget(name string, size int) *widget {
	return &widget{Meta: Meta{Kind: "widget", Name: name}, Size: size}
}

func TestCreateGet(t *testing.T) {
	s := NewStore()
	w := newWidget("a", 1)
	if err := s.Create(w); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if w.ResourceVersion == 0 {
		t.Error("Create should assign a version")
	}
	got, err := s.Get("widget", "a")
	if err != nil || got.(*widget).Size != 1 {
		t.Errorf("Get = %v, %v", got, err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestCreateValidation(t *testing.T) {
	s := NewStore()
	if err := s.Create(&widget{}); err == nil {
		t.Error("missing kind/name should fail")
	}
	w := newWidget("a", 1)
	if err := s.Create(w); err != nil {
		t.Fatal(err)
	}
	var exists *AlreadyExists
	if err := s.Create(newWidget("a", 2)); !errors.As(err, &exists) {
		t.Errorf("duplicate Create = %v, want AlreadyExists", err)
	}
}

func TestUpdateOptimisticConcurrency(t *testing.T) {
	s := NewStore()
	w := newWidget("a", 1)
	if err := s.Create(w); err != nil {
		t.Fatal(err)
	}
	v1 := w.ResourceVersion
	w.Size = 2
	if err := s.Update(w); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if w.ResourceVersion <= v1 {
		t.Error("Update should bump version")
	}
	// Stale version must conflict.
	stale := newWidget("a", 3)
	stale.ResourceVersion = v1
	var conflict *Conflict
	if err := s.Update(stale); !errors.As(err, &conflict) {
		t.Errorf("stale Update = %v, want Conflict", err)
	}
	var notFound *NotFound
	if err := s.Update(newWidget("zzz", 0)); !errors.As(err, &notFound) {
		t.Errorf("Update missing = %v, want NotFound", err)
	}
}

func TestDelete(t *testing.T) {
	s := NewStore()
	if err := s.Create(newWidget("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("widget", "a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	var notFound *NotFound
	if _, err := s.Get("widget", "a"); !errors.As(err, &notFound) {
		t.Errorf("Get after delete = %v", err)
	}
	if err := s.Delete("widget", "a"); !errors.As(err, &notFound) {
		t.Errorf("double Delete = %v", err)
	}
}

func TestListSortedAndFiltered(t *testing.T) {
	s := NewStore()
	for _, n := range []string{"c", "a", "b"} {
		if err := s.Create(newWidget(n, 0)); err != nil {
			t.Fatal(err)
		}
	}
	other := &widget{Meta: Meta{Kind: "gadget", Name: "x"}}
	if err := s.Create(other); err != nil {
		t.Fatal(err)
	}
	ws := s.List("widget")
	if len(ws) != 3 {
		t.Fatalf("List = %d items", len(ws))
	}
	for i, want := range []string{"a", "b", "c"} {
		if ws[i].GetMeta().Name != want {
			t.Errorf("List[%d] = %q, want %q", i, ws[i].GetMeta().Name, want)
		}
	}
}

func TestWatchReceivesMutations(t *testing.T) {
	s := NewStore()
	var events []Event
	s.Watch("widget", func(e Event) { events = append(events, e) })

	w := newWidget("a", 1)
	if err := s.Create(w); err != nil {
		t.Fatal(err)
	}
	w.Size = 2
	if err := s.Update(w); err != nil { // versioned, not broadcast
		t.Fatal(err)
	}
	if err := s.Delete("widget", "a"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	wantTypes := []EventType{Added, Deleted}
	for i, want := range wantTypes {
		if events[i].Type != want {
			t.Errorf("event %d type = %v, want %v", i, events[i].Type, want)
		}
	}
}

func TestWatchReplaysExisting(t *testing.T) {
	s := NewStore()
	if err := s.Create(newWidget("b", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(newWidget("a", 1)); err != nil {
		t.Fatal(err)
	}
	var names []string
	s.Watch("widget", func(e Event) {
		if e.Type == Added {
			names = append(names, e.Object.GetMeta().Name)
		}
	})
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("replay = %v, want sorted [a b]", names)
	}
}

func TestWatchKindFilter(t *testing.T) {
	s := NewStore()
	count := 0
	s.Watch("gadget", func(e Event) { count++ })
	if err := s.Create(newWidget("a", 1)); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Error("widget event leaked to gadget watcher")
	}
}

func TestWatchCancel(t *testing.T) {
	s := NewStore()
	count := 0
	cancel := s.Watch("widget", func(e Event) { count++ })
	cancel()
	if err := s.Create(newWidget("a", 1)); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Error("cancelled watcher still notified")
	}
}

func TestWatchAllKinds(t *testing.T) {
	s := NewStore()
	if err := s.Create(newWidget("a", 1)); err != nil {
		t.Fatal(err)
	}
	var seen []string
	s.Watch("", func(e Event) { seen = append(seen, e.Object.GetMeta().Key()) })
	if len(seen) != 1 || seen[0] != "widget/a" {
		t.Errorf("match-all replay = %v", seen)
	}
	g := &widget{Meta: Meta{Kind: "gadget", Name: "g"}}
	if err := s.Create(g); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Errorf("match-all did not see gadget: %v", seen)
	}
}

func TestHandlerMayMutateStore(t *testing.T) {
	s := NewStore()
	// A controller that creates a shadow object for every widget.
	s.Watch("widget", func(e Event) {
		if e.Type == Added {
			shadow := &widget{Meta: Meta{Kind: "shadow", Name: e.Object.GetMeta().Name}}
			if err := s.Create(shadow); err != nil {
				t.Errorf("shadow create: %v", err)
			}
		}
	})
	if err := s.Create(newWidget("a", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("shadow", "a"); err != nil {
		t.Errorf("shadow not created: %v", err)
	}
}

func TestRunawayRecursionPanics(t *testing.T) {
	s := NewStore()
	n := 0
	s.Watch("widget", func(e Event) {
		n++
		w := newWidget(string(rune('a'+n%26))+string(rune('0'+n/26)), n)
		_ = s.Create(w) // each event creates another widget: infinite loop
	})
	defer func() {
		if recover() == nil {
			t.Error("runaway controller recursion should panic")
		}
	}()
	_ = s.Create(newWidget("seed", 0))
}

func TestErrorStrings(t *testing.T) {
	if (&Conflict{Key: "k", Presented: 1, Has: 2}).Error() == "" {
		t.Error("empty conflict message")
	}
	if (&NotFound{"k"}).Error() == "" || (&AlreadyExists{"k"}).Error() == "" {
		t.Error("empty error messages")
	}
	if Added.String() != "added" || Deleted.String() != "deleted" {
		t.Error("event type strings wrong")
	}
	if EventType(7).String() != "event(7)" {
		t.Error("unknown event type string")
	}
}
