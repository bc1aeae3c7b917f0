// Package registry is the miniature API-server at the centre of the EVOLVE
// control plane: a versioned, typed object store with optimistic
// concurrency and synchronous lifecycle watches. Watchers see objects
// come and go (Added, Deleted) without any of the networking: the
// simulation is single-threaded, so watch handlers run synchronously at
// mutation time and the whole control plane stays deterministic.
// Updates are versioned but not broadcast — the tick rewrites every pod
// and node each metrics interval, no consumer reacts to that churn, and
// keeping it silent is what lets the tick stamp versions in bulk
// (AdvanceVersion).
package registry

import (
	"fmt"
	"sort"
)

// Meta is the common header every stored object embeds.
type Meta struct {
	Kind string
	Name string
	// ResourceVersion implements optimistic concurrency: Update fails
	// unless the caller presents the current version.
	ResourceVersion uint64
	Labels          map[string]string

	// key caches Kind+"/"+Name: objects are updated every tick and the
	// concatenation would otherwise be the tick's last per-pod
	// allocation. Kind and Name are immutable after creation.
	key string
}

// Key returns the unique store key.
func (m *Meta) Key() string {
	if m.key == "" {
		m.key = m.Kind + "/" + m.Name
	}
	return m.key
}

// Object is anything the registry can store.
type Object interface {
	GetMeta() *Meta
}

// EventType classifies a watch event.
type EventType int

const (
	Added EventType = iota
	Deleted
)

// String returns the canonical event-type name.
func (t EventType) String() string {
	switch t {
	case Added:
		return "added"
	case Deleted:
		return "deleted"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// Event describes one object mutation.
type Event struct {
	Type   EventType
	Object Object
}

// Handler consumes watch events.
type Handler func(Event)

// Conflict is returned when an Update presents a stale ResourceVersion.
type Conflict struct {
	Key            string
	Presented, Has uint64
}

func (c *Conflict) Error() string {
	return fmt.Sprintf("registry: conflict on %s: presented version %d, store has %d", c.Key, c.Presented, c.Has)
}

// NotFound is returned when an object does not exist.
type NotFound struct{ Key string }

func (n *NotFound) Error() string { return "registry: not found: " + n.Key }

// AlreadyExists is returned by Create for duplicate keys.
type AlreadyExists struct{ Key string }

func (a *AlreadyExists) Error() string { return "registry: already exists: " + a.Key }

type subscription struct {
	kind    string
	handler Handler
	dead    bool
}

// Store is the object store. Not safe for concurrent use — the simulation
// is single-threaded by design.
type Store struct {
	objects map[string]Object
	version uint64
	subs    []*subscription
	// depth guards against unbounded handler→mutation→handler recursion.
	depth int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{objects: make(map[string]Object)}
}

// Create inserts a new object and notifies watchers. The object's
// ResourceVersion is overwritten.
func (s *Store) Create(obj Object) error {
	m := obj.GetMeta()
	if m.Kind == "" || m.Name == "" {
		return fmt.Errorf("registry: object must have kind and name, got %q/%q", m.Kind, m.Name)
	}
	key := m.Key()
	if _, ok := s.objects[key]; ok {
		return &AlreadyExists{key}
	}
	s.version++
	m.ResourceVersion = s.version
	s.objects[key] = obj
	s.notify(Event{Added, obj})
	return nil
}

// Update replaces an existing object; the presented object must carry the
// stored ResourceVersion or the call fails with *Conflict. Updates stamp
// a fresh version but notify no watcher.
func (s *Store) Update(obj Object) error {
	m := obj.GetMeta()
	key := m.Key()
	cur, ok := s.objects[key]
	if !ok {
		return &NotFound{key}
	}
	if have := cur.GetMeta().ResourceVersion; have != m.ResourceVersion {
		return &Conflict{Key: key, Presented: m.ResourceVersion, Has: have}
	}
	s.version++
	m.ResourceVersion = s.version
	s.objects[key] = obj
	return nil
}

// AdvanceVersion bumps the store's version counter by n without
// touching any object, standing in for n Updates of objects the caller
// owns (the very instances the store holds). No watcher sees Updates and
// a conflict check on an owned object compares it against itself, so
// the per-object stamps are unobservable; the version trajectory of
// subsequent Creates/Updates continues as if they had happened.
func (s *Store) AdvanceVersion(n int) {
	if n > 0 {
		s.version += uint64(n)
	}
}

// Delete removes an object and notifies watchers.
func (s *Store) Delete(kind, name string) error {
	key := kind + "/" + name
	obj, ok := s.objects[key]
	if !ok {
		return &NotFound{key}
	}
	delete(s.objects, key)
	s.notify(Event{Deleted, obj})
	return nil
}

// Get fetches an object by kind and name.
func (s *Store) Get(kind, name string) (Object, error) {
	obj, ok := s.objects[kind+"/"+name]
	if !ok {
		return nil, &NotFound{kind + "/" + name}
	}
	return obj, nil
}

// List returns all objects of a kind, sorted by name for determinism.
func (s *Store) List(kind string) []Object {
	var out []Object
	for _, obj := range s.objects {
		if obj.GetMeta().Kind == kind {
			out = append(out, obj)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].GetMeta().Name < out[j].GetMeta().Name
	})
	return out
}

// Len returns the total number of stored objects.
func (s *Store) Len() int { return len(s.objects) }

// Watch subscribes handler to the lifecycle (Added/Deleted) of objects of
// the given kind; the empty kind matches everything. Existing objects are replayed as Added events
// first, so informer-style controllers need no separate list step.
// The returned cancel function detaches the subscription.
func (s *Store) Watch(kind string, handler Handler) func() {
	for _, obj := range s.List(kind) {
		handler(Event{Added, obj})
	}
	if kind == "" {
		// Replay for the match-all case covers every kind.
		// (List("") returns nothing, so do it explicitly.)
		keys := make([]string, 0, len(s.objects))
		for k := range s.objects {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			handler(Event{Added, s.objects[k]})
		}
	}
	sub := &subscription{kind: kind, handler: handler}
	s.subs = append(s.subs, sub)
	return func() { sub.dead = true }
}

func (s *Store) notify(ev Event) {
	s.depth++
	if s.depth > 64 {
		panic("registry: watch handler recursion exceeded 64 levels; controller feedback loop?")
	}
	defer func() { s.depth-- }()

	// Compact dead subscriptions in place, but only at the outermost
	// dispatch level: an inner (reentrant) notify must not shuffle
	// entries out from under an outer iteration.
	if s.depth == 1 {
		live := s.subs[:0]
		for _, sub := range s.subs {
			if !sub.dead {
				live = append(live, sub)
			}
		}
		for i := len(live); i < len(s.subs); i++ {
			s.subs[i] = nil
		}
		s.subs = live
	}

	kind := ev.Object.GetMeta().Kind
	// Iterate a local slice header instead of an allocated snapshot:
	// handlers that subscribe mid-dispatch append to s.subs (possibly
	// growing a new backing array), so they are not notified for the
	// event already in flight; cancellations are honoured via the dead
	// flag either way. This keeps per-mutation dispatch allocation-free.
	subs := s.subs
	for _, sub := range subs {
		if sub.dead || (sub.kind != "" && sub.kind != kind) {
			continue
		}
		sub.handler(ev)
	}
}
