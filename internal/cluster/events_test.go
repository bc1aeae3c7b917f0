package cluster

import (
	"strings"
	"testing"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/control"
	"evolve/internal/resource"
)

func TestEventLogRecordsLifecycle(t *testing.T) {
	c := newTestCluster(t, 2)
	if err := c.CreateService(testService("web")); err != nil {
		t.Fatal(err)
	}
	c.SchedulePendingNow()
	task := testTask("t1", 2000, 10000) // 5s at 2000m
	if err := c.SubmitTask(task); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Engine().Run(30 * time.Second)
	if err := c.FailNode("node-1"); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreNode("node-1"); err != nil {
		t.Fatal(err)
	}

	kinds := map[string]int{}
	for _, e := range c.Events() {
		kinds[e.Kind]++
		if e.Object == "" || e.Message == "" {
			t.Errorf("incomplete event: %+v", e)
		}
	}
	for _, want := range []string{"pod-scheduled", "task-completed", "node-failed", "node-restored"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events recorded (got %v)", want, kinds)
		}
	}
	// Events are time-ordered.
	evs := c.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events out of order at %d", i)
		}
	}
	if s := evs[0].String(); !strings.Contains(s, evs[0].Kind) {
		t.Errorf("event string = %q", s)
	}
}

func TestEventLogRingWraps(t *testing.T) {
	var l eventLog
	for i := 0; i < eventLogCapacity+10; i++ {
		l.add(&record{at: time.Duration(i), kind: kindNamed, name: "k", object: "o"})
	}
	snap := l.snapshot()
	if len(snap) != eventLogCapacity {
		t.Fatalf("snapshot length = %d", len(snap))
	}
	if l.dropped != 10 {
		t.Errorf("dropped = %d, want 10", l.dropped)
	}
	// Oldest-first after wrap.
	if snap[0].At != time.Duration(10) {
		t.Errorf("first event At = %v, want 10", snap[0].At)
	}
	if snap[len(snap)-1].At != time.Duration(eventLogCapacity+9) {
		t.Errorf("last event At = %v", snap[len(snap)-1].At)
	}
	var empty eventLog
	if empty.snapshot() != nil {
		t.Error("empty log should snapshot nil")
	}
}

// TestJournalRecordsRenderTemplates: every message code renders its
// template from its typed arguments, the same after a round trip
// through the record encoding, and RecordEvent files a known kind under
// its code and any other kind by name.
func TestJournalRecordsRenderTemplates(t *testing.T) {
	vec := resource.New(500, 1<<30, 1e6, 2e6)
	cases := []struct {
		msg  eventMsg
		args eventArgs
		want string
	}{
		{msgText, eventArgs{s: [2]string{"controller killed (injected fault)"}}, "controller killed (injected fault)"},
		{msgBound, eventArgs{s: [2]string{"node-3"}, vec: vec}, "bound to node-3 (" + vec.String() + ")"},
		{msgTaskFailed, eventArgs{s: [2]string{"node-failure"}}, "task failed (node-failure)"},
		{msgRequeued, eventArgs{s: [2]string{"preempted"}}, "back to pending queue (preempted)"},
		{msgPreempted, eventArgs{list: []string{"a-1", "b-2"}, s: [2]string{"node-1"}}, "evicted [a-1 b-2] on node-1"},
		{msgNodeFailed, eventArgs{}, "node marked unready; pods evicted"},
		{msgNodeRestored, eventArgs{}, "node ready again"},
		{msgGangRollback, eventArgs{s: [2]string{"bind failed"}, n: 3}, "gang commit failed (bind failed); 3 rank(s) rolled back"},
		{msgTaskDone, eventArgs{s: [2]string{"node-2"}}, "finished on node-2"},
		{msgRegistryFault, eventArgs{s: [2]string{"conflict"}}, "registry write failed: conflict"},
		{msgBindFault, eventArgs{s: [2]string{"node-0", "node down"}}, "bind to node-0 failed: node down; pod stays pending"},
		{msgActRejected, eventArgs{}, "actuation rejected (injected fault)"},
		{msgActDelayed, eventArgs{dur: 10 * time.Second}, "actuation delayed by 10s (injected fault)"},
		{msgActPartial, eventArgs{x: 50}, "actuation applied at 50% (injected fault)"},
		{msgMigrated, eventArgs{s: [2]string{"web"}}, "replica of web re-queued for a roomier node"},
		{msgReason, eventArgs{reason: control.Reason{Code: control.ReasonHold, X: [3]float64{0.1}}}, "holding: PLO err +0.10 within deadband"},
		{msgHealth, eventArgs{health: control.Health{Code: control.HealthBlind, Blind: 2, Budget: 3}}, "blind for 2 period(s) (budget 3): integral frozen, holding"},
	}
	covered := map[eventMsg]bool{}
	for _, c := range cases {
		covered[c.msg] = true
		r := record{at: time.Minute, kind: kindChaosInject, object: "obj", msg: c.msg, args: c.args}
		if got := r.event().Message; got != c.want {
			t.Errorf("message %d renders %q, want %q", c.msg, got, c.want)
		}
		var w ckpt.Appender
		saveRecord(&w, &r)
		rd := ckpt.NewRawReader(w.Buf)
		back, err := loadRecord(rd)
		if err != nil || len(rd.Rest()) != 0 {
			t.Fatalf("message %d: load = %v, %d bytes left", c.msg, err, len(rd.Rest()))
		}
		if got := back.event(); got != r.event() {
			t.Errorf("message %d: %+v after a round trip, want %+v", c.msg, got, r.event())
		}
	}
	for m := eventMsg(0); m < numEventMsgs; m++ {
		if !covered[m] {
			t.Errorf("message %d (%q) has no case", m, msgSpecs[m].format)
		}
	}

	c := newTestCluster(t, 1)
	c.RecordEvent("ctrl-crash", "control-plane", "controller killed (injected fault)")
	c.RecordEvent("experiment", "hook", "100% done")
	evs := c.Events()
	want := []Event{
		{Kind: "ctrl-crash", Object: "control-plane", Message: "controller killed (injected fault)"},
		{Kind: "experiment", Object: "hook", Message: "100% done"},
	}
	if len(evs) != len(want) || evs[0] != want[0] || evs[1] != want[1] {
		t.Errorf("RecordEvent lines = %+v, want %+v", evs, want)
	}
}
