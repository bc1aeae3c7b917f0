package evolve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newServedCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Options{Seed: 17, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("svc", Constant(100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return c
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestHTTPHealthz(t *testing.T) {
	srv := httptest.NewServer(newServedCluster(t).Handler())
	defer srv.Close()
	code, body, _ := get(t, srv, "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz = %d %q", code, body)
	}
}

func TestHTTPReport(t *testing.T) {
	srv := httptest.NewServer(newServedCluster(t).Handler())
	defer srv.Close()
	code, body, ctype := get(t, srv, "/report")
	if code != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("report = %d %s", code, ctype)
	}
	var rep Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("bad json: %v\n%s", err, body)
	}
	if len(rep.Services) != 1 || rep.Services[0].Name != "svc" {
		t.Errorf("report: %+v", rep)
	}
}

func TestHTTPSeriesListAndFetch(t *testing.T) {
	srv := httptest.NewServer(newServedCluster(t).Handler())
	defer srv.Close()
	code, body, _ := get(t, srv, "/series")
	if code != http.StatusOK {
		t.Fatalf("series list = %d", code)
	}
	var names []string
	if err := json.Unmarshal([]byte(body), &names); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no series")
	}
	code, csv, ctype := get(t, srv, "/series/app/svc/latency-mean")
	if code != http.StatusOK || !strings.Contains(ctype, "text/csv") {
		t.Fatalf("series fetch = %d %s", code, ctype)
	}
	if !strings.HasPrefix(csv, "seconds,value\n") {
		t.Errorf("csv body:\n%s", csv[:60])
	}
}

func TestHTTPEvents(t *testing.T) {
	srv := httptest.NewServer(newServedCluster(t).Handler())
	defer srv.Close()
	code, body, ctype := get(t, srv, "/events")
	if code != http.StatusOK || !strings.Contains(ctype, "application/json") {
		t.Fatalf("events = %d %s", code, ctype)
	}
	var evs []EventRecord
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no events over a 10-minute run")
	}
	seen := false
	for _, e := range evs {
		if e.Kind == "pod-scheduled" {
			seen = true
		}
	}
	if !seen {
		t.Error("missing pod-scheduled events")
	}
}

// newTracedServer builds a served cluster with tracing enabled before
// the run, so every debug route has data behind it.
func newTracedServer(t *testing.T) *httptest.Server {
	t.Helper()
	c, err := New(Options{Seed: 17, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTracing(4096)
	if err := c.AddService(ServiceOptions{Name: "svc", BaseRate: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("svc", Constant(100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestHTTPRoutes sweeps every route the Handler doc comment advertises
// against a tracing-enabled cluster: status, content type and a content
// probe per route.
func TestHTTPRoutes(t *testing.T) {
	srv := newTracedServer(t)
	cases := []struct {
		path     string
		code     int
		ctype    string // substring of Content-Type
		contains string // substring of the body
	}{
		{"/healthz", http.StatusOK, "text/plain", "ok\n"},
		{"/report", http.StatusOK, "application/json", `"Services"`},
		{"/series", http.StatusOK, "application/json", "app/svc/latency-mean"},
		{"/series/app/svc/latency-mean", http.StatusOK, "text/csv", "seconds,value\n"},
		{"/series/", http.StatusBadRequest, "", "series name required"},
		{"/series/not/a/series", http.StatusNotFound, "", "unknown series"},
		{"/events", http.StatusOK, "application/json", "pod-scheduled"},
		{"/metrics", http.StatusOK, "text/plain; version=0.0.4", "# TYPE evolve_"},
		{"/metrics", http.StatusOK, "", "evolve_trace_events_total"},
		{"/debug/trace", http.StatusOK, "application/jsonl", `"kind":"control"`},
		{"/debug/trace?kind=sched&verb=bind", http.StatusOK, "application/jsonl", `"verb":"bind"`},
		{"/debug/trace?app=svc&limit=1", http.StatusOK, "application/jsonl", `"app":"svc"`},
		{"/debug/trace?kind=bogus", http.StatusBadRequest, "", "bad kind"},
		{"/debug/trace?kind=bogus", http.StatusBadRequest, "", "fault"},
		{"/debug/trace?from=xyz", http.StatusBadRequest, "", "bad from"},
		{"/debug/trace?limit=-1", http.StatusBadRequest, "", "bad limit"},
		{"/debug/trace?verbs=bind", http.StatusBadRequest, "", "unknown parameter(s): verbs"},
		{"/metrics", http.StatusOK, "", "evolve_trace_spans_total"},
		{"/metrics", http.StatusOK, "", "evolve_latency_time_to_ready_seconds_bucket"},
		{"/metrics", http.StatusOK, "", "evolve_plo_burn_rate"},
		{"/debug/spans", http.StatusOK, "application/jsonl", `"kind":"lifecycle"`},
		{"/debug/spans?kind=pending&app=svc", http.StatusOK, "application/jsonl", `"kind":"pending"`},
		{"/debug/spans?kind=bogus", http.StatusBadRequest, "", "bad kind: want lifecycle"},
		{"/debug/spans?limit=x", http.StatusBadRequest, "", "bad limit"},
		{"/debug/spans?pod=svc-1", http.StatusBadRequest, "", "unknown parameter(s): pod"},
		{"/debug/timeline", http.StatusOK, "text/plain", "timeline"},
		{"/debug/timeline?pod=svc-1", http.StatusOK, "text/plain", "pod svc-1 (app svc)"},
		{"/debug/timeline?pod=nope", http.StatusNotFound, "", "no lifecycle span"},
		{"/debug/timeline?from=xyz", http.StatusBadRequest, "", "bad from"},
		{"/debug/timeline?to=xyz", http.StatusBadRequest, "", "bad to"},
		{"/debug/timeline?kind=pending", http.StatusBadRequest, "", "unknown parameter(s): kind"},
		{"/debug/controllers", http.StatusOK, "application/json", `"trace"`},
	}
	for _, c := range cases {
		code, body, ctype := get(t, srv, c.path)
		if code != c.code {
			t.Errorf("%s: status %d, want %d (body %q)", c.path, code, c.code, body)
			continue
		}
		if c.ctype != "" && !strings.Contains(ctype, c.ctype) {
			t.Errorf("%s: content type %q, want it to contain %q", c.path, ctype, c.ctype)
		}
		if !strings.Contains(body, c.contains) {
			t.Errorf("%s: body does not contain %q:\n%.300s", c.path, c.contains, body)
		}
	}
}

// TestHTTPTraceFilterNarrows checks filters actually subset: a bind-only
// query must return fewer lines than the unfiltered trace, a limit query
// exactly that many.
func TestHTTPTraceFilterNarrows(t *testing.T) {
	srv := newTracedServer(t)
	lines := func(path string) int {
		code, body, _ := get(t, srv, path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", path, code)
		}
		return len(strings.Split(strings.TrimSpace(body), "\n"))
	}
	all := lines("/debug/trace")
	binds := lines("/debug/trace?verb=bind")
	if binds == 0 || binds >= all {
		t.Errorf("bind filter returned %d of %d lines", binds, all)
	}
	if n := lines("/debug/trace?limit=3"); n != 3 {
		t.Errorf("limit=3 returned %d lines", n)
	}
}

func TestHTTPTraceDisabled(t *testing.T) {
	srv := httptest.NewServer(newServedCluster(t).Handler())
	defer srv.Close()
	for _, path := range []string{"/debug/trace", "/debug/spans", "/debug/timeline"} {
		code, body, _ := get(t, srv, path)
		if code != http.StatusNotFound || !strings.Contains(body, "tracing disabled") {
			t.Errorf("disabled %s = %d %q", path, code, body)
		}
	}
	// /metrics and /debug/controllers still work without a tracer.
	if code, _, _ := get(t, srv, "/metrics"); code != http.StatusOK {
		t.Errorf("metrics without tracer = %d", code)
	}
	code, body, _ := get(t, srv, "/debug/controllers")
	if code != http.StatusOK {
		t.Errorf("controllers without tracer = %d", code)
	}
	if !strings.Contains(body, `"app": "svc"`) {
		t.Errorf("controllers body:\n%.300s", body)
	}
}

func TestHTTPSeriesErrors(t *testing.T) {
	srv := httptest.NewServer(newServedCluster(t).Handler())
	defer srv.Close()
	if code, _, _ := get(t, srv, "/series/"); code != http.StatusBadRequest {
		t.Errorf("empty name = %d", code)
	}
	if code, _, _ := get(t, srv, "/series/not/a/series"); code != http.StatusNotFound {
		t.Errorf("unknown series = %d", code)
	}
}
