package evolve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"evolve/internal/obs"
)

// Handler returns an http.Handler exposing the cluster's state — the
// observability surface an operator points a dashboard at:
//
//	GET /healthz            liveness probe
//	GET /report             the Report as JSON
//	GET /series             recorded telemetry series names as JSON
//	GET /series/<name>      one series' retained window (Options.History)
//	                        as seconds,value CSV
//	GET /events             the operational journal as JSON
//	GET /metrics            telemetry in Prometheus text format (0.0.4)
//	GET /debug/trace        decision-trace events as JSONL; filter with
//	                        ?app= &kind= &verb= &from=10m &to=1h &limit=100
//	                        (404 until EnableTracing is called)
//	GET /debug/spans        causal spans as JSONL; filter with ?app=
//	                        &object= &kind= &from=10m &to=1h &limit=100
//	                        (404 until EnableTracing is called)
//	GET /debug/timeline     text timeline of recorded spans; ?from= &to=
//	                        bound the window, ?pod=<name> explains one
//	                        pod's path to readiness instead
//	GET /debug/controllers  per-app controller state as JSON: policy,
//	                        rationale, last decision, PID decomposition
//	GET /debug/pprof/       net/http/pprof profiling endpoints; mounted
//	                        only when Options.DebugPprof is set (or
//	                        evolve-sim -pprof), 404 otherwise
//
// Unknown or malformed query parameters on the /debug routes return 400
// with a usage message rather than an empty 200.
//
// The handler reads the simulation's state; serve it between Run calls
// (the Cluster is not safe for concurrent mutation while serving).
func (cl *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := w.Write([]byte("ok\n")); err != nil {
			return
		}
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cl.Report()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/series", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(cl.SeriesNames()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(cl.Events()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/series/", func(w http.ResponseWriter, r *http.Request) {
		name := strings.TrimPrefix(r.URL.Path, "/series/")
		if name == "" {
			http.Error(w, "series name required", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		if err := cl.WriteSeriesCSV(name, w); err != nil {
			// An unknown name is the client's mistake; anything else is a
			// write or encoding failure on our side.
			if errors.Is(err, ErrUnknownSeries) {
				http.Error(w, err.Error(), http.StatusNotFound)
			} else {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := cl.WriteMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if !cl.tracer.Enabled() {
			http.Error(w, "tracing disabled (call EnableTracing or pass -trace)", http.StatusNotFound)
			return
		}
		f, err := traceFilter(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		if err := obs.WriteJSONL(w, cl.tracer.Snapshot(f)); err != nil {
			return // client went away mid-stream; headers already sent
		}
	})
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
		if !cl.tracer.Enabled() {
			http.Error(w, "tracing disabled (call EnableTracing or pass -trace)", http.StatusNotFound)
			return
		}
		f, err := spanFilter(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		if err := obs.WriteSpansJSONL(w, cl.tracer.SpanSnapshot(f)); err != nil {
			return // client went away mid-stream; headers already sent
		}
	})
	mux.HandleFunc("/debug/timeline", func(w http.ResponseWriter, r *http.Request) {
		if !cl.tracer.Enabled() {
			http.Error(w, "tracing disabled (call EnableTracing or pass -trace)", http.StatusNotFound)
			return
		}
		q := r.URL.Query()
		if err := checkParams(q, "pod", "from", "to"); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		from, to, _, err := windowParams(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spans := cl.tracer.SpanSnapshot(obs.SpanFilter{})
		if pod := q.Get("pod"); pod != "" {
			if obs.PodChain(spans, pod) == nil {
				http.Error(w, "no lifecycle span for pod "+pod+" (never bound, or rotated out of the ring)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = obs.ExplainPodReady(w, spans, pod)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = obs.WriteTimeline(w, spans, from, to)
	})
	mux.HandleFunc("/debug/controllers", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cl.ControllerStates()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if cl.opts.DebugPprof {
		// Mount the pprof handlers explicitly instead of importing the
		// package for its DefaultServeMux side effect: the endpoints stay
		// off this mux — and off any process embedding the library —
		// unless the option asks for them.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// EnablePprof opts subsequently built Handlers into the net/http/pprof
// mounts (the same switch as Options.DebugPprof, for callers — like
// `evolve-sim -pprof -config` — that build the cluster from a source
// without the option).
func (cl *Cluster) EnablePprof() { cl.opts.DebugPprof = true }

// traceFilter parses /debug/trace query parameters into an obs.Filter.
func traceFilter(r *http.Request) (obs.Filter, error) {
	q := r.URL.Query()
	if err := checkParams(q, "app", "verb", "kind", "from", "to", "limit"); err != nil {
		return obs.Filter{}, err
	}
	f := obs.Filter{App: q.Get("app"), Verb: q.Get("verb")}
	if k := q.Get("kind"); k != "" {
		if _, ok := obs.ParseEventKind(k); !ok {
			return f, errors.New("bad kind: want " + strings.Join(obs.EventKindNames(), ", "))
		}
		f.Kind = k
	}
	var err error
	if f.From, f.To, f.Lim, err = windowParams(q); err != nil {
		return f, err
	}
	return f, nil
}

// spanFilter parses /debug/spans query parameters into an obs.SpanFilter.
func spanFilter(r *http.Request) (obs.SpanFilter, error) {
	q := r.URL.Query()
	if err := checkParams(q, "app", "object", "kind", "from", "to", "limit"); err != nil {
		return obs.SpanFilter{}, err
	}
	f := obs.SpanFilter{App: q.Get("app"), Object: q.Get("object")}
	if k := q.Get("kind"); k != "" {
		if _, ok := obs.ParseSpanKind(k); !ok {
			return f, errors.New("bad kind: want " + strings.Join(obs.SpanKindNames(), ", "))
		}
		f.Kind = k
	}
	var err error
	if f.From, f.To, f.Lim, err = windowParams(q); err != nil {
		return f, err
	}
	return f, nil
}

// windowParams parses the shared from/to/limit filter parameters.
func windowParams(q url.Values) (from, to time.Duration, lim int, err error) {
	if v := q.Get("from"); v != "" {
		if from, err = time.ParseDuration(v); err != nil {
			return from, to, lim, errors.New("bad from: " + err.Error())
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = time.ParseDuration(v); err != nil {
			return from, to, lim, errors.New("bad to: " + err.Error())
		}
	}
	if v := q.Get("limit"); v != "" {
		n, aerr := strconv.Atoi(v)
		if aerr != nil || n < 0 {
			return from, to, lim, errors.New("bad limit: want a non-negative integer")
		}
		lim = n
	}
	return from, to, lim, nil
}

// checkParams rejects query parameters outside the allowed set, so a
// typo ("?verbs=bind") fails with a usage message instead of silently
// matching everything.
func checkParams(q url.Values, allowed ...string) error {
	var unknown []string
	for k := range q {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return errors.New("unknown parameter(s): " + strings.Join(unknown, ", ") +
		" (want " + strings.Join(allowed, ", ") + ")")
}
