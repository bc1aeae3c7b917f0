package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"evolve/internal/metrics"
	"evolve/internal/resource"
)

// Prometheus text exposition (format version 0.0.4) of a metrics
// registry. The internal naming scheme maps onto metric families plus
// labels so dashboards aggregate naturally:
//
//	app/web/latency-mean      → evolve_app_latency_mean{app="web"}
//	app/web/alloc/cpu         → evolve_app_alloc{app="web",resource="cpu"}
//	cluster/usage/memory      → evolve_cluster_usage{resource="memory"}
//	plo/web/violations        → evolve_plo_violations_total{app="web"}
//	evictions/preempted       → evolve_evictions_total{reason="preempted"}
//	app/web/sli-hist          → evolve_app_sli_hist_bucket{app="web",le="…"}
//
// Series expose their most recent sample as a gauge; counters gain the
// conventional _total suffix; histograms expose cumulative buckets, sum
// and count. Families and label sets are emitted sorted, so the output
// is deterministic and diffable.

// Meter is one unlabelled sample kept outside the registry, such as a
// checkpoint count. A Name ending in _total is exposed as a counter,
// any other as a gauge.
type Meter struct {
	Name  string
	Value uint64
}

// WriteMetrics writes the registry, the tracer's own meters when tr is
// enabled, and any extra meters in Prometheus text format.
func WriteMetrics(w io.Writer, reg *metrics.Registry, tr *Tracer, extra ...Meter) error {
	fams := map[string]*promFamily{}
	add := func(name, typ string, sample string) {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{typ: typ}
			fams[name] = f
		}
		f.samples = append(f.samples, sample)
	}

	for _, name := range reg.SeriesNames() {
		s := reg.Lookup(name)
		last, ok := s.Last()
		if !ok {
			continue
		}
		fam, labels := promName(name)
		add(fam, "gauge", fam+labels+" "+formatValue(last.Value))
	}
	for _, name := range reg.CounterNames() {
		fam, labels := promName(name)
		fam += "_total"
		add(fam, "counter", fam+labels+" "+strconv.FormatUint(reg.Counter(name).Value(), 10))
	}
	for _, name := range reg.HistogramNames() {
		h, ok := reg.GetHistogram(name)
		if !ok {
			continue
		}
		fam, labels := promName(name)
		h.Buckets(func(le float64, cum uint64) {
			add(fam, "histogram", fam+"_bucket"+mergeLabels(labels, `le="`+formatValue(le)+`"`)+" "+strconv.FormatUint(cum, 10))
		})
		add(fam, "histogram", fam+"_bucket"+mergeLabels(labels, `le="+Inf"`)+" "+strconv.FormatUint(h.Count(), 10))
		add(fam, "histogram", fam+"_sum"+labels+" "+formatValue(h.Sum()))
		add(fam, "histogram", fam+"_count"+labels+" "+strconv.FormatUint(h.Count(), 10))
	}
	if tr.Enabled() {
		add("evolve_trace_events_total", "counter",
			"evolve_trace_events_total "+strconv.FormatUint(tr.Events(), 10))
		add("evolve_trace_dropped_total", "counter",
			"evolve_trace_dropped_total "+strconv.FormatUint(tr.Dropped(), 10))
		add("evolve_trace_spans_total", "counter",
			"evolve_trace_spans_total "+strconv.FormatUint(tr.Spans(), 10))
		add("evolve_trace_span_dropped_total", "counter",
			"evolve_trace_span_dropped_total "+strconv.FormatUint(tr.SpansDropped(), 10))
		// Sink health: silent trace loss as a scrapeable gauge (1 = the
		// JSONL tee latched an error and stopped writing).
		add("evolve_trace_sink_error", "gauge",
			"evolve_trace_sink_error "+boolGauge(tr.SinkErr() != nil))
		add("evolve_trace_span_sink_error", "gauge",
			"evolve_trace_span_sink_error "+boolGauge(tr.SpanSinkErr() != nil))
		// The encoded bytes each ring holds: what the next checkpoint's
		// tracer section copies.
		events, spans := tr.RingBytes()
		add("evolve_trace_ring_bytes", "gauge", `evolve_trace_ring_bytes{ring="events"} `+strconv.Itoa(events))
		add("evolve_trace_ring_bytes", "gauge", `evolve_trace_ring_bytes{ring="spans"} `+strconv.Itoa(spans))
		// Tracer-owned latency histograms, with the worst span's ID as an
		// exemplar gauge (the 0.0.4 text format has no exemplar syntax).
		for _, h := range tr.LatencySnapshot() {
			fam := "evolve_latency_" + mangle(h.Name) + "_seconds"
			var cum uint64
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				add(fam, "histogram", fam+`_bucket{le="`+formatValue(bound)+`"} `+strconv.FormatUint(cum, 10))
			}
			add(fam, "histogram", fam+`_bucket{le="+Inf"} `+strconv.FormatUint(h.Count, 10))
			add(fam, "histogram", fam+"_sum "+formatValue(h.Sum))
			add(fam, "histogram", fam+"_count "+strconv.FormatUint(h.Count, 10))
			add(fam+"_max", "gauge", fam+"_max "+formatValue(h.Max))
			if h.Exemplar != 0 {
				add(fam+"_worst_span", "gauge", fam+"_worst_span "+strconv.FormatUint(h.Exemplar, 10))
			}
		}
	}

	for _, m := range extra {
		typ := "gauge"
		if strings.HasSuffix(m.Name, "_total") {
			typ = "counter"
		}
		add(m.Name, typ, m.Name+" "+strconv.FormatUint(m.Value, 10))
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, f.typ); err != nil {
			return err
		}
		// Histogram sample order (buckets ascending, then sum/count) is
		// already canonical; other families sort their label sets.
		if f.typ != "histogram" {
			sort.Strings(f.samples)
		}
		for _, s := range f.samples {
			if _, err := io.WriteString(w, s+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

type promFamily struct {
	typ     string
	samples []string
}

// promName maps an internal metric name onto (family, label-block). The
// label block is "" or "{k=\"v\",…}".
func promName(name string) (string, string) {
	segs := strings.Split(name, "/")
	var labels []string
	if len(segs) >= 3 && (segs[0] == "app" || segs[0] == "plo") {
		labels = append(labels, `app="`+escapeLabel(segs[1])+`"`)
		segs = append(segs[:1], segs[2:]...)
	}
	if len(segs) == 2 && segs[0] == "evictions" {
		labels = append(labels, `reason="`+escapeLabel(segs[1])+`"`)
		segs = segs[:1]
	}
	if len(segs) > 1 {
		if _, err := resource.ParseKind(segs[len(segs)-1]); err == nil {
			labels = append(labels, `resource="`+escapeLabel(segs[len(segs)-1])+`"`)
			segs = segs[:len(segs)-1]
		}
	}
	fam := "evolve_" + mangle(strings.Join(segs, "_"))
	if len(labels) == 0 {
		return fam, ""
	}
	sort.Strings(labels)
	return fam, "{" + strings.Join(labels, ",") + "}"
}

// mergeLabels inserts an extra label into an existing label block.
func mergeLabels(block, extra string) string {
	if block == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(block, "}") + "," + extra + "}"
}

// mangle rewrites a name into the Prometheus identifier charset
// [a-zA-Z0-9_].
func mangle(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a float sample value; NaN and ±Inf are legal in
// the exposition format and strconv renders them canonically.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// boolGauge renders a boolean as a 0/1 gauge value.
func boolGauge(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
