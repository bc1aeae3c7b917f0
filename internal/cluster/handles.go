package cluster

import (
	"fmt"

	"evolve/internal/metrics"
	"evolve/internal/resource"
)

// Cached metric handles.
//
// The tick used to resolve every series it touches by name — roughly 15
// string concatenations plus registry map lookups per app per tick. The
// handles below are resolved once and then reused, which together with
// the incremental indexes makes the steady-state tick allocation-free.
//
// An app's 17 tick series are the columns of one metrics.Frame, appended
// together: appTelemetry fills the handles' row and calls Frame.Add once
// per tick, so the app's history has one time column, one whole-run
// clock and one compaction. Each column is still a series registered
// under its own name, and a checkpoint saves the frame as one record.
//
// Resolution is lazy (first tick for apps, first tick for the cluster)
// so the set of series and counters a run creates — and therefore every
// snapshot — is exactly what the name-resolving code produced: a series
// exists once the first sample lands, the SLI histogram once the first
// positive SLI lands, the violations counter once the first violation
// lands. Readers look series up without creating them
// (metrics.Registry.Lookup), so reading a report changes none of this.
// After a restore, CkptLoad resolves the frames of the apps whose series
// the checkpoint holds, so a checkpoint whose app series are not one
// frame of exactly these columns fails the restore instead of the next
// tick.

// The columns of an app's tick frame, in row order.
const (
	colLatMean = iota
	colLatP99
	colThroughput
	colOffered
	colReplicas
	colReady
	colSLI
	colViolation
	colBurnRate
	colAlloc                                       // resource.NumKinds columns, one per kind
	colUsage   = colAlloc + int(resource.NumKinds) // likewise
	numAppCols = colUsage + int(resource.NumKinds)
)

// appSeriesNames returns the names of an app's tick series in column
// order.
func appSeriesNames(app string) []string {
	pfx := "app/" + app + "/"
	names := make([]string, numAppCols)
	names[colLatMean] = pfx + "latency-mean"
	names[colLatP99] = pfx + "latency-p99"
	names[colThroughput] = pfx + "throughput"
	names[colOffered] = pfx + "offered"
	names[colReplicas] = pfx + "replicas"
	names[colReady] = pfx + "ready"
	names[colSLI] = pfx + "sli"
	names[colViolation] = pfx + "violation"
	// Burn rate lives under plo/ so the Prometheus mapping labels it
	// evolve_plo_burn_rate{app="…"} next to the violation counters.
	names[colBurnRate] = "plo/" + app + "/burn-rate"
	for _, k := range resource.Kinds() {
		names[colAlloc+int(k)] = pfx + "alloc/" + k.String()
		names[colUsage+int(k)] = pfx + "usage/" + k.String()
	}
	return names
}

// appHandles caches the app's tick frame and the row it appends. It is
// held by value in appState, so the tick reaches the row without a
// pointer chase.
type appHandles struct {
	frame *metrics.Frame // nil until resolved
	row   [numAppCols]float64

	// hist and violations stay nil until first needed; see above.
	hist       *metrics.Histogram
	violations *metrics.Counter
}

// handles resolves (once) and returns the app's cached handles. On a
// live run only this code registers the app's series, and restores
// resolve the frame up front (resolveHandles), so an error here is a
// bug.
func (st *appState) handles(met *metrics.Registry) *appHandles {
	if st.h.frame == nil {
		if err := st.resolveHandles(met); err != nil {
			panic(err)
		}
	}
	return &st.h
}

// resolveHandles resolves the app's frame: the restored one, or a new
// one on the first tick.
func (st *appState) resolveHandles(met *metrics.Registry) error {
	f, err := met.Frame(appSeriesNames(st.obj.Spec.Name)...)
	if err != nil {
		return fmt.Errorf("service %s: %w", st.obj.Spec.Name, err)
	}
	st.h.frame = f
	return nil
}

// histogram resolves (once) the SLI histogram; only called with sli > 0,
// preserving the lazy creation of the by-name code.
func (st *appState) histogram(met *metrics.Registry) *metrics.Histogram {
	if st.h.hist == nil {
		st.h.hist = met.Histogram("app/"+st.obj.Spec.Name+"/sli-hist", 1e-4, 1e3, 10)
	}
	return st.h.hist
}

// violationsCounter resolves (once) the violations counter; only called
// on an actual violation.
func (st *appState) violationsCounter(met *metrics.Registry) *metrics.Counter {
	if st.h.violations == nil {
		st.h.violations = met.Counter("plo/" + st.obj.Spec.Name + "/violations")
	}
	return st.h.violations
}

// clusterHandles caches the cluster-level series the tick writes.
type clusterHandles struct {
	allocated, usage [resource.NumKinds]*metrics.Series
	pods             *metrics.Series
	pending          *metrics.Series
	emptyNodes       *metrics.Series

	// Always-on latency histograms, observed at bind time (never on the
	// steady-state tick): pending→bound wait, created→ready time, and
	// decision-applied→first-bind lag. Lazily resolved on first bind so
	// runs that never bind a pod carry no empty histograms.
	schedLat, readyLat, effectLat *metrics.Histogram
}

// clusterSeries resolves (once) and returns the cluster-level handles.
func (c *Cluster) clusterSeries() *clusterHandles {
	if c.h != nil {
		return c.h
	}
	h := &clusterHandles{
		pods:       c.met.Series("cluster/pods"),
		pending:    c.met.Series("cluster/pending"),
		emptyNodes: c.met.Series("cluster/empty-nodes"),
	}
	for _, k := range resource.Kinds() {
		h.allocated[k] = c.met.Series("cluster/allocated/" + k.String())
		h.usage[k] = c.met.Series("cluster/usage/" + k.String())
	}
	c.h = h
	return h
}

// bindLatency resolves (once) the bind-time latency histograms. Bounds
// cover one sub-tick decimal decade down to hours-scale waits; values
// outside clamp to the end buckets and quantiles clamp to the observed
// max, so the p95 summaries stay honest at both extremes.
func (c *Cluster) bindLatency() *clusterHandles {
	h := c.clusterSeries()
	if h.schedLat == nil {
		h.schedLat = c.met.Histogram("sched/latency", 1, 1e5, 10)
		h.readyLat = c.met.Histogram("sched/time-to-ready", 1, 1e5, 10)
		h.effectLat = c.met.Histogram("control/decision-effect", 1, 1e5, 10)
	}
	return h
}
