package harness

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"evolve/internal/obs"
)

// Runner executes (scenario, policy) simulations through a bounded worker
// pool with a content-addressed run cache. Independent runs fan out
// across up to Workers goroutines; runs with equal fingerprints execute
// exactly once and every other requester — concurrent or later — receives
// the same *Result. Results must therefore be treated as immutable by
// callers, which they already are: tables and figures only read them.
//
// Determinism: each run builds its own sim.Engine from the scenario
// seed and shares no mutable state with other runs, so parallel results
// are byte-identical to serial ones (TestRunnerDeterminism enforces
// this). The cache is safe even at Workers == 1, where it removes the
// duplicate (scenario, policy) simulations the evaluation suite shares
// between tables and figures.
type Runner struct {
	workers  int
	sem      chan struct{}
	traceDir string

	mu    sync.Mutex
	cache map[string]*runEntry
	stats RunnerStats
}

// RunnerStats counts what the runner actually did.
type RunnerStats struct {
	// Runs is the number of simulations executed.
	Runs uint64
	// CacheHits is the number of requests served from a prior or
	// in-flight identical run without simulating.
	CacheHits uint64
	// Uncacheable is the number of runs whose scenario could not be
	// fingerprinted (or carried hooks) and executed outside the cache.
	Uncacheable uint64
}

// RunJob is one unit of work for RunMany. Jobs with hooks bypass the
// cache: hooks are arbitrary functions and have no canonical encoding.
type RunJob struct {
	Scenario Scenario
	Policy   Policy
	Hooks    []Hook
}

// NewRunner returns a runner executing at most workers simulations at
// once; workers <= 0 means GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		workers: workers,
		sem:     make(chan struct{}, workers),
		cache:   make(map[string]*runEntry),
	}
}

// Workers returns the concurrency bound.
func (r *Runner) Workers() int { return r.workers }

// SetTraceDir makes every subsequent simulation record its decision
// trace to <dir>/<scenario>__<policy>.jsonl. The directory must exist.
// Cached results do not re-run, so only cache-miss runs produce traces;
// call this before the first Run to capture everything.
func (r *Runner) SetTraceDir(dir string) { r.traceDir = dir }

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

type runEntry struct {
	done chan struct{}
	res  *Result
	err  error
}

// Run executes the scenario under the policy, deduplicating against any
// identical run this runner has seen. Errors are memoised like results:
// a failing configuration fails every requester identically.
func (r *Runner) Run(sc Scenario, pol Policy) (*Result, error) {
	key, err := ScenarioFingerprint(sc, pol)
	if err != nil {
		r.mu.Lock()
		r.stats.Uncacheable++
		r.mu.Unlock()
		return r.execute(sc, pol, nil)
	}
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.stats.CacheHits++
		r.mu.Unlock()
		<-e.done
		return e.res, e.err
	}
	e := &runEntry{done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()
	e.res, e.err = r.execute(sc, pol, nil)
	close(e.done)
	return e.res, e.err
}

// RunWithHooks executes an injection run through the worker pool. Hook
// functions cannot be fingerprinted, so these runs never touch the cache.
func (r *Runner) RunWithHooks(sc Scenario, pol Policy, hooks []Hook) (*Result, error) {
	r.mu.Lock()
	r.stats.Uncacheable++
	r.mu.Unlock()
	return r.execute(sc, pol, hooks)
}

func (r *Runner) execute(sc Scenario, pol Policy, hooks []Hook) (*Result, error) {
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	r.mu.Lock()
	r.stats.Runs++
	r.mu.Unlock()
	if r.traceDir == "" {
		return runScenario(sc, pol, hooks, nil)
	}
	path := filepath.Join(r.traceDir, sanitise(sc.Name)+"__"+sanitise(pol.Name)+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("harness: trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	tr := obs.New(obs.DefaultCapacity)
	tr.SetSink(w)
	res, runErr := runScenario(sc, pol, hooks, tr)
	if err := w.Flush(); err == nil {
		err = f.Close()
		if runErr == nil && err != nil {
			runErr = fmt.Errorf("harness: trace file: %w", err)
		}
	} else {
		_ = f.Close()
		if runErr == nil {
			runErr = fmt.Errorf("harness: trace file: %w", err)
		}
	}
	if runErr == nil && tr.SinkErr() != nil {
		runErr = fmt.Errorf("harness: trace sink: %w", tr.SinkErr())
	}
	return res, runErr
}

// sanitise maps a scenario/policy name onto a filesystem-safe token.
func sanitise(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			return r
		default:
			return '-'
		}
	}, name)
}

// RunMany fans the jobs out across the pool and returns their results in
// job order. All jobs run to completion even when some fail; the first
// error in job order is returned alongside the partial results, with
// failed entries left nil.
func (r *Runner) RunMany(jobs []RunJob) ([]*Result, error) {
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := jobs[i]
			if len(j.Hooks) > 0 {
				results[i], errs[i] = r.RunWithHooks(j.Scenario, j.Policy, j.Hooks)
			} else {
				results[i], errs[i] = r.Run(j.Scenario, j.Policy)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("%s/%s: %w", jobs[i].Scenario.Name, jobs[i].Policy.Name, err)
		}
	}
	return results, nil
}

// ensureRunner substitutes a serial private runner when a table or
// figure is invoked without one; the cache still collapses duplicates
// within that single table or figure.
func ensureRunner(r *Runner) *Runner {
	if r != nil {
		return r
	}
	return NewRunner(1)
}
