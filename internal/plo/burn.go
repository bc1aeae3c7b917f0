package plo

// Error-budget burn accounting, in the SRE sense: an objective with a
// budget fraction b tolerates b of the observed wall (here: virtual)
// time in violation. The burn rate is the ratio of violation-seconds
// consumed to the budget-seconds earned so far — 1.0 means "spending
// the budget exactly as fast as it accrues", anything sustained above
// 1.0 means the objective will be missed over the window. The tracker
// is pure integer/float accumulation of deterministic inputs, so runs
// at any shard count produce bit-identical burn trajectories.

// DefaultErrorBudget is the violation fraction an application may spend
// before its objective is considered missed: 1% of observed time.
const DefaultErrorBudget = 0.01

// BurnTracker accumulates violation-seconds against an error budget.
type BurnTracker struct {
	budget  float64 // allowed violation fraction of observed time
	elapsed float64 // observed seconds
	violSec float64 // seconds spent in violation
}

// NewBurnTracker returns a tracker with the given budget fraction
// (<= 0 means DefaultErrorBudget).
func NewBurnTracker(budget float64) *BurnTracker {
	if budget <= 0 {
		budget = DefaultErrorBudget
	}
	return &BurnTracker{budget: budget}
}

// Budget returns the budget fraction.
func (b *BurnTracker) Budget() float64 { return b.budget }

// Observe accounts one interval of dt seconds, violated or not.
func (b *BurnTracker) Observe(violated bool, dt float64) {
	if dt <= 0 {
		return
	}
	b.elapsed += dt
	if violated {
		b.violSec += dt
	}
}

// ViolationSeconds returns the violation time consumed.
func (b *BurnTracker) ViolationSeconds() float64 { return b.violSec }

// ObservedSeconds returns the total time accounted.
func (b *BurnTracker) ObservedSeconds() float64 { return b.elapsed }

// BudgetSeconds returns the budget earned so far (budget × observed).
func (b *BurnTracker) BudgetSeconds() float64 { return b.budget * b.elapsed }

// BurnRate returns violation-seconds consumed per budget-second earned
// (0 before any time is observed). 1.0 is the sustainable ceiling.
func (b *BurnTracker) BurnRate() float64 {
	bs := b.BudgetSeconds()
	if bs <= 0 {
		return 0
	}
	return b.violSec / bs
}

// BudgetRemaining returns the unspent budget fraction: 1 at a clean
// slate, 0 when exactly exhausted, negative once overspent.
func (b *BurnTracker) BudgetRemaining() float64 {
	bs := b.BudgetSeconds()
	if bs <= 0 {
		return 1
	}
	return 1 - b.violSec/bs
}

// Burn returns the tracker's burn accounting, which the first ObserveFor
// creates (with DefaultErrorBudget) so existing Tracker constructions
// get burn accounting without a signature change. Before that it returns
// a fresh one the tracker does not keep: reading the burn rate changes
// nothing a checkpoint holds.
func (t *Tracker) Burn() *BurnTracker {
	if t.burn == nil {
		return NewBurnTracker(0)
	}
	return t.burn
}

// ObserveFor is Observe plus burn accounting: the sample is taken to
// represent dt seconds of service time. Returns whether it violated.
func (t *Tracker) ObserveFor(measured, dt float64) bool {
	v := t.Observe(measured)
	if t.burn == nil {
		t.burn = NewBurnTracker(0)
	}
	t.burn.Observe(v, dt)
	return v
}
