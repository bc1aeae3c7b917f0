package control

import (
	"fmt"
	"math"
	"strconv"

	"evolve/internal/ckpt"
	"evolve/internal/resource"
)

// ReasonCode names the stage that drove a decision. The zero code means
// the decision carries no reason: nothing is explained and nothing is
// journaled.
type ReasonCode uint8

// The EVOLVE autoscaler's stages, in the precedence its explanation
// checks them.
const (
	ReasonNone ReasonCode = iota
	// ReasonScaleOut: N = (replicas before, after), X = (PLO error).
	ReasonScaleOut
	// ReasonScaleIn: N = (replicas before, after), X = (offered op/s).
	ReasonScaleIn
	// ReasonFloor: N = (floored dimensions), X = (offered op/s, PLO error).
	ReasonFloor
	// ReasonGrow: Kind grew most, X = (growth in percent, PLO error,
	// utilisation of Kind).
	ReasonGrow
	// ReasonSteady: X = (PLO error, utilisation setpoint).
	ReasonSteady
	// ReasonHold: X = (PLO error).
	ReasonHold
	numReasonCodes
)

// reasonSpec is what a code's text reads of a Reason: how many of N,
// whether Kind, and the printed precision of each float in X.
type reasonSpec struct {
	stage string
	ints  int
	kind  bool
	prec  []int
}

var reasonSpecs = [numReasonCodes]reasonSpec{
	ReasonScaleOut: {stage: "scale-out", ints: 2, prec: []int{2}},
	ReasonScaleIn:  {stage: "scale-in", ints: 2, prec: []int{0}},
	ReasonFloor:    {stage: "floor", ints: 1, prec: []int{0, 2}},
	ReasonGrow:     {stage: "grow", kind: true, prec: []int{0, 2, 2}},
	ReasonSteady:   {stage: "steady", prec: []int{2, 2}},
	ReasonHold:     {stage: "hold", prec: []int{2}},
}

// String returns the stage name the decision trace records ("" for
// ReasonNone).
func (c ReasonCode) String() string {
	if c >= numReasonCodes {
		return "reason(" + strconv.Itoa(int(c)) + ")"
	}
	return reasonSpecs[c].stage
}

// Reason is a controller's typed account of one decision: the stage
// code plus the numbers its one-line text is rendered from. It travels
// with the Decision, so deciding and journaling never format text;
// String renders it when someone reads it. Fields a code does not use
// are ignored.
type Reason struct {
	Code ReasonCode
	Kind resource.Kind
	N    [2]int
	X    [3]float64
}

// String renders the reason's one-line text ("" for ReasonNone).
func (r Reason) String() string {
	x := r.X
	switch r.Code {
	case ReasonNone:
		return ""
	case ReasonScaleOut:
		return fmt.Sprintf("scale out %d→%d: PLO err %+.2f with per-replica ceiling saturated", r.N[0], r.N[1], x[0])
	case ReasonScaleIn:
		return fmt.Sprintf("scale in %d→%d: model says %d replicas suffice at %.0f op/s", r.N[0], r.N[1], r.N[1], x[0])
	case ReasonFloor:
		return fmt.Sprintf("feedforward floor raised %d dim(s) for %.0f op/s (PLO err %+.2f)", r.N[0], x[0], x[1])
	case ReasonGrow:
		return fmt.Sprintf("grew %s %.0f%%: PLO err %+.2f, util %.2f", r.Kind, x[0], x[1], x[2])
	case ReasonSteady:
		return fmt.Sprintf("steady: PLO met (err %+.2f), regulating utilisation at %.2f", x[0], x[1])
	case ReasonHold:
		return fmt.Sprintf("holding: PLO err %+.2f within deadband", x[0])
	}
	return r.Code.String()
}

// SameText reports whether r and o render to the same text, without
// rendering either. Different codes, ints or kinds always print
// differently; a float that moved by more than its printed quantum
// (0.01 at two decimals, 1 at none) does too, because rounding moves
// each value by at most half a quantum. Only a float that moved less is
// settled by printing both into stack buffers with the template's
// precision — the template's sign flag is a function of those digits, so
// it cannot tell them apart — which also covers NaN and -0 against +0.
func (r Reason) SameText(o Reason) bool {
	if r.Code != o.Code {
		return false
	}
	spec := &reasonSpecs[r.Code]
	for i := 0; i < spec.ints; i++ {
		if r.N[i] != o.N[i] {
			return false
		}
	}
	if spec.kind && r.Kind != o.Kind {
		return false
	}
	for i, prec := range spec.prec {
		if !sameFloatText(r.X[i], o.X[i], prec) {
			return false
		}
	}
	return true
}

// quantum is the printed step of a %.Nf verb, indexed by N.
var quantum = [...]float64{1, 0.1, 0.01}

// sameFloatText reports whether a and b print the same with
// strconv.AppendFloat(_, _, 'f', prec, 64).
func sameFloatText(a, b float64, prec int) bool {
	if math.Float64bits(a) == math.Float64bits(b) {
		return true
	}
	if math.Abs(a-b) > quantum[prec] {
		return false
	}
	var ba, bb [64]byte
	return string(strconv.AppendFloat(ba[:0], a, 'f', prec, 64)) == string(strconv.AppendFloat(bb[:0], b, 'f', prec, 64))
}

// CkptSave writes the reason: the code, then the fields it uses.
func (r Reason) CkptSave(w ckpt.Encoder) {
	w.U8(uint8(r.Code))
	spec := &reasonSpecs[r.Code]
	for i := 0; i < spec.ints; i++ {
		w.Int(r.N[i])
	}
	if spec.kind {
		w.Int(int(r.Kind))
	}
	for i := range spec.prec {
		w.F64(r.X[i])
	}
}

// LoadReason reads a reason written by CkptSave; an unknown code or
// kind is an error.
func LoadReason(r *ckpt.Reader) (Reason, error) {
	var x Reason
	x.Code = ReasonCode(r.U8())
	if r.Err() != nil || x.Code == ReasonNone {
		return x, r.Err()
	}
	if x.Code >= numReasonCodes {
		return Reason{}, fmt.Errorf("control: ckpt: reason code %d out of range", x.Code)
	}
	spec := &reasonSpecs[x.Code]
	for i := 0; i < spec.ints; i++ {
		x.N[i] = r.Int()
	}
	if spec.kind {
		x.Kind = resource.Kind(r.Int())
		if r.Err() == nil && (x.Kind < 0 || x.Kind >= resource.NumKinds) {
			return Reason{}, fmt.Errorf("control: ckpt: reason kind %d out of range", x.Kind)
		}
	}
	for i := range spec.prec {
		x.X[i] = r.F64()
	}
	return x, r.Err()
}

// HealthCode names the Hardened wrapper's stance after a Decide.
type HealthCode uint8

const (
	// HealthSighted: telemetry is usable; the stance has no text.
	HealthSighted HealthCode = iota
	// HealthRecovered: the first sighted period after Blind blind ones.
	HealthRecovered
	// HealthBlind: Blind consecutive blind periods, within Budget.
	HealthBlind
	// HealthDegraded: Blind consecutive blind periods, past Budget.
	HealthDegraded
	numHealthCodes
)

// Health is the Hardened wrapper's typed stance; String renders the
// one-line status its journal line and debug view read.
type Health struct {
	Code   HealthCode
	Blind  int
	Budget int
}

// String renders the status ("" while sighted).
func (h Health) String() string {
	switch h.Code {
	case HealthRecovered:
		return fmt.Sprintf("recovered: telemetry restored after %d blind period(s)", h.Blind)
	case HealthBlind:
		return fmt.Sprintf("blind for %d period(s) (budget %d): integral frozen, holding", h.Blind, h.Budget)
	case HealthDegraded:
		return fmt.Sprintf("degraded: blind for %d periods (budget %d), holding last safe allocation", h.Blind, h.Budget)
	}
	return ""
}

// CkptSave writes the stance.
func (h Health) CkptSave(w ckpt.Encoder) {
	w.U8(uint8(h.Code))
	w.Int(h.Blind)
	w.Int(h.Budget)
}

// LoadHealth reads a stance written by CkptSave.
func LoadHealth(r *ckpt.Reader) (Health, error) {
	h := Health{Code: HealthCode(r.U8()), Blind: r.Int(), Budget: r.Int()}
	if r.Err() == nil && h.Code >= numHealthCodes {
		return Health{}, fmt.Errorf("control: ckpt: health code %d out of range", h.Code)
	}
	return h, r.Err()
}
