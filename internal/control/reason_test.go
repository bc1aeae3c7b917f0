package control

import (
	"math"
	"strings"
	"testing"

	"evolve/internal/ckpt"
	"evolve/internal/resource"
)

// sameTextOracle is what SameText stands in for: render both reasons
// and compare the strings.
func sameTextOracle(a, b Reason) bool { return a.String() == b.String() }

// reasonVariants derives the reasons FuzzRationaleSameText compares
// against a: each float replaced by y, moved one ulp either way,
// negated, or set to the half-quantum tie next to y at its template's
// precision; a code, a count or the kind changed.
func reasonVariants(a Reason, y float64) []Reason {
	out := []Reason{a}
	add := func(f func(*Reason)) {
		b := a
		f(&b)
		out = append(out, b)
	}
	for i := range a.X {
		add(func(b *Reason) { b.X[i] = y })
		add(func(b *Reason) { b.X[i] = math.Nextafter(b.X[i], math.Inf(1)) })
		add(func(b *Reason) { b.X[i] = math.Nextafter(b.X[i], math.Inf(-1)) })
		add(func(b *Reason) { b.X[i] = -b.X[i] })
		for _, q := range quantum {
			add(func(b *Reason) { b.X[i] = math.Round(y/q)*q + q/2 })
		}
	}
	add(func(b *Reason) { b.Code = (b.Code + 1) % numReasonCodes })
	add(func(b *Reason) { b.N[0]++ })
	add(func(b *Reason) { b.N[1]-- })
	add(func(b *Reason) { b.Kind = (b.Kind + 1) % resource.NumKinds })
	return out
}

// FuzzRationaleSameText: for random reasons and adversarial neighbours
// of them — ties at .xx5, values one ulp apart, NaN, ±Inf and ±0 — the
// typed comparison agrees with comparing the rendered text, both ways
// round, and a reason survives its checkpoint encoding with its text.
func FuzzRationaleSameText(f *testing.F) {
	negZero := math.Copysign(0, -1)
	seeds := []float64{
		0, negZero, 0.005, -0.005, 0.015, 0.125, 1.005, 2.675, 99.995, 0.5, 1.5, 2.5, -0.4999999999999999,
		math.NaN(), math.Inf(1), math.Inf(-1), 1e15 + 0.5, 4503599627370495.5, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for i, x := range seeds {
		f.Add(uint8(i), uint8(i), int64(i), int64(-i), x, negZero, x*100, seeds[(i+1)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, code, kind uint8, n0, n1 int64, x0, x1, x2, y float64) {
		a := Reason{
			Code: ReasonCode(code % uint8(numReasonCodes)),
			Kind: resource.Kind(kind % uint8(resource.NumKinds)),
			N:    [2]int{int(n0), int(n1)},
			X:    [3]float64{x0, x1, x2},
		}
		for _, b := range reasonVariants(a, y) {
			for _, p := range [][2]Reason{{a, b}, {b, a}} {
				if got, want := p[0].SameText(p[1]), sameTextOracle(p[0], p[1]); got != want {
					t.Fatalf("SameText(%+v, %+v) = %v, rendered texts %q and %q", p[0], p[1], got, p[0], p[1])
				}
			}
		}
		var w ckpt.Appender
		a.CkptSave(&w)
		r := ckpt.NewRawReader(w.Buf)
		back, err := LoadReason(r)
		if err != nil || len(r.Rest()) != 0 {
			t.Fatalf("reason %+v: load = %v, %d bytes left", a, err, len(r.Rest()))
		}
		if !a.SameText(back) || a.String() != back.String() {
			t.Fatalf("reason %+v came back as %+v", a, back)
		}
	})
}

// TestReasonTemplates: each code renders its template, and the stage
// name is what the decision trace records.
func TestReasonTemplates(t *testing.T) {
	for _, c := range []struct {
		r          Reason
		stage, txt string
	}{
		{Reason{}, "", ""},
		{Reason{Code: ReasonScaleOut, N: [2]int{2, 4}, X: [3]float64{0.314}}, "scale-out", "scale out 2→4: PLO err +0.31 with per-replica ceiling saturated"},
		{Reason{Code: ReasonScaleIn, N: [2]int{4, 3}, X: [3]float64{612.5}}, "scale-in", "scale in 4→3: model says 3 replicas suffice at 612 op/s"},
		{Reason{Code: ReasonFloor, N: [2]int{2}, X: [3]float64{99.5, -0.004}}, "floor", "feedforward floor raised 2 dim(s) for 100 op/s (PLO err -0.00)"},
		{Reason{Code: ReasonGrow, Kind: resource.Memory, X: [3]float64{12.5, 0.2, 0.876}}, "grow", "grew memory 12%: PLO err +0.20, util 0.88"},
		{Reason{Code: ReasonSteady, X: [3]float64{-0.5, 0.7}}, "steady", "steady: PLO met (err -0.50), regulating utilisation at 0.70"},
		{Reason{Code: ReasonHold, X: [3]float64{math.NaN()}}, "hold", "holding: PLO err +NaN within deadband"},
	} {
		if got := c.r.Code.String(); got != c.stage {
			t.Errorf("%+v: stage %q, want %q", c.r, got, c.stage)
		}
		if got := c.r.String(); got != c.txt {
			t.Errorf("%+v: text %q, want %q", c.r, got, c.txt)
		}
	}
}

// TestLoadReasonRefusesBadCodes: an unknown code or kind is an error,
// not a reason.
func TestLoadReasonRefusesBadCodes(t *testing.T) {
	for _, c := range []struct {
		r    Reason
		want string
	}{
		{Reason{Code: numReasonCodes}, "reason code"},
		{Reason{Code: ReasonGrow, Kind: resource.NumKinds}, "reason kind"},
	} {
		var w ckpt.Appender
		w.U8(uint8(c.r.Code))
		if c.r.Code == ReasonGrow {
			w.Int(int(c.r.Kind))
			for range 3 {
				w.F64(0)
			}
		}
		if _, err := LoadReason(ckpt.NewRawReader(w.Buf)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: LoadReason = %v, want an error mentioning %q", c.r, err, c.want)
		}
	}
}
