package evolve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/obs"
)

// fuzzRun is how long FuzzRestore's source world runs before its
// checkpoint: long enough that both 256-record tracer rings have
// wrapped, so mutations reach rotated rings.
const fuzzRun = 90 * time.Minute

// fuzzWorld is FuzzRestore's world: 2 nodes, one service, tracing on.
func fuzzWorld(t testing.TB) *Cluster {
	t.Helper()
	c, err := New(Options{Seed: 4, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{Name: "web", Archetype: "web", BaseRate: 200}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("web", Noisy(Diurnal(100, 400, time.Hour), 0.1, 3)); err != nil {
		t.Fatal(err)
	}
	c.EnableTracing(256)
	return c
}

// FuzzRestore mutates a valid checkpoint of a world whose tracer rings
// have wrapped — overwrite patch bytes at an offset, then cut bytes off
// the end — and restores it into a fresh world. Without resealing, the checksum must refuse every mutation and
// leave the world fresh. With the trailer recomputed, the mutation reaches
// the section decoders, which must return an error or a consistent world,
// never panic or over-allocate. A world restored without error must
// report and run: one more simulated minute may fail with an error,
// never a panic.
func FuzzRestore(f *testing.F) {
	src := fuzzWorld(f)
	if err := src.Run(fuzzRun); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	base := buf.Bytes()
	for _, reseal := range []bool{false, true} {
		f.Add(uint32(0), []byte{0}, uint32(0), reseal)
		f.Add(uint32(9), []byte{0xff, 0xff, 0xff, 0x7f}, uint32(0), reseal)
		f.Add(uint32(len(base)/2), []byte{1}, uint32(0), reseal)
		f.Add(uint32(len(base)/3), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint32(0), reseal)
		f.Add(uint32(0), []byte{}, uint32(len(base)/2), reseal)
	}
	f.Fuzz(func(t *testing.T, off uint32, patch []byte, cut uint32, reseal bool) {
		b := bytes.Clone(base)
		at := int(off % uint32(len(b)))
		copy(b[at:], patch)
		b = b[:len(b)-int(cut%uint32(len(b)))]
		if reseal {
			ckpt.Seal(b)
		}
		if bytes.Equal(b, base) {
			return
		}
		c := fuzzWorld(t)
		err := c.Restore(bytes.NewReader(b))
		if reseal {
			if err == nil {
				_ = c.Report()
				_ = c.Run(time.Minute) // a legitimately different world may fail, not panic
			}
			return
		}
		if err == nil {
			t.Fatalf("mutated checkpoint (%d bytes at %d, cut %d) restored without resealing", len(patch), at, cut)
		}
		if c.started {
			t.Fatalf("refused checkpoint started the world: %v", err)
		}
	})
}

// TestRestoreRefusesDisagreeingAppSeries: an app's tick series are
// saved as one frame record, so a resealed checkpoint whose record
// names a column twice, renames one, holds a time column out of order or
// reaching outside the retention window, or a clock past the newest row
// fails Restore with an error naming the series (a time column or clock
// is named by the frame's first column), instead of panicking the next
// tick or Report. The failure is latched: Run returns it.
func TestRestoreRefusesDisagreeingAppSeries(t *testing.T) {
	src := fuzzWorld(t)
	if err := src.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// The frame record is its column count, each length-prefixed name,
	// the appended count, the newest time, three aggregates per column,
	// the retained row count, then the time column.
	str := func(s string) []byte { return append(binary.LittleEndian.AppendUint64(nil, uint64(len(s))), s...) }
	const first = "app/web/latency-mean"
	if n := bytes.Count(good, str(first)); n != 1 {
		t.Fatalf("frame record found %d times", n)
	}
	at := bytes.Index(good, str(first)) - 8
	cols := int(binary.LittleEndian.Uint64(good[at:]))
	at += 8
	for range cols {
		at += 8 + int(binary.LittleEndian.Uint64(good[at:]))
	}
	clock := at + 8
	at += 2*8 + 3*8*cols
	rows := int(binary.LittleEndian.Uint64(good[at:]))
	times := at + 8
	if cols != 17 || rows < 3 {
		t.Fatalf("the app frame has %d columns and %d rows", cols, rows)
	}
	row := func(b []byte, i int) []byte { return b[times+8*i:] }
	rename := func(from, to string) func([]byte) {
		return func(b []byte) { copy(b[bytes.Index(b, str(from)):], str(to)) }
	}

	for _, c := range []struct {
		name, want string
		corrupt    func(b []byte)
	}{
		{"duplicate column", "app/web/usage/cpu", rename("app/web/alloc/cpu", "app/web/usage/cpu")},
		{"renamed column", "app/web/usage/cpX", rename("app/web/usage/cpu", "app/web/usage/cpX")},
		{"time column out of order", first, func(b []byte) {
			binary.LittleEndian.PutUint64(row(b, 1), binary.LittleEndian.Uint64(row(b, 2))+1)
		}},
		{"row outside the window", first, func(b []byte) {
			last := binary.LittleEndian.Uint64(row(b, rows-1))
			binary.LittleEndian.PutUint64(row(b, 0), last-uint64(15*time.Minute))
		}},
		{"clock past the newest row", first, func(b []byte) {
			binary.LittleEndian.PutUint64(b[clock:], uint64(5*time.Hour))
		}},
	} {
		b := bytes.Clone(good)
		c.corrupt(b)
		ckpt.Seal(b)
		dst := fuzzWorld(t)
		err := dst.Restore(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), `"`+c.want+`"`) {
			t.Errorf("%s: Restore = %v, want an error naming %q", c.name, err, c.want)
			continue
		}
		t.Logf("%s: %v", c.name, err)
		if runErr := dst.Run(time.Minute); runErr == nil || !strings.Contains(runErr.Error(), c.want) {
			t.Errorf("%s: Run after the failed Restore = %v, want the restore error", c.name, runErr)
		}
	}
	if err := fuzzWorld(t).Restore(bytes.NewReader(good)); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
}

// TestRestoreValidatesWrappedTraceRing: in a checkpoint of a world whose
// tracer rings have wrapped, a record with a string length past the end
// of the blob or a kind byte out of range fails Restore even with the
// checksum recomputed. The tracer section is decoded after the world
// starts, so the half-restored world is latched failed: Run returns the
// error instead of continuing. The intact checkpoint restores the
// rotated rings record for record.
func TestRestoreValidatesWrappedTraceRing(t *testing.T) {
	src := fuzzWorld(t)
	if err := src.Run(fuzzRun); err != nil {
		t.Fatal(err)
	}
	tr := src.Tracer()
	if tr.Dropped() == 0 || tr.SpansDropped() == 0 {
		t.Fatalf("rings did not wrap in %v: %d events, %d spans dropped", fuzzRun, tr.Dropped(), tr.SpansDropped())
	}
	var buf bytes.Buffer
	if err := src.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// The tracer section opens with its length-prefixed marker, the
	// enabled flag and the event ring's capacity, sequence, drop count
	// and record count; the oldest event record follows. Its layout is
	// Seq, At, the kind byte, then the length-prefixed Verb.
	marker := binary.LittleEndian.AppendUint64(nil, uint64(len("tracer")))
	marker = append(marker, "tracer"...)
	if n := bytes.Count(good, marker); n != 1 {
		t.Fatalf("tracer marker found %d times", n)
	}
	rec := bytes.Index(good, marker) + len(marker) + 1 + 4*8
	kindAt, verbLenAt := rec+16, rec+17

	for _, c := range []struct {
		name, want string
		corrupt    func(b []byte)
	}{
		{"kind", "event kind", func(b []byte) { b[kindAt] = 0xff }},
		{"string-length", "exceeds", func(b []byte) { binary.LittleEndian.PutUint64(b[verbLenAt:], 1<<40) }},
	} {
		b := bytes.Clone(good)
		c.corrupt(b)
		ckpt.Seal(b)
		dst := fuzzWorld(t)
		err := dst.Restore(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Restore = %v, want an error mentioning %q", c.name, err, c.want)
		}
		if runErr := dst.Run(time.Minute); runErr == nil || !strings.Contains(runErr.Error(), c.want) {
			t.Errorf("%s: Run after the failed Restore = %v, want the restore error", c.name, runErr)
		}
	}

	dst := fuzzWorld(t)
	if err := dst.Restore(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	a, b := fmt.Sprintf("%+v", tr.Snapshot(obs.Filter{})), fmt.Sprintf("%+v", dst.Tracer().Snapshot(obs.Filter{}))
	if a != b {
		t.Error("restored event ring differs from the source")
	}
	a, b = fmt.Sprintf("%+v", tr.SpanSnapshot(obs.SpanFilter{})), fmt.Sprintf("%+v", dst.Tracer().SpanSnapshot(obs.SpanFilter{}))
	if a != b {
		t.Error("restored span ring differs from the source")
	}
}
