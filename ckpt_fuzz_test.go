package evolve

import (
	"bytes"
	"testing"
	"time"

	"evolve/internal/ckpt"
)

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

// FuzzRestore mutates a valid 10-minute checkpoint — overwrite patch bytes
// at an offset, then cut bytes off the end — and restores it into a fresh
// world. Without resealing, the checksum must refuse every mutation and
// leave the world fresh. With the trailer recomputed, the mutation reaches
// the section decoders, which must return an error or a consistent world,
// never panic or over-allocate.
func FuzzRestore(f *testing.F) {
	src := fuzzWorld(f)
	if err := src.Run(10 * time.Minute); err != nil {
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
			return // an error or a legitimately different world
		}
		if err == nil {
			t.Fatalf("mutated checkpoint (%d bytes at %d, cut %d) restored without resealing", len(patch), at, cut)
		}
		if c.started {
			t.Fatalf("refused checkpoint started the world: %v", err)
		}
	})
}
