package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin("header")
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U64(1<<63 + 12345)
	w.I64(-42)
	w.Int(99)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.F64(0.1)
	w.Dur(90 * time.Minute)
	w.Str("hello, 世界")
	w.Bytes([]byte{0, 1, 2, 255})
	w.Begin("trailer")
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	r.Begin("header")
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.U64(); got != 1<<63+12345 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 99 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := r.F64(); got != 0.1 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Dur(); got != 90*time.Minute {
		t.Errorf("Dur = %v", got)
	}
	if got := r.Str(); got != "hello, 世界" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{0, 1, 2, 255}) {
		t.Errorf("Bytes = %v", got)
	}
	r.Begin("trailer")
	if err := r.Close(); err != nil {
		t.Fatalf("reader Close: %v", err)
	}
}

func TestSectionDrift(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin("alpha")
	w.U64(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r.Begin("beta")
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "section marker") {
		t.Fatalf("want section-marker error, got %v", r.Err())
	}
}

func TestChecksumCatchesCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin("s")
	w.U64(0xdeadbeef)
	w.Str("payload")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-12] ^= 0x40 // flip a payload bit (not in the checksum trailer)
	if _, err := NewReader(b); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want checksum error before any decode, got %v", err)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := NewReader([]byte("NOPE....")); err == nil {
		t.Fatal("want bad-magic error")
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4]++ // bump format version
	if _, err := NewReader(b); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
	// A file from the previous format (version 2, before the kernel had
	// one tick path) is refused by name.
	binary.LittleEndian.PutUint32(b[len(Magic):], 2)
	want := fmt.Sprintf("format version 2 (this build reads %d)", Version)
	if _, err := NewReader(b); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("want %q, got %v", want, err)
	}
}

func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Str("a long enough payload to truncate meaningfully")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 20, buf.Len() - 9, buf.Len() - 3, buf.Len()} {
		if _, err := NewReader(buf.Bytes()[:buf.Len()-cut]); err == nil {
			t.Fatalf("stream truncated by %d bytes was accepted", cut)
		}
	}
}

// spanRecords is how many ~90-byte records writeSpan writes: over three
// chunks' worth.
const spanRecords = 4 * ChunkSize / 100

// writeSpan writes a stream several chunks long, mixing primitives with
// bulk runs that straddle chunk boundaries.
func writeSpan(w *Writer) {
	for i := 0; i < spanRecords; i++ {
		w.U64(uint64(i))
		w.Str(strings.Repeat("x", i%17))
		p := w.Next(64)
		for j := range p {
			p[j] = byte(i + j)
		}
	}
}

// TestChunkedStreamsAgree: the streaming and the buffer writer produce
// the same bytes, and the chunked checksum verifies on read.
func TestChunkedStreamsAgree(t *testing.T) {
	var stream bytes.Buffer
	sw := NewWriter(&stream)
	writeSpan(sw)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	bw := NewBufferWriter(make([]byte, 0, 16))
	writeSpan(bw)
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), bw.Encoding()) {
		t.Fatalf("stream (%d bytes) and buffer (%d bytes) encodings differ", stream.Len(), len(bw.Encoding()))
	}
	if stream.Len() < 3*ChunkSize {
		t.Fatalf("stream is %d bytes, want several chunks", stream.Len())
	}
	r, err := NewReader(stream.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spanRecords; i++ {
		if got := r.U64(); got != uint64(i) {
			t.Fatalf("record %d: U64 = %d", i, got)
		}
		if got := r.Str(); got != strings.Repeat("x", i%17) {
			t.Fatalf("record %d: Str = %q", i, got)
		}
		for j, b := range r.Next(64) {
			if b != byte(i+j) {
				t.Fatalf("record %d: bulk byte %d = %d", i, j, b)
			}
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderBounds: lengths and counts beyond the bytes left, and bytes
// left over at Close, are errors rather than allocations or silence.
func TestReaderBounds(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(1 << 40) // read back as a blob length, then as a count
	w.Int(-1)
	w.U8(9)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	open := func() *Reader {
		r, err := NewReader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := open(); r.Bytes() != nil || r.Err() == nil {
		t.Error("oversized blob length accepted")
	}
	if r := open(); r.Count(1) != 0 || r.Err() == nil {
		t.Error("oversized count accepted")
	}
	r := open()
	r.U64()
	if r.Count(1) != 0 || r.Err() == nil {
		t.Error("negative count accepted")
	}
	if r := open(); r.Next(-1) != nil || r.Next(100) != nil || r.Err() == nil {
		t.Error("short bulk read accepted")
	}
	r = open()
	r.U64()
	r.Int()
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "undecoded") {
		t.Errorf("unread trailing byte: got %v", err)
	}
}

// TestSeal: a body edit breaks the checksum; Seal restores it.
func TestSeal(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U64(7)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[8] = 8
	if _, err := NewReader(b); err == nil {
		t.Fatal("edited body passed the checksum")
	}
	Seal(b)
	r, err := NewReader(b)
	if err != nil {
		t.Fatalf("resealed: %v", err)
	}
	if got := r.U64(); got != 8 {
		t.Errorf("resealed U64 = %d, want 8", got)
	}
}
