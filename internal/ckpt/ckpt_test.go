package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"
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
	bw := NewBufferWriter(nil)
	writeSpan(bw)
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), bw.Segments().Bytes()) {
		t.Fatalf("stream (%d bytes) and buffer (%d bytes) encodings differ", stream.Len(), len(bw.Segments().Bytes()))
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

// TestBufferWriterReusesBuffers: a buffer writer given an earlier
// writer's Buffers encodes into them instead of allocating, and the
// encoding is the same.
func TestBufferWriterReusesBuffers(t *testing.T) {
	first := NewBufferWriter(nil)
	writeSpan(first)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	want := first.Segments().Bytes()
	bufs := first.Buffers()
	if len(bufs) < 3 {
		t.Fatalf("a %d-byte encoding used %d buffers, want several", len(want), len(bufs))
	}
	again := NewBufferWriter(bufs)
	writeSpan(again)
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Segments().Bytes(), want) {
		t.Fatal("encoding into spare buffers gives different bytes")
	}
	reused := again.Buffers()
	if len(reused) != len(bufs) {
		t.Fatalf("second encoding has %d buffers, the first %d", len(reused), len(bufs))
	}
	for i := range reused {
		if &reused[i][:1][0] != &bufs[i][:1][0] {
			t.Fatalf("buffer %d was allocated afresh instead of reused", i)
		}
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

// maxWriter records the largest single Write it receives.
type maxWriter struct {
	bytes.Buffer
	max int
}

func (m *maxWriter) Write(p []byte) (int, error) {
	m.max = max(m.max, len(p))
	return m.Buffer.Write(p)
}

// TestWriterRaw: a multi-megabyte Raw run, starting off a chunk
// boundary, encodes to the same blob through a buffer writer and a
// streaming writer; the streaming writer never holds more than two
// chunks; and the checksum is the one the same bytes get when written
// one U8 at a time. The same run written with Ref, in pieces that
// include empty ones and ones that cross chunk boundaries, encodes to
// the same blob through both writers: the buffer writer keeps the
// pieces themselves, and NewReader accepts the combined trailer.
func TestWriterRaw(t *testing.T) {
	run := make([]byte, 3<<20+12345)
	for i := range run {
		run[i] = byte(i*7 + i>>11)
	}
	encode := func(w *Writer, raw func(w *Writer, p []byte)) {
		w.Str("lead") // leave the run unaligned to chunk boundaries
		raw(w, run[:5])
		raw(w, run[5:])
		w.U64(42)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	bulk := func(w *Writer, p []byte) { w.Raw(p) }

	bw := NewBufferWriter(nil)
	encode(bw, bulk)
	want := bw.Segments().Bytes()

	var stream maxWriter
	sw := NewWriter(&stream)
	encode(sw, bulk)
	if !bytes.Equal(stream.Bytes(), want) {
		t.Fatal("streaming and buffer writers encode the Raw run differently")
	}
	if stream.max > 2*ChunkSize || cap(sw.a.Buf) > 2*ChunkSize {
		t.Errorf("streaming writer held %d bytes (buffer cap %d), want at most %d", stream.max, cap(sw.a.Buf), 2*ChunkSize)
	}

	uw := NewBufferWriter(nil)
	encode(uw, func(w *Writer, p []byte) {
		for _, b := range p {
			w.U8(b)
		}
	})
	if !bytes.Equal(uw.Segments().Bytes(), want) {
		t.Fatal("Raw and per-byte U8 writes encode differently")
	}
	r, err := NewReader(want)
	if err != nil {
		t.Fatal(err)
	}
	if r.Str() != "lead" || !bytes.Equal(r.Next(len(run)), run) || r.U64() != 42 {
		t.Fatal("Raw run did not read back")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	pieces := []int{0, 1, ChunkSize - 9, 0, ChunkSize, 2*ChunkSize + 3, 777}
	var refs, kept int
	ref := func(w *Writer, p []byte) {
		for i := 0; len(p) > 0; i++ {
			n := min(len(p), pieces[i%len(pieces)])
			if w.Ref(p[:n], SumOf(p[:n])) {
				kept++
			}
			refs++
			p = p[n:]
		}
	}
	rw := NewBufferWriter(nil)
	encode(rw, ref)
	segs := rw.Segments()
	var buf bytes.Buffer
	if n, err := segs.WriteTo(&buf); err != nil || n != int64(len(want)) || segs.Len() != len(want) {
		t.Fatalf("Ref segments: WriteTo wrote %d bytes (%v), Len %d, want %d", n, err, segs.Len(), len(want))
	}
	if !bytes.Equal(buf.Bytes(), want) || !bytes.Equal(segs.Bytes(), want) {
		t.Fatal("buffer writer encodes the Ref run differently from the Raw run")
	}
	aliased := 0
	for _, seg := range segs {
		if at := uintptr(unsafe.Pointer(&seg[0])) - uintptr(unsafe.Pointer(&run[0])); at < uintptr(len(run)) {
			aliased++
		}
	}
	if kept == 0 || aliased != kept {
		t.Errorf("buffer writer kept %d of %d Ref pieces and holds %d segments of the run", kept, refs, aliased)
	}
	if _, err := NewReader(segs.Bytes()); err != nil {
		t.Fatalf("Ref encoding refused: %v", err)
	}

	var rstream maxWriter
	kept = 0
	rsw := NewWriter(&rstream)
	encode(rsw, ref)
	if !bytes.Equal(rstream.Bytes(), want) {
		t.Fatal("streaming writer encodes the Ref run differently from the Raw run")
	}
	if kept != 0 || cap(rsw.a.Buf) > 2*ChunkSize {
		t.Errorf("streaming writer kept %d Ref pieces (buffer cap %d), want none and at most %d", kept, cap(rsw.a.Buf), 2*ChunkSize)
	}
}

// TestCRCCombine: for random splits of random bytes — empty parts and
// splits on and across chunk boundaries included — combining the two
// parts' CRCs gives the CRC of the whole, for the Castagnoli and the
// IEEE table alike; SumOf caches exactly those CRCs; and appending one
// part's Sum to the other's, or trimming the first part's Sum off the
// whole's, gives the Sum SumOf computes.
func TestCRCCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 3*ChunkSize+17)
	rng.Read(data)
	// Each split is data[lo:m] then data[m:hi].
	splits := [][3]int{{0, 0, 0}, {0, 0, 9}, {0, 9, 9}, {0, ChunkSize, 2 * ChunkSize}, {1, ChunkSize, len(data)}, {ChunkSize - 1, ChunkSize + 1, 3 * ChunkSize}}
	for range 2000 {
		lo := rng.Intn(len(data) + 1)
		hi := lo + rng.Intn(len(data)-lo+1)
		splits = append(splits, [3]int{lo, lo + rng.Intn(hi-lo+1), hi})
	}
	for _, tc := range []struct {
		name string
		tab  *crc32.Table
		poly *crcPoly
	}{{"castagnoli", castagnoli, polyC}, {"ieee", crc32.IEEETable, polyI}} {
		for _, sp := range splits {
			a, b := data[sp[0]:sp[1]], data[sp[1]:sp[2]]
			got := tc.poly.combine(crc32.Checksum(a, tc.tab), crc32.Checksum(b, tc.tab), tc.poly.shift(len(b)))
			if want := crc32.Checksum(data[sp[0]:sp[2]], tc.tab); got != want {
				t.Fatalf("%s: combined CRC of data[%d:%d]+data[%d:%d] = %08x, want %08x", tc.name, sp[0], sp[1], sp[1], sp[2], got, want)
			}
		}
	}
	for _, sp := range splits[:50] {
		p := data[sp[0]:sp[2]]
		s := SumOf(p)
		if s.Len() != len(p) || s.crcC != crc32.Checksum(p, castagnoli) || s.crcI != crc32.ChecksumIEEE(p) ||
			s.shiftC != polyC.shift(len(p)) || s.shiftI != polyI.shift(len(p)) {
			t.Fatalf("SumOf(data[%d:%d]) = %+v", sp[0], sp[2], s)
		}
	}
	for _, sp := range splits[:200] {
		a, b, ab := SumOf(data[sp[0]:sp[1]]), SumOf(data[sp[1]:sp[2]]), SumOf(data[sp[0]:sp[2]])
		if got := a.Append(b); got != ab {
			t.Fatalf("Sum of data[%d:%d] appended with data[%d:%d] = %+v, want %+v", sp[0], sp[1], sp[1], sp[2], got, ab)
		}
		if got := ab.TrimPrefix(a); got != b {
			t.Fatalf("Sum of data[%d:%d] less data[%d:%d] = %+v, want %+v", sp[0], sp[2], sp[0], sp[1], got, b)
		}
	}
}

// TestAppenderMatchesWriter: the Appender writes each primitive's bytes
// exactly as the Writer's body holds them, and a raw Reader over them
// tracks what is left to decode.
func TestAppenderMatchesWriter(t *testing.T) {
	put := func(e Encoder) {
		e.U8(3)
		e.Bool(true)
		e.U64(1 << 60)
		e.I64(-9)
		e.Int(77)
		e.F64(math.NaN())
		e.Dur(time.Hour)
		e.Str("héllo")
	}
	var a Appender
	put(&a)
	w := NewBufferWriter(nil)
	put(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	blob := w.Segments().Bytes()
	if body := blob[headerLen : len(blob)-trailerLen]; !bytes.Equal(a.Buf, body) {
		t.Fatalf("appender bytes %x, writer body %x", a.Buf, body)
	}
	r := NewRawReader(a.Buf)
	r.U8()
	if got := len(r.Rest()); got != len(a.Buf)-1 {
		t.Errorf("Rest after one byte has %d bytes, want %d", got, len(a.Buf)-1)
	}
	if !r.Bool() || r.U64() != 1<<60 || r.I64() != -9 || r.Int() != 77 || !math.IsNaN(r.F64()) || r.Dur() != time.Hour || r.Str() != "héllo" {
		t.Error("raw reader decoded different values")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
