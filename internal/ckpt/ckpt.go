// Package ckpt is the low-level codec for crash-consistent world
// checkpoints: a versioned, deterministic binary format with named
// section markers and a 64-bit checksum trailer. It deliberately knows
// nothing about the simulation — each package serialises its own state
// through a Writer/Reader pair, and the facade fixes the section order.
//
// Format: a fixed magic + format version header, then a flat stream of
// little-endian primitives. Strings and byte blobs are length-prefixed.
// Begin(name) writes the section name as a marker string; the reader's
// Begin verifies it, so a skew between writer and reader fails loudly at
// the first drifted section instead of deserialising garbage. The
// trailer is CRC-32C<<32 | CRC-32-IEEE over every byte after the header:
// two independent hardware-accelerated CRCs that together detect random
// corruption as well as a 64-bit hash and every burst of up to 32 bits.
//
// Encoding: the Writer appends primitives into a buffer and checksums
// and emits it a chunk at a time. A streaming writer (NewWriter) writes
// each chunk to an io.Writer; a buffer writer (NewBufferWriter) keeps
// the encoding in memory as Segments, a list of byte runs. Ref adds a
// caller-owned immutable run without copying or rehashing it: the caller
// caches the run's Sum, and the Writer folds it into the trailer by CRC
// combination. A buffer writer keeps the run itself as a segment, so
// bytes that outlive many checkpoints, such as full trace-ring chunks,
// are summed once and never copied, and the encoding is byte for byte
// the one copying them would give.
//
// Decoding starts with the whole blob and verifies header and trailer
// before the first primitive is read, so a corrupted checkpoint is
// refused before any state is applied.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"time"
)

// Magic identifies an EVOLVE checkpoint stream.
const Magic = "EVCK"

// Version is the checkpoint format version; Restore rejects mismatches.
const Version uint32 = 8

// headerLen is the magic plus the 4-byte version; trailerLen the
// checksum after the body.
const (
	headerLen  = len(Magic) + 4
	trailerLen = 8
)

// ChunkSize is how many body bytes the Writer gathers before it
// checksums them and hands them to the underlying writer. A bulk writer
// that splits a long run into Next calls of at most this many bytes
// never grows a streaming Writer's buffer.
const ChunkSize = 64 << 10

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder is the primitive encoding every checkpointed value is written
// through. Writer streams it into a checksummed checkpoint; Appender
// appends it to a caller-owned slice, for records that are encoded once
// and later written into checkpoints whole with Writer.Ref or Raw.
type Encoder interface {
	U8(v uint8)
	Bool(v bool)
	U64(v uint64)
	I64(v int64)
	Int(v int)
	F64(v float64)
	Dur(v time.Duration)
	Str(s string)
}

// Appender appends primitives to Buf. It is the one definition of each
// primitive's bytes: Writer wraps it with chunked checksumming.
type Appender struct {
	Buf []byte
}

// U8 appends one byte.
func (a *Appender) U8(v uint8) { a.Buf = append(a.Buf, v) }

// Bool appends a boolean as one byte.
func (a *Appender) Bool(v bool) {
	if v {
		a.U8(1)
	} else {
		a.U8(0)
	}
}

// U64 appends an unsigned 64-bit integer, little-endian.
func (a *Appender) U64(v uint64) { a.Buf = binary.LittleEndian.AppendUint64(a.Buf, v) }

// I64 appends a signed 64-bit integer.
func (a *Appender) I64(v int64) { a.U64(uint64(v)) }

// Int appends an int (as 64 bits).
func (a *Appender) Int(v int) { a.U64(uint64(v)) }

// F64 appends a float64 bit-exactly.
func (a *Appender) F64(v float64) { a.U64(math.Float64bits(v)) }

// Dur appends a time.Duration.
func (a *Appender) Dur(v time.Duration) { a.U64(uint64(v)) }

// Str appends a length-prefixed string.
func (a *Appender) Str(s string) {
	a.U64(uint64(len(s)))
	a.Buf = append(a.Buf, s...)
}

// Bytes appends a length-prefixed byte blob.
func (a *Appender) Bytes(p []byte) {
	a.U64(uint64(len(p)))
	a.Buf = append(a.Buf, p...)
}

// Writer serialises primitives into a buffer, checksumming and emitting
// it a chunk at a time. A streaming writer writes what it emits to its
// io.Writer and reuses the buffer; a buffer writer keeps what it emits
// as Segments and appends on after them. Errors are sticky: the first
// write error latches and every later write is dropped, so callers
// check Close once.
type Writer struct {
	w     io.Writer // nil for a buffer writer, which keeps segs instead
	a     Appender
	start int      // a.Buf[start:] is not yet emitted
	hdr   bool     // a.Buf[start:] begins with the unchecksummed header
	segs  Segments // a buffer writer's emitted runs
	bufs  [][]byte // buffers to encode into, spare ones first
	used  int      // bufs[:used] are taken
	crcC  uint32
	crcI  uint32
	err   error
}

// pieceSize is a Writer's buffer capacity: a chunk plus headroom for
// the write that crosses the chunk boundary.
const pieceSize = ChunkSize + ChunkSize/8

// NewWriter writes the header and returns a Writer streaming to w.
func NewWriter(w io.Writer) *Writer { return start(&Writer{w: w}) }

// NewBufferWriter returns a Writer that keeps the encoding in memory
// instead of streaming it; Segments returns it after Close. It encodes
// into the spare buffers first — the Buffers of an earlier buffer
// writer whose Segments are no longer read — and allocates only when
// they run out.
func NewBufferWriter(spare [][]byte) *Writer { return start(&Writer{bufs: spare}) }

// start begins w's encoding with the header.
func start(w *Writer) *Writer {
	w.a.Buf = append(w.nextBuffer(), Magic...)
	w.a.Buf = binary.LittleEndian.AppendUint32(w.a.Buf, Version)
	w.hdr = true
	return w
}

// nextBuffer returns an empty buffer: the next spare one, or a fresh
// one.
func (w *Writer) nextBuffer() []byte {
	if w.used == len(w.bufs) {
		w.bufs = append(w.bufs, make([]byte, 0, pieceSize))
	}
	w.used++
	return w.bufs[w.used-1][:0]
}

// Buffers returns a buffer writer's buffers, spare ones it did not
// need included, for a later NewBufferWriter once this writer's
// Segments are no longer read.
func (w *Writer) Buffers() [][]byte { return w.bufs }

// sum folds the pending bytes into the running checksums, less the
// header, which the checksum does not cover.
func (w *Writer) sum() {
	p := w.a.Buf[w.start:]
	if w.hdr {
		p, w.hdr = p[headerLen:], false
	}
	w.crcC = crc32.Update(w.crcC, castagnoli, p)
	w.crcI = crc32.Update(w.crcI, crc32.IEEETable, p)
}

// emit hands on the pending bytes a.Buf[start:]: a buffer writer keeps
// them as a segment, a streaming writer writes them out and empties its
// buffer.
func (w *Writer) emit() {
	if w.w != nil {
		w.write(w.a.Buf[w.start:])
		w.a.Buf = w.a.Buf[:0]
	} else if p := w.a.Buf[w.start:]; len(p) > 0 {
		w.segs = append(w.segs, p[:len(p):len(p)])
	}
	w.start = len(w.a.Buf)
}

// write writes p to a streaming writer's io.Writer unless an error has
// latched.
func (w *Writer) write(p []byte) {
	if w.err == nil && len(p) > 0 {
		_, w.err = w.w.Write(p)
	}
}

// maybeFlush checksums and emits the pending bytes once the buffer holds
// a full chunk. A buffer writer then continues in a fresh buffer, since
// its segments alias the full one.
func (w *Writer) maybeFlush() {
	if len(w.a.Buf) < ChunkSize {
		return
	}
	w.sum()
	w.emit()
	if w.w == nil {
		w.a.Buf, w.start = w.nextBuffer(), 0
	}
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.a.U8(v)
	w.maybeFlush()
}

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	w.a.Bool(v)
	w.maybeFlush()
}

// U64 writes an unsigned 64-bit integer.
func (w *Writer) U64(v uint64) {
	w.a.U64(v)
	w.maybeFlush()
}

// I64 writes a signed 64-bit integer.
func (w *Writer) I64(v int64) {
	w.a.I64(v)
	w.maybeFlush()
}

// Int writes an int (as 64 bits).
func (w *Writer) Int(v int) {
	w.a.Int(v)
	w.maybeFlush()
}

// F64 writes a float64 bit-exactly.
func (w *Writer) F64(v float64) {
	w.a.F64(v)
	w.maybeFlush()
}

// Dur writes a time.Duration.
func (w *Writer) Dur(v time.Duration) {
	w.a.Dur(v)
	w.maybeFlush()
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.a.Str(s)
	w.maybeFlush()
}

// Bytes writes a length-prefixed byte blob.
func (w *Writer) Bytes(p []byte) {
	w.a.Bytes(p)
	w.maybeFlush()
}

// Next appends n bytes to the stream and returns them for the caller to
// fill before its next call on w — the bulk path for runs of fixed-size
// records, which costs one bounds check instead of one call per field.
// Keep n at most a few chunks: the Writer buffers the run whole.
func (w *Writer) Next(n int) []byte {
	w.maybeFlush()
	l := len(w.a.Buf)
	w.a.Buf = slices.Grow(w.a.Buf, n)[:l+n]
	return w.a.Buf[l:]
}

// Raw writes p verbatim, with no length prefix: bytes the caller already
// encoded with an Appender. It copies p up to each chunk boundary and
// flushes there, so a run of any length never grows the Writer's
// buffer.
func (w *Writer) Raw(p []byte) {
	for len(p) > 0 {
		w.maybeFlush()
		n := min(len(p), ChunkSize-len(w.a.Buf))
		w.a.Buf = append(w.a.Buf, p[:n]...)
		p = p[n:]
	}
	w.maybeFlush()
}

// Ref writes p verbatim like Raw, but neither copies nor rehashes it: s
// is SumOf(p), cached by the caller, and is folded into the checksums by
// CRC combination. A streaming writer writes p out before returning. A
// buffer writer keeps p itself as a segment and reports kept: p's bytes
// must then never change while the Segments are in use.
func (w *Writer) Ref(p []byte, s Sum) (kept bool) {
	if len(p) != s.n {
		panic(fmt.Sprintf("ckpt: Ref of %d bytes with the Sum of %d", len(p), s.n))
	}
	if len(p) == 0 {
		return false
	}
	w.sum()
	w.emit()
	w.crcC = polyC.combine(w.crcC, s.crcC, s.shiftC)
	w.crcI = polyI.combine(w.crcI, s.crcI, s.shiftI)
	if w.w != nil {
		w.write(p)
		return false
	}
	w.segs = append(w.segs, p[:len(p):len(p)])
	return true
}

// Begin writes a named section marker; the Reader verifies it in order.
func (w *Writer) Begin(name string) { w.Str(name) }

// Err returns the latched write error, if any.
func (w *Writer) Err() error { return w.err }

// Close checksums the remaining bytes, appends the trailer and emits
// both. It does not close the underlying writer.
func (w *Writer) Close() error {
	w.sum()
	w.a.U64(uint64(w.crcC)<<32 | uint64(w.crcI))
	w.emit()
	return w.err
}

// Segments returns a buffer writer's encoding (valid after Close).
func (w *Writer) Segments() Segments { return w.segs }

// Segments is an encoding held in memory as the runs a buffer writer
// emitted, in order. A run passed to Writer.Ref is the caller's memory,
// not a copy of it.
type Segments [][]byte

// Len returns the encoding's length in bytes.
func (s Segments) Len() int {
	n := 0
	for _, p := range s {
		n += len(p)
	}
	return n
}

// WriteTo writes the encoding to w run by run.
func (s Segments) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, p := range s {
		m, err := w.Write(p)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Bytes returns a contiguous copy of the encoding.
func (s Segments) Bytes() []byte {
	out := make([]byte, 0, s.Len())
	for _, p := range s {
		out = append(out, p...)
	}
	return out
}

// Seal recomputes the checksum trailer of an encoded checkpoint in
// place. Fuzzers use it to mutate a valid blob yet still reach the
// section decoders behind the checksum.
func Seal(blob []byte) {
	if len(blob) < headerLen+trailerLen {
		return
	}
	body := blob[headerLen : len(blob)-trailerLen]
	binary.LittleEndian.PutUint64(blob[len(blob)-trailerLen:], checksum(body))
}

func checksum(body []byte) uint64 {
	return uint64(crc32.Checksum(body, castagnoli))<<32 | uint64(crc32.ChecksumIEEE(body))
}

// Reader decodes a blob written by Writer. NewReader verifies the
// header and the checksum up front, so decoding only ever sees intact
// bytes. Like Writer, errors latch.
type Reader struct {
	body []byte
	off  int
	err  error
}

// NewReader verifies blob's magic, version and checksum trailer and
// returns a Reader over its body. The Reader aliases blob.
func NewReader(blob []byte) (*Reader, error) {
	if len(blob) < headerLen {
		return nil, fmt.Errorf("ckpt: %d-byte stream is too short for a header", len(blob))
	}
	if string(blob[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %q (not a checkpoint file)", blob[:len(Magic)])
	}
	if v := binary.LittleEndian.Uint32(blob[len(Magic):]); v != Version {
		return nil, fmt.Errorf("ckpt: format version %d (this build reads %d)", v, Version)
	}
	if len(blob) < headerLen+trailerLen {
		return nil, fmt.Errorf("ckpt: truncated stream (no checksum trailer)")
	}
	body := blob[headerLen : len(blob)-trailerLen]
	want := binary.LittleEndian.Uint64(blob[len(blob)-trailerLen:])
	if got := checksum(body); got != want {
		return nil, fmt.Errorf("ckpt: checksum mismatch (file %016x, computed %016x)", want, got)
	}
	return &Reader{body: body}, nil
}

// NewRawReader returns a Reader over bytes an Appender wrote: there is
// no header or trailer to verify. The Reader aliases p.
func NewRawReader(p []byte) *Reader { return &Reader{body: p} }

// Rest returns the bytes not yet decoded, aliasing the blob. Comparing
// it before and after decoding a record yields the record's exact bytes.
func (r *Reader) Rest() []byte { return r.body[r.off:] }

// Next consumes n bytes and returns them, aliasing the blob; nil (with
// the error latched) when fewer remain. The bulk counterpart of
// Writer.Next.
func (r *Reader) Next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.body)-r.off {
		r.err = fmt.Errorf("ckpt: short read: %d bytes wanted at offset %d, %d left", n, r.off, len(r.body)-r.off)
		return nil
	}
	p := r.body[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// remaining returns the number of undecoded body bytes.
func (r *Reader) remaining() int { return len(r.body) - r.off }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if p := r.Next(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U64 reads an unsigned 64-bit integer.
func (r *Reader) U64() uint64 {
	if p := r.Next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// I64 reads a signed 64-bit integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Dur reads a time.Duration.
func (r *Reader) Dur() time.Duration { return time.Duration(r.I64()) }

// Count reads an element count and bounds it by the bytes left, given
// that every element encodes to at least min bytes, so a corrupt count
// cannot force a large allocation. Out-of-range counts latch an error
// and read as 0.
func (r *Reader) Count(min int) int {
	n := r.Int()
	if r.err == nil && (n < 0 || n > r.remaining()/min) {
		r.err = fmt.Errorf("ckpt: count %d of %d-byte elements exceeds the %d bytes left", n, min, r.remaining())
		return 0
	}
	return n
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.blob()) }

// Bytes reads a length-prefixed byte blob into a fresh slice.
func (r *Reader) Bytes() []byte { return slices.Clone(r.blob()) }

// blob reads a length prefix and returns that many bytes, aliasing the
// stream; the prefix is bounded by what remains, so a corrupt length
// cannot force a large allocation.
func (r *Reader) blob() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.err = fmt.Errorf("ckpt: blob length %d exceeds the %d bytes left", n, r.remaining())
		return nil
	}
	return r.Next(int(n))
}

// Begin reads a section marker and verifies it matches name.
func (r *Reader) Begin(name string) {
	got := r.blob()
	if r.err == nil && string(got) != name {
		r.err = fmt.Errorf("ckpt: section marker %q, want %q (writer/reader drift)", got, name)
	}
}

// Err returns the latched read error, if any.
func (r *Reader) Err() error { return r.err }

// Close returns the latched error, or an error when the body was not
// consumed exactly (writer/reader drift in the last section).
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if n := r.remaining(); n != 0 {
		return fmt.Errorf("ckpt: %d undecoded bytes after the last section", n)
	}
	return nil
}
