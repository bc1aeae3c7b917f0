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
// Encoding cost is a memory copy: the Writer appends primitives into a
// chunk buffer and checksums and writes whole chunks. Decoding starts
// with the whole blob and verifies header and trailer before the first
// primitive is read, so a corrupted checkpoint is refused before any
// state is applied.
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
const Version uint32 = 3

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

// Writer serialises primitives into a chunk buffer, checksumming and
// writing whole chunks. Errors are sticky: the first write error
// latches and every later write is dropped, so callers check Close once.
type Writer struct {
	w      io.Writer // nil for a buffer writer: buf is the destination
	buf    []byte
	hashed int // buf[:hashed] is already in the checksums
	crcC   uint32
	crcI   uint32
	err    error
}

// NewWriter writes the header and returns a Writer streaming to w.
func NewWriter(w io.Writer) *Writer {
	return newWriter(w, make([]byte, 0, 2*ChunkSize))
}

// NewBufferWriter returns a Writer that appends the whole encoding to
// buf[:0] instead of streaming it; Encoding returns it after Close. Size
// buf's capacity to the expected encoding to avoid regrowth.
func NewBufferWriter(buf []byte) *Writer { return newWriter(nil, buf[:0]) }

func newWriter(w io.Writer, buf []byte) *Writer {
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	return &Writer{w: w, buf: buf, hashed: len(buf)}
}

// flush checksums the unhashed tail of the buffer and, when streaming,
// writes the buffer out and empties it.
func (w *Writer) flush() {
	p := w.buf[w.hashed:]
	w.crcC = crc32.Update(w.crcC, castagnoli, p)
	w.crcI = crc32.Update(w.crcI, crc32.IEEETable, p)
	if w.w == nil {
		w.hashed = len(w.buf)
		return
	}
	if w.err == nil {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf, w.hashed = w.buf[:0], 0
}

// maybeFlush flushes once a full chunk is pending.
func (w *Writer) maybeFlush() {
	if len(w.buf)-w.hashed >= ChunkSize {
		w.flush()
	}
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	w.buf = append(w.buf, v)
	w.maybeFlush()
}

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U64 writes an unsigned 64-bit integer.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	w.maybeFlush()
}

// I64 writes a signed 64-bit integer.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int (as 64 bits).
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// F64 writes a float64 bit-exactly.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Dur writes a time.Duration.
func (w *Writer) Dur(v time.Duration) { w.U64(uint64(v)) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
	w.maybeFlush()
}

// Bytes writes a length-prefixed byte blob.
func (w *Writer) Bytes(p []byte) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(len(p)))
	w.buf = append(w.buf, p...)
	w.maybeFlush()
}

// Next appends n bytes to the stream and returns them for the caller to
// fill before its next call on w — the bulk path for runs of fixed-size
// records, which costs one bounds check instead of one call per field.
// Keep n at most a few chunks: a streaming Writer buffers the run whole.
func (w *Writer) Next(n int) []byte {
	w.maybeFlush()
	l := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:l+n]
	return w.buf[l:]
}

// Begin writes a named section marker; the Reader verifies it in order.
func (w *Writer) Begin(name string) { w.Str(name) }

// Err returns the latched write error, if any.
func (w *Writer) Err() error { return w.err }

// Close checksums the remaining bytes, appends the trailer and writes
// out what is buffered. It does not close the underlying writer.
func (w *Writer) Close() error {
	w.flush()
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(w.crcC)<<32|uint64(w.crcI))
	w.hashed = len(w.buf)
	if w.w != nil {
		if w.err == nil {
			_, w.err = w.w.Write(w.buf)
		}
		w.buf, w.hashed = w.buf[:0], 0
	}
	return w.err
}

// Encoding returns a buffer writer's encoding (valid after Close).
func (w *Writer) Encoding() []byte { return w.buf }

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
