package obs

import (
	"slices"

	"evolve/internal/ckpt"
)

// Ring is a count-bounded ring of variable-length encoded records —
// the storage behind the tracer's event and span rings and the
// cluster's event journal. Records are stored in their checkpoint
// encoding, back to back in chunks of ckpt.ChunkSize bytes, so a
// checkpoint references the live bytes with ckpt.Writer.Ref instead of
// re-encoding every entry.
//
// A record never straddles chunks: one that does not fit in the tail
// chunk's free space starts the next chunk, and one larger than a chunk
// gets a chunk of its own size. Eviction is by count, oldest first, as
// a fixed-capacity ring of values would do it. A ChunkSize chunk whose
// records have all been evicted becomes the spare that the next tail
// chunk reuses, so a wrapped ring allocates nothing while its records
// keep a steady size. Its memory is the live bytes plus about two
// chunks — the evicted start of the oldest chunk and the free end of
// the newest add up to about one, and the spare is the other — plus,
// in each full chunk, the end that the next record did not fit in.
//
// The bytes written to a chunk never change until it is recycled, so a
// checkpoint sums them once and an in-memory checkpoint keeps the chunk
// itself. Such a chunk is pinned: once its records are evicted it is
// left to the garbage collector rather than recycled, and the ring
// allocates a fresh chunk in its place.
type Ring struct {
	lens   []int   // record lengths; a ring of capacity entries
	head   int     // lens index of the oldest record
	n      int     // records held
	live   int     // encoded bytes of the records held
	chunks []chunk // chunks holding records, oldest first
	off    int     // chunks[0].buf[:off] belongs to evicted records
	spare  []byte  // an empty recycled chunk, or nil
}

// chunk is one run of whole records, with the checksum of the part of
// it the last checkpoint referenced.
type chunk struct {
	buf    []byte
	lo     int      // sum is of buf[lo : lo+sum.Len()]
	sum    ckpt.Sum // cached for ckpt.Writer.Ref
	pinned bool     // an in-memory checkpoint holds buf: never recycle it
}

// NewRing returns an empty ring that holds up to capacity records.
func NewRing(capacity int) Ring {
	return Ring{lens: make([]int, capacity)}
}

// Cap returns how many records the ring holds before it evicts.
func (r *Ring) Cap() int { return len(r.lens) }

// Len returns how many records the ring holds.
func (r *Ring) Len() int { return r.n }

// Push appends a copy of rec, evicting the oldest record first when the
// ring is full, and reports whether it evicted one.
func (r *Ring) Push(rec []byte) (evicted bool) {
	if evicted = r.n == len(r.lens); evicted {
		r.evict()
	}
	last := len(r.chunks) - 1
	switch {
	case last >= 0 && cap(r.chunks[last].buf)-len(r.chunks[last].buf) >= len(rec):
		// It fits in the tail chunk.
	case len(rec) > ckpt.ChunkSize:
		r.pushOversized(len(rec))
	default:
		r.chunks = append(r.chunks, r.newChunk())
	}
	last = len(r.chunks) - 1
	r.chunks[last].buf = append(r.chunks[last].buf, rec...)
	r.lens[(r.head+r.n)%len(r.lens)] = len(rec)
	r.n++
	r.live += len(rec)
	return evicted
}

// pushOversized makes the tail a chunk of its own size for an n-byte
// record larger than a chunk. When the tail is a ChunkSize chunk, the
// new chunk also takes over its held records and the old tail is
// recycled, so the tail's free space is not stranded behind the record.
func (r *Ring) pushOversized(n int) {
	last := len(r.chunks) - 1
	if last < 0 || cap(r.chunks[last].buf) != ckpt.ChunkSize {
		r.chunks = append(r.chunks, chunk{buf: make([]byte, 0, n)})
		return
	}
	held := r.chunks[last].buf
	if last == 0 {
		held, r.off = held[r.off:], 0
	}
	r.recycle(r.chunks[last])
	r.chunks[last] = chunk{buf: append(make([]byte, 0, len(held)+n), held...)}
}

// newChunk returns an empty ChunkSize chunk: the spare, or a fresh one.
func (r *Ring) newChunk() chunk {
	if c := r.spare; c != nil {
		r.spare = nil
		return chunk{buf: c}
	}
	return chunk{buf: make([]byte, 0, ckpt.ChunkSize)}
}

// recycle makes a chunk whose records are gone the spare, unless it is
// oversized or pinned.
func (r *Ring) recycle(c chunk) {
	if cap(c.buf) == ckpt.ChunkSize && !c.pinned {
		r.spare = c.buf[:0]
	}
}

// evict drops the oldest record, recycling its chunk once no held
// record is left in it.
func (r *Ring) evict() {
	l := r.lens[r.head]
	r.head = (r.head + 1) % len(r.lens)
	r.n--
	r.live -= l
	r.off += l
	if r.off < len(r.chunks[0].buf) {
		return
	}
	c := r.chunks[0]
	r.chunks = slices.Delete(r.chunks, 0, 1)
	r.off = 0
	r.recycle(c)
}

// Each calls fn with the held records' bytes, oldest first, as one
// contiguous run of whole records per chunk.
func (r *Ring) Each(fn func(p []byte)) {
	for i, c := range r.chunks {
		if i == 0 {
			c.buf = c.buf[r.off:]
		}
		fn(c.buf)
	}
}

// Ref writes the held records' bytes to w chunk by chunk with
// ckpt.Writer.Ref. Only a run that changed since the last checkpoint is
// summed again: in a wrapped ring, the head chunk's live suffix and the
// tail. A chunk the writer keeps is pinned.
func (r *Ring) Ref(w *ckpt.Writer) {
	for i := range r.chunks {
		c := &r.chunks[i]
		lo := 0
		if i == 0 {
			lo = r.off
		}
		c.resum(lo)
		if w.Ref(c.buf[lo:], c.sum) {
			c.pinned = true
		}
	}
}

// resum brings the cached sum to buf[lo:], hashing as few bytes as it
// can. Since the sum was taken, records can only have been appended and
// the range's start can only have moved up, so the sum is extended by
// the appended bytes and trimmed by the dropped prefix — unless hashing
// buf[lo:] afresh reads fewer bytes.
func (c *chunk) resum(lo int) {
	hi := c.lo + c.sum.Len()
	if trimmed, appended := lo-c.lo, len(c.buf)-hi; trimmed+appended >= len(c.buf)-lo {
		c.lo, c.sum = lo, ckpt.SumOf(c.buf[lo:])
		return
	}
	if hi < len(c.buf) {
		c.sum = c.sum.Append(ckpt.SumOf(c.buf[hi:]))
	}
	if lo > c.lo {
		c.lo, c.sum = lo, c.sum.TrimPrefix(ckpt.SumOf(c.buf[c.lo:lo]))
	}
}

// Reset empties the ring, keeping its capacity.
func (r *Ring) Reset() {
	*r = Ring{lens: r.lens}
}

// decodeRing decodes the ring's records oldest first with load and
// returns those match accepts; lim > 0 keeps only the last lim. The ring
// holds only records its tracer encoded, or decoded when it restored
// them, so a decode error is a bug.
func decodeRing[T any](ring *Ring, load func(*ckpt.Reader) (T, error), match func(*T) bool, lim int) []T {
	var out []T
	ring.Each(func(p []byte) {
		for r := ckpt.NewRawReader(p); len(r.Rest()) > 0; {
			rec, err := load(r)
			if err != nil {
				panic("obs: undecodable record in a trace ring: " + err.Error())
			}
			if match(&rec) {
				out = append(out, rec)
			}
		}
	})
	if lim > 0 && len(out) > lim {
		out = out[len(out)-lim:]
	}
	return out
}
