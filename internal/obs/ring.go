package obs

import (
	"slices"

	"evolve/internal/ckpt"
)

// recRing is a count-bounded ring of variable-length encoded records —
// the storage behind both the event ring and the span ring. Records are
// stored in their checkpoint encoding, back to back in chunks of
// ckpt.ChunkSize bytes, so a checkpoint copies the live bytes instead
// of re-encoding every entry.
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
type recRing struct {
	lens   []int    // record lengths; a ring of capacity entries
	head   int      // lens index of the oldest record
	n      int      // records held
	live   int      // encoded bytes of the records held
	chunks [][]byte // chunks holding records, oldest first
	off    int      // chunks[0][:off] belongs to evicted records
	spare  []byte   // an empty recycled chunk, or nil
}

func newRecRing(capacity int) recRing {
	return recRing{lens: make([]int, capacity)}
}

// capacity returns how many records the ring holds before it evicts.
func (r *recRing) capacity() int { return len(r.lens) }

// push appends a copy of rec, evicting the oldest record first when the
// ring is full, and reports whether it evicted one.
func (r *recRing) push(rec []byte) (evicted bool) {
	if evicted = r.n == len(r.lens); evicted {
		r.evict()
	}
	last := len(r.chunks) - 1
	switch {
	case last >= 0 && cap(r.chunks[last])-len(r.chunks[last]) >= len(rec):
		// It fits in the tail chunk.
	case len(rec) > ckpt.ChunkSize:
		r.pushOversized(len(rec))
	default:
		r.chunks = append(r.chunks, r.newChunk())
	}
	last = len(r.chunks) - 1
	r.chunks[last] = append(r.chunks[last], rec...)
	r.lens[(r.head+r.n)%len(r.lens)] = len(rec)
	r.n++
	r.live += len(rec)
	return evicted
}

// pushOversized makes the tail a chunk of its own size for an n-byte
// record larger than a chunk. When the tail is a ChunkSize chunk, the
// new chunk also takes over its held records and the old tail becomes
// the spare, so the tail's free space is not stranded behind the record.
func (r *recRing) pushOversized(n int) {
	last := len(r.chunks) - 1
	if last < 0 || cap(r.chunks[last]) != ckpt.ChunkSize {
		r.chunks = append(r.chunks, make([]byte, 0, n))
		return
	}
	held := r.chunks[last]
	if last == 0 {
		held, r.off = held[r.off:], 0
	}
	r.spare = r.chunks[last][:0]
	r.chunks[last] = append(make([]byte, 0, len(held)+n), held...)
}

// newChunk returns an empty ChunkSize chunk: the spare, or a fresh one.
func (r *recRing) newChunk() []byte {
	if c := r.spare; c != nil {
		r.spare = nil
		return c
	}
	return make([]byte, 0, ckpt.ChunkSize)
}

// evict drops the oldest record, recycling its chunk once no held
// record is left in it. An oversized chunk is released, not recycled.
func (r *recRing) evict() {
	l := r.lens[r.head]
	r.head = (r.head + 1) % len(r.lens)
	r.n--
	r.live -= l
	r.off += l
	if r.off < len(r.chunks[0]) {
		return
	}
	c := r.chunks[0]
	r.chunks = slices.Delete(r.chunks, 0, 1)
	r.off = 0
	if cap(c) == ckpt.ChunkSize {
		r.spare = c[:0]
	}
}

// each calls fn with the held records' bytes, oldest first, as one
// contiguous run of whole records per chunk.
func (r *recRing) each(fn func(p []byte)) {
	for i, c := range r.chunks {
		if i == 0 {
			c = c[r.off:]
		}
		fn(c)
	}
}

// reset empties the ring, keeping its capacity.
func (r *recRing) reset() {
	*r = recRing{lens: r.lens}
}

// decodeRing decodes the ring's records oldest first with load and
// returns those match accepts; lim > 0 keeps only the last lim. The ring
// holds only records its tracer encoded, or decoded when it restored
// them, so a decode error is a bug.
func decodeRing[T any](ring *recRing, load func(*ckpt.Reader) (T, error), match func(*T) bool, lim int) []T {
	var out []T
	ring.each(func(p []byte) {
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
