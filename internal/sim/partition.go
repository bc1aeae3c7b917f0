package sim

// PartitionedRNG derives one independent, stable random stream per
// string key. Stream(key) depends only on (seed, key), so any shard
// layout, and any order of stream creation, observes byte-identical
// randomness for the same entity. This is what lets a sharded
// simulation replay exactly against the 1-shard baseline: per-entity
// noise and fault draws are keyed by entity name, not by the order in
// which shards happened to ask for them.
type PartitionedRNG struct {
	seed uint64
}

// NewPartitionedRNG returns a partitioned source rooted at seed.
func NewPartitionedRNG(seed int64) *PartitionedRNG {
	return &PartitionedRNG{seed: uint64(seed)}
}

// Stream returns a fresh generator positioned at the start of key's
// stream. Streams for distinct keys are statistically independent: the
// key is FNV-1a hashed, mixed with the seed, and finalised through
// splitmix64 so that related keys ("app-1", "app-2") and related seeds
// land in unrelated parts of the generator's state space.
func (p *PartitionedRNG) Stream(key string) *RNG {
	return NewRNG(int64(splitmix64(fnv64a(key) ^ p.seed)))
}

// ShardOf maps key stably onto one of n shards. The mapping depends
// only on (key, n), never on insertion order, so an entity lands on the
// same shard every run.
func ShardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(fnv64a(key) % uint64(n))
}

func fnv64a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// golden is SplitMix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// splitmix64 is one step of the SplitMix64 generator from state x: it
// adds golden and finalises through a bijective mixer, so distinct hash
// inputs keep distinct seeds, and splitmix64(seed + n·golden) is draw n
// of the stream rooted at seed (see RNG).
func splitmix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
