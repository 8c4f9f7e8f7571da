package main

// Seeded, per-source partitioned randomness for the benchmark's plan arrays:
// the internal/opensim recipe. Every kind of random decision (keys, kinds,
// values, staggers) draws from its own stream derived from (seed, source
// name), so adding a draw to one source never perturbs another, and all
// sampling is integer-only splitmix64 — bit-identical on every host.

type stream struct{ state uint64 }

// newStream derives the named stream from the run seed (FNV-1a of the name,
// mixed through one splitmix64 step so adjacent seeds do not yield adjacent
// states).
func newStream(seed uint64, source string) *stream {
	h := uint64(14695981039346656037)
	for i := 0; i < len(source); i++ {
		h ^= uint64(source[i])
		h *= 1099511628211
	}
	s := &stream{state: seed ^ h}
	s.next()
	return s
}

func (s *stream) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform draw in [0, n); n must be positive.
func (s *stream) intn(n int64) int64 { return int64(s.next() % uint64(n)) }

// digest folds plan words into an FNV-1a fingerprint, so tests can compare
// whole plans by one value.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(v int64) {
	x := uint64(*d)
	for i := 0; i < 8; i++ {
		x ^= uint64(v>>(8*i)) & 0xff
		x *= 1099511628211
	}
	*d = digest(x)
}
