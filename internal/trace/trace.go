// Package trace records synchronization order so that determinism can be
// validated: two runs of a deterministic engine on the same program must
// produce identical trace signatures and heap hashes.
//
// The signature combines
//
//   - one FNV-1a chain per thread over that thread's own synchronization
//     events (operation, object, logical time) — per-thread order is total
//     and deterministic, and combining per-thread chains commutatively keeps
//     the signature independent of wall-clock interleaving; and
//   - a global chain over commit events, which are totally ordered by the
//     deterministic turn.
package trace

// Op identifies a traced event kind.
type Op uint8

// Event kinds recorded in thread chains.
const (
	OpAcquire Op = iota + 1
	OpRelease
	OpCondWait
	OpCondWake
	OpCondSignal
	OpCondBroadcast
	OpBarrier
	OpSyscall
	OpSpecCommit
	OpSpecRevert
	OpAtomic
	OpRAcquire
	OpRRelease
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h uint64, vals ...uint64) uint64 {
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	return h
}

// Recorder accumulates the signature. A nil *Recorder is valid and records
// nothing, so engines can be run untraced at full speed.
type Recorder struct {
	threads []uint64
	commits uint64
	nsync   []int64
	logs    [][]Event // full per-thread streams when logging (see log.go)
}

// New returns a recorder for n threads.
func New(n int) *Recorder {
	r := &Recorder{threads: make([]uint64, n), commits: fnvOffset, nsync: make([]int64, n)}
	for i := range r.threads {
		r.threads[i] = fnvOffset
	}
	return r
}

// Sync records a synchronization event in thread tid's chain. Safe to call
// concurrently from distinct threads.
func (r *Recorder) Sync(tid int, op Op, obj, dlc int64) {
	if r == nil {
		return
	}
	r.threads[tid] = mix(r.threads[tid], uint64(op), uint64(obj), uint64(dlc))
	r.nsync[tid]++
	if r.logs != nil {
		r.logs[tid] = append(r.logs[tid], Event{Kind: op, Obj: obj, DLC: dlc})
	}
}

// Commit records a heap commit in the global chain. Callers must hold the
// deterministic turn, which totally orders commits.
func (r *Recorder) Commit(tid int, dlc, seq int64) {
	if r == nil {
		return
	}
	r.commits = mix(r.commits, uint64(tid), uint64(dlc), uint64(seq))
}

// Signature returns the combined trace signature. Only meaningful after the
// run completes.
func (r *Recorder) Signature() uint64 {
	if r == nil {
		return 0
	}
	sig := r.commits
	for i, h := range r.threads {
		// Per-thread chains are bound to their thread ID and folded in
		// with XOR, which is order-independent across threads.
		sig ^= mix(h, uint64(i))
	}
	return sig
}

// Events returns the total number of synchronization events recorded.
func (r *Recorder) Events() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for _, v := range r.nsync {
		n += v
	}
	return n
}
