package trace

import "fmt"

// Event is one fully recorded synchronization event, used by the
// determinism-debugging tools (signatures alone prove divergence; logs
// locate it).
type Event struct {
	Kind Op
	Obj  int64
	DLC  int64
}

// String renders the event compactly.
func (e Event) String() string {
	names := map[Op]string{
		OpAcquire: "acquire", OpRelease: "release",
		OpCondWait: "cond-wait", OpCondWake: "cond-wake",
		OpCondSignal: "cond-signal", OpCondBroadcast: "cond-broadcast",
		OpBarrier: "barrier", OpSyscall: "syscall",
		OpSpecCommit: "spec-commit", OpSpecRevert: "spec-revert",
		OpAtomic: "atomic", OpRAcquire: "racquire", OpRRelease: "rrelease",
	}
	n := names[e.Kind]
	if n == "" {
		n = fmt.Sprintf("op%d", e.Kind)
	}
	return fmt.Sprintf("%s(%d)@%d", n, e.Obj, e.DLC)
}

// NewLogging returns a recorder that additionally keeps the full per-thread
// event streams. Each thread appends only to its own stream, so logging
// adds no synchronization.
func NewLogging(n int) *Recorder {
	r := New(n)
	r.logs = make([][]Event, n)
	return r
}

// ThreadLog returns thread tid's event stream (nil unless logging).
func (r *Recorder) ThreadLog(tid int) []Event {
	if r == nil || r.logs == nil {
		return nil
	}
	return r.logs[tid]
}

// Divergence describes the first difference between two runs' logs.
type Divergence struct {
	Tid   int
	Index int
	A, B  *Event // nil if that run's stream ended first
}

// String renders the divergence for humans.
func (d *Divergence) String() string {
	fmtEv := func(e *Event) string {
		if e == nil {
			return "<end of stream>"
		}
		return e.String()
	}
	return fmt.Sprintf("thread %d, event %d: run A %s, run B %s",
		d.Tid, d.Index, fmtEv(d.A), fmtEv(d.B))
}

// DiffLogs compares two logged runs and returns the first divergence in
// each thread's stream, or nil if the runs are identical. Deterministic
// engines must always return nil for same-input runs.
func DiffLogs(a, b *Recorder) []*Divergence {
	var out []*Divergence
	for tid := range a.logs {
		la, lb := a.logs[tid], b.logs[tid]
		n := len(la)
		if len(lb) < n {
			n = len(lb)
		}
		found := false
		for i := 0; i < n; i++ {
			if la[i] != lb[i] {
				out = append(out, &Divergence{Tid: tid, Index: i, A: &la[i], B: &lb[i]})
				found = true
				break
			}
		}
		if !found && len(la) != len(lb) {
			d := &Divergence{Tid: tid, Index: n}
			if n < len(la) {
				d.A = &la[n]
			}
			if n < len(lb) {
				d.B = &lb[n]
			}
			out = append(out, d)
		}
	}
	return out
}
