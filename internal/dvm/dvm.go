// Package dvm implements the deterministic thread virtual machine that
// stands in for pthreads in this reproduction.
//
// The original LazyDet interposes on pthreads programs, counts retired
// instructions for its deterministic logical clock, and rolls back failed
// speculation by restoring saved stack and register contents. Goroutines
// expose none of that: stacks cannot be snapshotted and instruction counts
// cannot be observed. The substitution (see DESIGN.md §1) is a small virtual
// machine:
//
//   - A workload is a Program per thread: a flat array of instructions with
//     explicit jumps, produced by the structured Builder in builder.go.
//   - Each simulated thread runs its program on a dedicated goroutine, so
//     execution is genuinely concurrent.
//   - Thread-local state is explicit — a register file, a private scratch
//     array, and a deterministic PRNG — so a snapshot is a plain copy and
//     rollback is a plain restore, with the program counter playing the role
//     of the saved instruction pointer.
//   - The deterministic logical clock is the weighted count of retired
//     instructions: exactly the paper's DLC, made exact.
//
// The VM itself is engine-agnostic: every memory access goes through the
// per-thread MemWindow the engine installs at thread start, every
// synchronization operation is delegated to an Engine, and the five engines
// evaluated in the paper (pthreads, Consequence, TotalOrder-Weak,
// TotalOrder-Weak-Nondet, LazyDet) are interchangeable behind those
// interfaces.
//
// Programs execute on one backend, the interpreter (Thread.runInterp). The
// threaded-code lowering in compile.go (Compile, Compiled, WithExecs) is a
// measured comparator, not an engine path: its only caller is the
// benchmark's per-layer dvm.compiled_ns_per_instr row, compile_test.go checks
// it event-for-event against the interpreter, and no option, flag or config
// key selects it.
package dvm

import (
	"fmt"
	"sync"

	"lazydet/internal/dlc"
)

// Opcode identifies an instruction kind.
type Opcode uint8

const (
	// OpDo runs an arbitrary compute closure over thread-local state.
	OpDo Opcode = iota
	// OpLoad reads a heap word into a register via the engine.
	OpLoad
	// OpStore writes a heap word via the engine.
	OpStore
	// OpJump unconditionally transfers control.
	OpJump
	// OpBranchUnless transfers control when its condition is false.
	OpBranchUnless
	// OpLock acquires a lock via the engine; the speculation engine may
	// begin, extend, or terminate a speculative run here.
	OpLock
	// OpUnlock releases a lock via the engine.
	OpUnlock
	// OpRLock acquires a lock in shared (reader) mode.
	OpRLock
	// OpRUnlock releases a reader-mode acquisition.
	OpRUnlock
	// OpCondWait waits on a condition variable, releasing the given lock.
	OpCondWait
	// OpCondSignal wakes one waiter of a condition variable.
	OpCondSignal
	// OpCondBroadcast wakes all waiters of a condition variable.
	OpCondBroadcast
	// OpBarrier waits at a barrier.
	OpBarrier
	// OpSyscall performs an irrevocable external operation.
	OpSyscall
	// OpAtomic performs an atomic read-modify-write on a heap word.
	OpAtomic
	// OpHalt terminates the thread.
	OpHalt

	// numOpcodes sizes per-opcode tables (retired-instruction counters,
	// lowering dispatch).
	numOpcodes = int(OpHalt) + 1
)

// opcodeNames are the short names used in telemetry keys and diagnostics.
var opcodeNames = [numOpcodes]string{
	OpDo: "do", OpLoad: "load", OpStore: "store", OpJump: "jump",
	OpBranchUnless: "branch_unless", OpLock: "lock", OpUnlock: "unlock",
	OpRLock: "rlock", OpRUnlock: "runlock", OpCondWait: "cond_wait",
	OpCondSignal: "cond_signal", OpCondBroadcast: "cond_broadcast",
	OpBarrier: "barrier", OpSyscall: "syscall", OpAtomic: "atomic",
	OpHalt: "halt",
}

// String returns the opcode's short name (used in telemetry counter keys
// like "dvm.retired.lock").
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op%d", int(o))
}

// NumOpcodes returns the number of defined opcodes; RetiredCounts slices
// have this length, indexed by Opcode.
func NumOpcodes() int { return numOpcodes }

// AtomicKind selects the read-modify-write operation of OpAtomic.
type AtomicKind uint8

const (
	// AtomicAdd atomically adds Delta and yields the new value.
	AtomicAdd AtomicKind = iota
	// AtomicCAS compares against Old and swaps in New on match,
	// yielding 1 on success and 0 on failure.
	AtomicCAS
	// AtomicExchange swaps in New and yields the previous value.
	AtomicExchange
)

// Atomic describes one OpAtomic instruction. The address and operands are
// evaluated on the executing thread; the result lands in register Dst.
type Atomic struct {
	Kind  AtomicKind
	Addr  func(t *Thread) int64
	Delta func(t *Thread) int64 // AtomicAdd
	Old   func(t *Thread) int64 // AtomicCAS
	New   func(t *Thread) int64 // AtomicCAS / AtomicExchange
	Dst   Reg
}

// Apply computes the read-modify-write against the given current value,
// returning the stored value and the result for Dst. It is shared by every
// engine, so atomic semantics cannot diverge between them.
func (a *Atomic) Apply(t *Thread, cur int64) (store, result int64) {
	switch a.Kind {
	case AtomicAdd:
		nv := cur + a.Delta(t)
		return nv, nv
	case AtomicCAS:
		if cur == a.Old(t) {
			return a.New(t), 1
		}
		return cur, 0
	case AtomicExchange:
		return a.New(t), cur
	default:
		panic(fmt.Sprintf("dvm: unknown atomic kind %d", a.Kind))
	}
}

// Syscall describes an irrevocable external operation: Work units of
// simulated kernel time plus an optional effect executed exactly once.
type Syscall struct {
	// Name labels the syscall in traces (e.g. "mmap").
	Name string
	// Work is the simulated cost in busy-loop units.
	Work int
	// Effect, if non-nil, runs exactly once when the syscall executes.
	// It must not touch engine-mediated state.
	Effect func(t *Thread)
}

// SVal is the static abstraction of one operand closure: what the builder
// knew about the operand at emit time. The closures of Instr are opaque at
// analysis time, so the builder records the knowledge it does have — a
// compile-time constant (dvm.Const) or an address-class tag — and the static
// analyzer (internal/progcheck) treats everything else as unknown, its sound
// fallback. SVal never influences execution.
type SVal struct {
	// Known reports that the operand is the compile-time constant K.
	Known bool
	// K is the constant value when Known.
	K int64
	// Class optionally names the address class (abstract memory region)
	// the operand draws from, for static race candidate detection. Two
	// accesses may alias iff they share a class or a known constant.
	Class string
}

// Instr is a single VM instruction. Instruction closures must be
// deterministic functions of thread-local state and engine-mediated loads;
// they run concurrently across threads and must not share mutable Go state.
type Instr struct {
	Op     Opcode
	Cost   int64                 // DLC weight; defaults to 1 via the builder
	Do     func(t *Thread)       // OpDo body
	Cond   func(t *Thread) bool  // OpBranchUnless condition
	Target int                   // OpJump / OpBranchUnless destination
	Addr   func(t *Thread) int64 // address for load/store/lock/unlock/cond/barrier
	Addr2  func(t *Thread) int64 // second address (the mutex of OpCondWait)
	Val    func(t *Thread) int64 // OpStore value
	Dst    int                   // OpLoad destination register
	Sys    *Syscall              // OpSyscall payload
	Atom   *Atomic               // OpAtomic payload

	// SAddr and SAddr2 carry the builder's static knowledge of Addr and
	// Addr2 (internal/progcheck input); the zero value means unknown.
	SAddr  SVal
	SAddr2 SVal
	// SValue carries the builder's static knowledge of Val, the stored
	// value of OpStore. The footprint analysis uses it to recognize
	// commuting constant stores (two sections writing the same constant
	// to the same address are order-independent). Zero value means
	// unknown; never influences execution.
	SValue SVal
}

// Program is an immutable instruction sequence plus the register and scratch
// file sizes its threads need.
type Program struct {
	Name    string
	Code    []Instr
	NumRegs int
	Scratch int
}

// MemWindow is a thread's window onto shared memory: the VM's load and
// store instructions dispatch straight to it, with no per-access engine
// hook in between. The engine installs it in ThreadStart (Thread.Mem) and
// drives its publication lifecycle — commit, refresh, revert — from the
// synchronization hooks; the window itself only needs to answer reads and
// accept writes. internal/mempipe provides the implementations.
type MemWindow interface {
	// Load reads a shared-heap word through the window.
	Load(addr int64) int64
	// Store writes a shared-heap word through the window.
	Store(addr, val int64)
}

// Engine mediates every synchronization operation; plain memory accesses go
// through the Thread.Mem window the engine installs at thread start.
// Hooks run on the calling thread's goroutine. A hook may block (waiting for
// the deterministic turn) and, in the speculation engine, may restore the
// thread's snapshot — the interpreter simply continues from whatever PC the
// hook leaves behind.
type Engine interface {
	// Name returns the engine's short name for reports.
	Name() string
	// Deterministic reports whether two runs must produce identical
	// sync-order traces and heaps.
	Deterministic() bool
	// ThreadStart runs before the thread's first instruction. The engine
	// must set t.Mem here.
	ThreadStart(t *Thread)
	// ThreadExit runs after the thread halts; engines commit outstanding
	// speculation and leave turn arbitration here. It returns false if it
	// rewound the thread (a speculation revert at exit), in which case the
	// interpreter resumes execution and will call ThreadExit again.
	ThreadExit(t *Thread) bool
	// Tick charges cost to the thread's logical clock.
	Tick(t *Thread, cost int64)
	// Lock acquires lock l exclusively.
	Lock(t *Thread, l int64)
	// Unlock releases an exclusive acquisition of l.
	Unlock(t *Thread, l int64)
	// RLock acquires lock l in shared (reader) mode.
	RLock(t *Thread, l int64)
	// RUnlock releases a shared acquisition of l.
	RUnlock(t *Thread, l int64)
	// CondWait atomically releases lock l and waits on condition cv,
	// reacquiring l before returning.
	CondWait(t *Thread, cv, l int64)
	// CondSignal wakes at most one waiter of cv.
	CondSignal(t *Thread, cv int64)
	// CondBroadcast wakes all waiters of cv.
	CondBroadcast(t *Thread, cv int64)
	// BarrierWait blocks until all participants of barrier b arrive.
	BarrierWait(t *Thread, b int64)
	// Syscall performs an irrevocable external operation.
	Syscall(t *Thread, s *Syscall)
	// Atomic performs an atomic read-modify-write, returning the value
	// for the destination register.
	Atomic(t *Thread, a *Atomic) int64
	// Spawn and Join (pthread_create/join) are reached by no instruction:
	// every thread starts with Run. They stay because the benchmark's
	// tracing wrapper forwards them; engines implement them as no-ops.
	Spawn(t *Thread, target int)
	Join(t *Thread, target int)
}

// Thread is one simulated thread's complete mutable state.
type Thread struct {
	// ID is the thread's index, 0..N-1. It is stable across the run and
	// used for deterministic tie-breaking.
	ID int
	// PC is the index of the next instruction to execute.
	PC int
	// Regs is the register file.
	Regs []int64
	// Scratch is thread-private memory (never shared, never isolated).
	Scratch []int64
	// Mem is the thread's window onto shared memory, installed by the
	// engine in ThreadStart. OpLoad dispatches to it directly, OpStore
	// through Store.
	Mem MemWindow
	// Clock, when installed by the engine in ThreadStart, reads this
	// thread's deterministic logical clock (DLC). Operand closures use it
	// to stamp values in logical time — the basis of internal/opensim's
	// schedule-stable latency measurements. The published clock advances
	// at tick-batch flush points, which both backends place identically,
	// so a stamp read mid-stream is the same value under the interpreter
	// and the threaded-code backend. Nil on engines without a logical
	// clock (pthreads); programs that stamp must check.
	Clock func() int64

	rng    uint64 // deterministic per-thread PRNG state; part of snapshots
	halted bool
	stores int64 // stores and atomics executed (Stores); not part of snapshots

	// retired, when non-nil, counts executed instructions per opcode —
	// including re-executions after speculation reverts, so the counts are
	// the exact per-opcode decomposition of the retired-instruction stream
	// that feeds the DLC. Engines enable it (EnableRetiredCounts) when
	// telemetry is recording; nil keeps the dispatch loop branch-free of
	// counter updates beyond one nil compare.
	retired []int64

	prog *Program
	eng  Engine

	// EngineData carries per-thread engine state (views, speculation
	// logs). It is opaque to the VM.
	EngineData any
}

// Halt stops the thread after the current instruction.
func (t *Thread) Halt() { t.halted = true }

// EnableRetiredCounts turns on per-opcode retired-instruction counting for
// the thread. Call it from Engine.ThreadStart (before the first
// instruction); the counts are deterministic because the instruction stream
// is.
func (t *Thread) EnableRetiredCounts() {
	if t.retired == nil {
		t.retired = make([]int64, numOpcodes)
	}
}

// RetiredCounts returns the per-opcode executed-instruction counts (indexed
// by Opcode), or nil when counting was not enabled.
func (t *Thread) RetiredCounts() []int64 { return t.retired }

// Store writes a shared-heap word through the thread's window and counts it.
// OpStore executes through here in both backends.
func (t *Thread) Store(addr, val int64) {
	t.stores++
	t.Mem.Store(addr, val)
}

// Atomic executes a read-modify-write through the thread's engine, counts it
// as a store and returns its result, which also lands in register a.Dst.
// OpAtomic executes through here in both backends. Every read-modify-write
// counts, a failed CAS too, so Stores never misses an atomic that wrote.
func (t *Thread) Atomic(a *Atomic) int64 {
	t.stores++
	r := t.eng.Atomic(t, a)
	t.Regs[a.Dst] = r
	return r
}

// Stores returns how many stores the thread has executed, plain (OpStore) and
// atomic (OpAtomic) alike, re-executions after a speculation revert included.
// The count is a function of the instruction stream, hence deterministic, and
// only its differences
// mean anything: an engine compares it across a critical section to learn
// whether the section stored (internal/core advances a lock's commit
// sequence only for a section that did).
func (t *Thread) Stores() int64 { return t.stores }

// Rand returns the next value of the thread's deterministic PRNG
// (xorshift64*). The state is part of snapshots, so replayed code re-draws
// identical values.
func (t *Thread) Rand() uint64 {
	x := t.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	t.rng = x
	return x * 0x2545F4914F6CDD1D
}

// RandN returns a deterministic pseudo-random value in [0, n).
func (t *Thread) RandN(n int64) int64 {
	if n <= 0 {
		panic("dvm: RandN with non-positive bound")
	}
	return int64(t.Rand() % uint64(n))
}

// Snapshot is a copy of all thread-local state needed to restart execution
// from a speculation begin point: the VM analogue of the paper's saved stack
// and register contents.
type Snapshot struct {
	PC      int
	Regs    []int64
	Scratch []int64
	RNG     uint64
}

// Snapshot captures the thread state with the PC rewound to the instruction
// currently executing (speculation always begins at a lock acquisition; on
// restore the acquisition re-executes, this time non-speculatively).
func (t *Thread) Snapshot() *Snapshot { return t.SnapshotInto(nil) }

// SnapshotInto captures the thread state into s, reusing its register and
// scratch buffers; a nil s allocates a fresh snapshot. The returned snapshot
// is s (or the fresh one). The speculation engine keeps one snapshot per
// thread and recycles it across runs, so steady-state BEGINs allocate
// nothing.
func (t *Thread) SnapshotInto(s *Snapshot) *Snapshot {
	if s == nil {
		s = new(Snapshot)
	}
	s.PC = t.PC - 1
	s.RNG = t.rng
	if cap(s.Regs) < len(t.Regs) {
		s.Regs = make([]int64, len(t.Regs))
	} else {
		s.Regs = s.Regs[:len(t.Regs)]
	}
	copy(s.Regs, t.Regs)
	if len(t.Scratch) == 0 {
		s.Scratch = s.Scratch[:0]
	} else if cap(s.Scratch) < len(t.Scratch) {
		s.Scratch = make([]int64, len(t.Scratch))
	} else {
		s.Scratch = s.Scratch[:len(t.Scratch)]
	}
	copy(s.Scratch, t.Scratch)
	return s
}

// Restore rewinds the thread to a snapshot. The heap view is reverted
// separately by the engine. Restore clears any halt, since snapshots are
// always taken before the thread could have halted.
func (t *Thread) Restore(s *Snapshot) {
	t.PC = s.PC
	copy(t.Regs, s.Regs)
	copy(t.Scratch, s.Scratch)
	t.rng = s.RNG
	t.halted = false
}

// MatchesSnapshot verifies that the thread's restartable state — PC,
// registers, scratch and PRNG — equals the snapshot, returning a description
// of the first mismatch or nil. The invariant checker uses it to prove that
// a speculation revert restored the thread exactly to its BEGIN state.
func (t *Thread) MatchesSnapshot(s *Snapshot) error {
	if t.PC != s.PC {
		return fmt.Errorf("dvm: PC %d differs from snapshot PC %d", t.PC, s.PC)
	}
	if t.rng != s.RNG {
		return fmt.Errorf("dvm: PRNG state %#x differs from snapshot %#x", t.rng, s.RNG)
	}
	for i, r := range s.Regs {
		if t.Regs[i] != r {
			return fmt.Errorf("dvm: register %d = %d differs from snapshot %d", i, t.Regs[i], r)
		}
	}
	for i, w := range s.Scratch {
		if t.Scratch[i] != w {
			return fmt.Errorf("dvm: scratch word %d = %d differs from snapshot %d", i, t.Scratch[i], w)
		}
	}
	return nil
}

// Exec is one execution backend for validated programs: the interpreter
// (Interp) or the threaded-code comparator (Compile). Implementations must be
// safe for concurrent use by multiple threads running the same program —
// they hold only immutable per-program data, never per-thread state. The
// interface is sealed: an execution backend participates in the VM's tick
// batching and revert protocol, whose invariants (see Compile) outside
// packages cannot uphold.
type Exec interface {
	// run executes the thread's program until it halts. It must be
	// resumable: after an engine revert at thread exit, run is called
	// again with the PC the engine restored.
	run(t *Thread)
}

// interp is the switch-dispatch Exec backend: Thread.runInterp.
type interp struct{}

func (interp) run(t *Thread) { t.runInterp() }

// Interp returns the interpreter backend — the differential oracle the
// compiled backend is checked against.
func Interp() Exec { return interp{} }

// runInterp interprets the thread's program to completion.
//
// Retired-instruction cost is not ticked into the engine per instruction:
// local instructions accumulate their cost thread-locally and flush every
// dlc.TickWindow instructions, while engine (synchronization) operations
// flush the pending batch first — so the thread's published clock is exact
// at every synchronization point and the deterministic schedule is
// bit-identical to per-instruction ticking (see dlc.TickWindow) — and then
// charge their own cost immediately, exactly as before. A speculation
// revert can only happen inside an engine operation, where the pending
// batch is always zero, so rewinding the PC never double-charges or loses
// accumulated cost.
//
// The loop has exactly one exit protocol: the thread halts (OpHalt, a Do
// closure calling Halt, or the PC running off the end of the code — the
// latter possible only for hand-built unvalidated programs, and treated as
// an implicit halt), and then the tail batch flushes. Both exit paths are
// deliberately identical: ThreadExit must always observe a published clock
// and t.halted set, whichever way the program ended.
func (t *Thread) runInterp() {
	code := t.prog.Code
	eng := t.eng
	var pend int64 // local-instruction cost accumulated since the last flush
	steps := 0     // local instructions accumulated since the last flush
	for !t.halted {
		if t.PC >= len(code) {
			t.halted = true // off-the-end exit halts exactly like OpHalt
			break
		}
		in := &code[t.PC]
		t.PC++
		if t.retired != nil {
			t.retired[in.Op]++
		}
		switch in.Op {
		case OpDo:
			in.Do(t)
		case OpLoad:
			t.Regs[in.Dst] = t.Mem.Load(in.Addr(t))
		case OpStore:
			t.Store(in.Addr(t), in.Val(t))
		case OpJump:
			t.PC = in.Target
		case OpBranchUnless:
			if !in.Cond(t) {
				t.PC = in.Target
			}
		case OpHalt:
			t.halted = true
		default:
			// Engine operation: publish the exact clock before the engine
			// observes or orders anything, then charge the operation's own
			// cost as per-instruction ticking did.
			if pend != 0 {
				eng.Tick(t, pend)
			}
			pend, steps = 0, 0
			switch in.Op {
			case OpLock:
				eng.Lock(t, in.Addr(t))
			case OpUnlock:
				eng.Unlock(t, in.Addr(t))
			case OpRLock:
				eng.RLock(t, in.Addr(t))
			case OpRUnlock:
				eng.RUnlock(t, in.Addr(t))
			case OpCondWait:
				eng.CondWait(t, in.Addr(t), in.Addr2(t))
			case OpCondSignal:
				eng.CondSignal(t, in.Addr(t))
			case OpCondBroadcast:
				eng.CondBroadcast(t, in.Addr(t))
			case OpBarrier:
				eng.BarrierWait(t, in.Addr(t))
			case OpSyscall:
				eng.Syscall(t, in.Sys)
			case OpAtomic:
				t.Atomic(in.Atom)
			default:
				panic(fmt.Sprintf("dvm: unknown opcode %d", in.Op))
			}
			eng.Tick(t, in.Cost)
			continue
		}
		pend += in.Cost
		steps++
		if steps >= dlc.TickWindow {
			eng.Tick(t, pend)
			pend, steps = 0, 0
		}
	}
	// Publish the tail batch before ThreadExit takes its final turn.
	if pend != 0 {
		eng.Tick(t, pend)
	}
}

// lineWords is one 64-byte cache line in heap words.
const lineWords = 8

// newFile allocates a register file or scratch array of n words whose backing
// store is a whole number of cache lines. The allocator hands out blocks of
// such sizes line-aligned, so the file shares no line with anything else —
// above all not with another thread's file: allocated at their exact sizes,
// small files land side by side in one size class, and a two-register program
// put all four threads' hottest words on a single line.
func newFile(n int) []int64 {
	return make([]int64, n, (n+lineWords-1)/lineWords*lineWords)
}

// RunOption configures Run.
type RunOption func(*runConfig)

type runConfig struct {
	execs []Exec
}

// WithExecs supplies one pre-built execution backend per thread (index i
// runs thread i). Nil entries fall back to the interpreter. Its only caller
// is the benchmark's per-layer dispatch comparator, which passes programs it
// lowered with Compile.
func WithExecs(execs []Exec) RunOption {
	return func(c *runConfig) { c.execs = execs }
}

// Run executes one program per thread under the given engine and blocks
// until every thread exits. Thread i runs progs[i] with ID i; every thread
// starts at once.
func Run(eng Engine, progs []*Program, opts ...RunOption) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	execs := cfg.execs
	threads := make([]*Thread, len(progs))
	for i, p := range progs {
		threads[i] = &Thread{
			ID:      i,
			Regs:    newFile(p.NumRegs),
			Scratch: newFile(p.Scratch),
			rng:     uint64(i)*0x9E3779B97F4A7C15 + 0x853C49E6748FEA9B,
			prog:    p,
			eng:     eng,
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(threads))
	for i, t := range threads {
		x := Exec(interp{})
		if execs != nil && execs[i] != nil {
			x = execs[i]
		}
		go func(t *Thread, x Exec) {
			defer wg.Done()
			t.eng.ThreadStart(t)
			for {
				x.run(t)
				if t.eng.ThreadExit(t) {
					return
				}
			}
		}(t, x)
	}
	wg.Wait()
}
