package dvm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// traceEngine records every engine-observable event of a single-threaded
// run — tick values, loads, stores, synchronization — so interpreter and
// compiled executions can be compared event-for-event. It is the
// differential-oracle harness at the VM layer: if the two backends present
// different streams here, they would diverge under a deterministic engine.
type traceEngine struct {
	mem    []int64
	events []string

	// onLock, when set, runs before each Lock event is recorded (for the
	// revert-simulation tests).
	onLock func(t *Thread, l int64)
}

func newTraceEngine(words int) *traceEngine {
	return &traceEngine{mem: make([]int64, words)}
}

func (e *traceEngine) ev(format string, args ...any) {
	e.events = append(e.events, fmt.Sprintf(format, args...))
}

func (e *traceEngine) Name() string            { return "trace" }
func (e *traceEngine) Deterministic() bool     { return true }
func (e *traceEngine) ThreadStart(t *Thread)   { t.Mem = e }
func (e *traceEngine) ThreadExit(*Thread) bool { return true }
func (e *traceEngine) Tick(t *Thread, cost int64) {
	e.ev("tick:%d", cost)
}
func (e *traceEngine) Load(a int64) int64 {
	v := e.mem[a]
	e.ev("load:%d=%d", a, v)
	return v
}
func (e *traceEngine) Store(a, v int64) {
	e.mem[a] = v
	e.ev("store:%d=%d", a, v)
}
func (e *traceEngine) Lock(t *Thread, l int64) {
	if e.onLock != nil {
		e.onLock(t, l)
	}
	e.ev("lock:%d", l)
}
func (e *traceEngine) Unlock(t *Thread, l int64)  { e.ev("unlock:%d", l) }
func (e *traceEngine) RLock(t *Thread, l int64)   { e.ev("rlock:%d", l) }
func (e *traceEngine) RUnlock(t *Thread, l int64) { e.ev("runlock:%d", l) }
func (e *traceEngine) CondWait(t *Thread, cv, l int64) {
	e.ev("wait:%d,%d", cv, l)
}
func (e *traceEngine) CondSignal(t *Thread, cv int64)    { e.ev("signal:%d", cv) }
func (e *traceEngine) CondBroadcast(t *Thread, cv int64) { e.ev("broadcast:%d", cv) }
func (e *traceEngine) BarrierWait(t *Thread, b int64)    { e.ev("barrier:%d", b) }
func (e *traceEngine) Syscall(t *Thread, s *Syscall) {
	e.ev("syscall:%d", s.Work)
	if s.Effect != nil {
		s.Effect(t)
	}
}
func (e *traceEngine) Spawn(t *Thread, target int) { e.ev("spawn:%d", target) }
func (e *traceEngine) Join(t *Thread, target int)  { e.ev("join:%d", target) }
func (e *traceEngine) Atomic(t *Thread, a *Atomic) int64 {
	addr := a.Addr(t)
	store, result := a.Apply(t, e.mem[addr])
	e.mem[addr] = store
	e.ev("atomic:%d=%d", addr, store)
	return result
}

// runBackend executes p on a fresh traceEngine under the given backend and
// returns the engine, the thread, and the recorded event stream.
func runBackend(t *testing.T, p *Program, words int, x Exec, hook func(*traceEngine)) (*traceEngine, *Thread) {
	t.Helper()
	e := newTraceEngine(words)
	if hook != nil {
		hook(e)
	}
	th := &Thread{ID: 0, Regs: make([]int64, p.NumRegs), Scratch: make([]int64, p.Scratch), prog: p, eng: e}
	e.ThreadStart(th)
	th.EnableRetiredCounts()
	x.run(th)
	return e, th
}

// assertBackendsAgree runs p under the interpreter and the compiled backend
// and requires identical event streams (every tick value at every position,
// every memory and sync operation in order), identical final memory,
// identical per-opcode retired counts, and identical final PC/halted state.
func assertBackendsAgree(t *testing.T, p *Program, words int, hook func(*traceEngine)) {
	t.Helper()
	c, err := Compile(p)
	if err != nil {
		t.Fatalf("compile %q: %v", p.Name, err)
	}
	ie, it := runBackend(t, p, words, Interp(), hook)
	ce, ct := runBackend(t, p, words, c, hook)
	if !reflect.DeepEqual(ie.events, ce.events) {
		max := len(ie.events)
		if len(ce.events) > max {
			max = len(ce.events)
		}
		for i := 0; i < max; i++ {
			var a, b string
			if i < len(ie.events) {
				a = ie.events[i]
			}
			if i < len(ce.events) {
				b = ce.events[i]
			}
			if a != b {
				t.Fatalf("%q: event %d diverges: interp %q, compiled %q", p.Name, i, a, b)
			}
		}
		t.Fatalf("%q: event streams diverge in length: interp %d, compiled %d", p.Name, len(ie.events), len(ce.events))
	}
	if !reflect.DeepEqual(ie.mem, ce.mem) {
		t.Fatalf("%q: final memory diverges:\ninterp   %v\ncompiled %v", p.Name, ie.mem, ce.mem)
	}
	if !reflect.DeepEqual(it.RetiredCounts(), ct.RetiredCounts()) {
		t.Fatalf("%q: retired counts diverge:\ninterp   %v\ncompiled %v", p.Name, it.RetiredCounts(), ct.RetiredCounts())
	}
	if it.PC != ct.PC || it.halted != ct.halted {
		t.Fatalf("%q: final state diverges: interp PC=%d halted=%v, compiled PC=%d halted=%v",
			p.Name, it.PC, it.halted, ct.PC, ct.halted)
	}
}

// TestCompiledMatchesInterpStraightLine covers the fusion patterns on
// straight-line code: load-do-store (all four constant/dynamic address
// combinations), load-do, do-store, do-do, and singles.
func TestCompiledMatchesInterpStraightLine(t *testing.T) {
	b := NewBuilder("straight")
	r := b.Reg()
	x := b.Reg()
	// Constant-address RMW: mLoadKDoStoreK.
	b.Load(r, Const(0))
	b.Do(func(t *Thread) { t.SetR(r, t.R(r)+7) })
	b.Store(Const(0), FromReg(r))
	// Dynamic-address RMW: mLoadDoStore.
	b.Set(x, 3)
	b.Load(r, Dyn(func(t *Thread) int64 { return t.R(x) }))
	b.Do(func(t *Thread) { t.SetR(r, t.R(r)*2) })
	b.Store(Dyn(func(t *Thread) int64 { return t.R(x) }), FromReg(r))
	// load-do and do-store pairs, and a lone store.
	b.Load(r, Const(1))
	b.Do(func(t *Thread) { t.SetR(r, t.R(r)+1) })
	b.Do(func(t *Thread) { t.SetR(x, t.R(x)+t.R(r)) })
	b.Store(Const(2), FromReg(x))
	b.Store(Const(4), Const(99))
	assertBackendsAgree(t, b.Build(), 8, func(e *traceEngine) {
		e.mem[0] = 5
		e.mem[3] = 11
	})
}

// TestStoresCountedByBothBackends: Thread.Stores counts every executed
// OpStore under the interpreter and under every store-bearing micro of the
// compiled backend — the program is checked to lower to all eight — and every
// OpAtomic under both, so an engine reading the count across a critical
// section sees the same value whichever backend ran the section.
func TestStoresCountedByBothBackends(t *testing.T) {
	b := NewBuilder("stores")
	r, x := b.Reg(), b.Reg()
	at := Dyn(func(t *Thread) int64 { return t.R(x) })
	inc := func(t *Thread) { t.SetR(r, t.R(r)+1) }
	b.Set(x, 6)
	b.Load(r, Const(0)) // mLoadKDoStoreK
	b.Do(inc)
	b.Store(Const(0), FromReg(r))
	b.Load(r, at) // mLoadDoStore
	b.Do(inc)
	b.Store(at, FromReg(r))
	b.Load(r, Const(1)) // mLoadKDoStore
	b.Do(inc)
	b.Store(at, FromReg(r))
	b.Load(r, at) // mLoadDoStoreK
	b.Do(inc)
	b.Store(Const(2), FromReg(r))
	b.Store(Const(3), Const(9)) // mStoreK
	b.Do(inc)                   // mDoStore
	b.Store(at, FromReg(r))
	b.Do(inc) // mDoStoreK
	b.Store(Const(4), FromReg(r))
	b.Load(r, Const(5)) // mLoad, then mStore
	b.Store(at, FromReg(r))
	b.AtomicAdd(r, Const(7), Const(1))
	b.AtomicCAS(r, Const(7), Const(0), Const(3)) // fails, still counted
	p := b.Build()
	const want = 10

	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	lowered := map[microKind]bool{}
	for _, blk := range c.blocks {
		for _, m := range blk.body {
			lowered[m.kind] = true
		}
	}
	for _, k := range []microKind{mStore, mStoreK, mDoStore, mDoStoreK, mLoadDoStore, mLoadKDoStore, mLoadDoStoreK, mLoadKDoStoreK} {
		if !lowered[k] {
			t.Fatalf("the program does not lower to store micro %d; the test would miss it", k)
		}
	}
	for _, x := range []struct {
		name string
		exec Exec
	}{{"interpreter", Interp()}, {"compiled", c}} {
		e, th := runBackend(t, p, 8, x.exec, nil)
		events := 0
		for _, ev := range e.events {
			if strings.HasPrefix(ev, "store:") || strings.HasPrefix(ev, "atomic:") {
				events++
			}
		}
		if th.Stores() != want || events != want {
			t.Errorf("%s: Stores() = %d over %d executed stores and atomics, want %d", x.name, th.Stores(), events, want)
		}
	}
}

// TestCompiledMatchesInterpWindowCrossing runs straight-line and looped
// code long enough to cross many dlc.TickWindow boundaries, with uneven
// per-instruction costs, so batched charging must flush at exactly the
// interpreter's instructions with exactly its batch values.
func TestCompiledMatchesInterpWindowCrossing(t *testing.T) {
	b := NewBuilder("window")
	r := b.Reg()
	for i := 0; i < 150; i++ {
		cost := int64(1 + i%7)
		b.DoCost(cost, func(t *Thread) { t.AddR(r, 1) })
	}
	b.Store(Const(0), FromReg(r))
	assertBackendsAgree(t, b.Build(), 4, nil)

	b2 := NewBuilder("window-loop")
	i := b2.Reg()
	sum := b2.Reg()
	b2.ForN(i, 500, func() {
		b2.DoCost(3, func(t *Thread) { t.AddR(sum, t.R(i)) })
	})
	b2.Store(Const(0), FromReg(sum))
	assertBackendsAgree(t, b2.Build(), 4, nil)
}

// TestCompiledMatchesInterpBranches covers If, IfElse, While and nested
// loops — every control-transfer shape the builder emits, including the
// load-branch fusion on While conditions reading a just-loaded register.
func TestCompiledMatchesInterpBranches(t *testing.T) {
	b := NewBuilder("branches")
	i := b.Reg()
	v := b.Reg()
	b.ForN(i, 40, func() {
		b.Load(v, Const(1))
		b.If(func(t *Thread) bool { return t.R(i)%3 == 0 }, func() {
			b.Do(func(t *Thread) { t.AddR(v, 10) })
		})
		b.IfElse(func(t *Thread) bool { return t.R(i)%2 == 0 },
			func() { b.Store(Const(1), FromReg(v)) },
			func() { b.Store(Const(2), FromReg(v)) })
	})
	assertBackendsAgree(t, b.Build(), 4, nil)

	// While with a loaded condition register: the trailing load fuses
	// into the branch condition.
	b2 := NewBuilder("load-branch")
	n := b2.Reg()
	b2.Store(Const(0), Const(6))
	b2.Load(n, Const(0))
	b2.While(func(t *Thread) bool { return t.R(n) > 0 }, func() {
		b2.Store(Const(0), Dyn(func(t *Thread) int64 { return t.R(n) - 1 }))
		b2.Load(n, Const(0))
	})
	assertBackendsAgree(t, b2.Build(), 4, nil)
}

// TestCompiledMatchesInterpEngineOps covers synchronization, atomics and
// syscalls: engine ops are single-instruction blocks that flush the tick
// batch first, so every published clock at a sync point must match.
func TestCompiledMatchesInterpEngineOps(t *testing.T) {
	b := NewBuilder("engine-ops")
	r := b.Reg()
	b.Lock(Const(0))
	b.Load(r, Const(0))
	b.Do(func(t *Thread) { t.SetR(r, t.R(r)+1) })
	b.Store(Const(0), FromReg(r))
	b.Unlock(Const(0))
	b.RLock(Const(1))
	b.Load(r, Const(1))
	b.RUnlock(Const(1))
	b.AtomicAdd(r, Const(2), Const(5))
	b.Syscall(&Syscall{Work: 17})
	b.CondSignal(Const(0))
	b.Barrier(Const(0))
	assertBackendsAgree(t, b.Build(), 8, nil)
}

// TestCompiledMatchesInterpEarlyHalt halts the thread from a Do closure in
// the middle of a fused do-store superinstruction: the store must not
// execute, the retired counts must cover exactly the executed prefix, and
// the final PC must be the halting instruction's successor.
func TestCompiledMatchesInterpEarlyHalt(t *testing.T) {
	b := NewBuilder("early-halt")
	r := b.Reg()
	b.Load(r, Const(0))
	b.Do(func(t *Thread) { t.Halt() }) // halts mid-fused-block
	b.Store(Const(1), Const(42))       // must never execute
	b.Store(Const(2), Const(43))
	assertBackendsAgree(t, b.Build(), 4, nil)

	// Halt mid do-do pair.
	b2 := NewBuilder("early-halt-dodo")
	x := b2.Reg()
	b2.Do(func(t *Thread) { t.SetR(x, 1); t.Halt() })
	b2.Do(func(t *Thread) { t.SetR(x, 2) })
	b2.Store(Const(0), FromReg(x))
	assertBackendsAgree(t, b2.Build(), 4, nil)
}

// TestCompiledRevertReentry simulates a speculation revert: the engine's
// Lock hook snapshots the thread at the first acquisition and restores that
// snapshot at a later one, exactly as the core engine reverts a failed
// speculative run. The compiled backend must re-enter at the restored PC (a
// block leader) and re-execute the fused region identically — the event
// streams of both backends, including the duplicated re-executed events,
// must match bit-for-bit.
func TestCompiledRevertReentry(t *testing.T) {
	b := NewBuilder("revert")
	r := b.Reg()
	b.Lock(Const(0)) // snapshot here; revert restores this PC
	b.Load(r, Const(0))
	b.Do(func(t *Thread) { t.SetR(r, t.R(r)+1) })
	b.Store(Const(0), FromReg(r))
	b.Lock(Const(1)) // the revert fires here, once
	b.Do(func(t *Thread) { t.AddR(r, 100) })
	b.Unlock(Const(1))
	b.Unlock(Const(0))
	b.Store(Const(1), FromReg(r))

	hook := func(e *traceEngine) {
		var snap *Snapshot
		reverted := false
		e.onLock = func(t *Thread, l int64) {
			if l == 0 && snap == nil {
				snap = t.Snapshot()
				return
			}
			if l == 1 && !reverted {
				reverted = true
				e.ev("revert")
				t.Restore(snap)
			}
		}
	}
	assertBackendsAgree(t, b.Build(), 4, hook)
}

// TestCompiledRevertMidWindow forces the revert while the re-executed
// region crosses tick-window boundaries, so re-charged batches must
// replay exactly.
func TestCompiledRevertMidWindow(t *testing.T) {
	b := NewBuilder("revert-window")
	i := b.Reg()
	sum := b.Reg()
	b.Lock(Const(0))
	b.ForN(i, 100, func() {
		b.DoCost(2, func(t *Thread) { t.AddR(sum, 1) })
	})
	b.Lock(Const(1))
	b.Unlock(Const(1))
	b.Unlock(Const(0))
	b.Store(Const(0), FromReg(sum))

	hook := func(e *traceEngine) {
		var snap *Snapshot
		reverted := false
		e.onLock = func(t *Thread, l int64) {
			if l == 0 && snap == nil {
				snap = t.Snapshot()
				return
			}
			if l == 1 && !reverted {
				reverted = true
				e.ev("revert")
				t.Restore(snap)
			}
		}
	}
	assertBackendsAgree(t, b.Build(), 4, hook)
}

// TestOffEndExitMatchesHaltExit is the regression test for the tail-flush
// exit protocol: a hand-built (unvalidated) program whose PC runs off the
// end of the code must flush its tail batch and set halted exactly like an
// explicit OpHalt exit does.
func TestOffEndExitMatchesHaltExit(t *testing.T) {
	mk := func(halt bool) *Program {
		code := []Instr{
			{Op: OpDo, Cost: 3, Do: func(t *Thread) {}},
			{Op: OpDo, Cost: 4, Do: func(t *Thread) {}},
		}
		if halt {
			code = append(code, Instr{Op: OpHalt, Cost: 1})
		}
		return &Program{Name: "tail", Code: code, NumRegs: 1}
	}

	run := func(p *Program) (*traceEngine, *Thread) {
		e := newTraceEngine(1)
		th := &Thread{ID: 0, Regs: make([]int64, p.NumRegs), prog: p, eng: e}
		e.ThreadStart(th)
		th.runInterp()
		return e, th
	}

	offEng, offTh := run(mk(false))
	haltEng, haltTh := run(mk(true))
	if !offTh.halted {
		t.Fatalf("off-the-end exit left halted unset")
	}
	if !haltTh.halted {
		t.Fatalf("OpHalt exit left halted unset")
	}
	// Both exits must publish the full accumulated cost; the halt variant
	// additionally retires the halt instruction itself.
	wantOff := []string{"tick:7"}
	wantHalt := []string{"tick:8"}
	if !reflect.DeepEqual(offEng.events, wantOff) {
		t.Fatalf("off-the-end exit events = %v, want %v", offEng.events, wantOff)
	}
	if !reflect.DeepEqual(haltEng.events, wantHalt) {
		t.Fatalf("OpHalt exit events = %v, want %v", haltEng.events, wantHalt)
	}

	// The compiled backend refuses off-the-end programs outright: Compile
	// validates, and validation requires explicit halts.
	if _, err := Compile(mk(false)); err == nil {
		t.Fatalf("Compile accepted a program that falls off the end")
	}
}

// TestCompileStats sanity-checks the lowering statistics on a fusion-heavy
// program.
func TestCompileStats(t *testing.T) {
	b := NewBuilder("stats")
	r := b.Reg()
	b.Load(r, Const(0))
	b.Do(func(t *Thread) { t.AddR(r, 1) })
	b.Store(Const(0), FromReg(r))
	b.Lock(Const(0))
	b.Unlock(Const(0))
	p := b.Build()
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Instructions != len(p.Code) {
		t.Errorf("Instructions = %d, want %d", st.Instructions, len(p.Code))
	}
	if st.Superinstrs == 0 {
		t.Errorf("Superinstrs = 0, want the load-do-store fusion counted")
	}
	if st.FusedBlocks == 0 {
		t.Errorf("FusedBlocks = 0, want at least one")
	}
	if st.Blocks < 3 {
		t.Errorf("Blocks = %d, want at least body + lock + unlock", st.Blocks)
	}
}

// TestValidateRejectsMidBlockTarget pins the Validate contract the
// compiled backend relies on: control transfers must land on fusion-block
// entry points.
func TestValidateRejectsMidBlockTarget(t *testing.T) {
	// Hand-built: branch into the middle of a straight-line run.
	p := &Program{
		Name: "midblock",
		Code: []Instr{
			{Op: OpBranchUnless, Cost: 1, Cond: func(*Thread) bool { return false }, Target: 2},
			{Op: OpDo, Cost: 1, Do: func(t *Thread) {}},
			{Op: OpDo, Cost: 1, Do: func(t *Thread) {}},
			{Op: OpHalt, Cost: 1},
		},
		NumRegs: 1,
	}
	// Target 2 is a branch target, which makes it a leader by construction —
	// so this program is actually valid. The invalid shape needs a pc
	// reachable both by fallthrough and not registered as a leader, which
	// blockLeaders makes impossible: every jump target IS a leader. The
	// test therefore asserts the positive contract instead: validation
	// passes and compilation places a block entry at the target.
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.entry[2] < 0 {
		t.Fatalf("jump target 2 is not a block entry")
	}
}
