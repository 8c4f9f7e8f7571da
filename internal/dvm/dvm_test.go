package dvm

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// nullEngine executes programs over a plain shared array with a global
// mutex per lock — just enough engine to unit-test the VM itself.
type nullEngine struct {
	mem   []int64
	memMu sync.Mutex
	locks []sync.Mutex
	ticks map[int]int64
	tickM sync.Mutex
}

func newNullEngine(words, locks int) *nullEngine {
	return &nullEngine{mem: make([]int64, words), locks: make([]sync.Mutex, locks), ticks: map[int]int64{}}
}

func (e *nullEngine) Name() string            { return "null" }
func (e *nullEngine) Deterministic() bool     { return false }
func (e *nullEngine) ThreadStart(t *Thread)   { t.Mem = e } // the engine is its own MemWindow
func (e *nullEngine) ThreadExit(*Thread) bool { return true }
func (e *nullEngine) Tick(t *Thread, cost int64) {
	e.tickM.Lock()
	e.ticks[t.ID] += cost
	e.tickM.Unlock()
}
func (e *nullEngine) Load(a int64) int64 {
	e.memMu.Lock()
	defer e.memMu.Unlock()
	return e.mem[a]
}
func (e *nullEngine) Store(a, v int64) {
	e.memMu.Lock()
	e.mem[a] = v
	e.memMu.Unlock()
}
func (e *nullEngine) Lock(_ *Thread, l int64)        { e.locks[l].Lock() }
func (e *nullEngine) Unlock(_ *Thread, l int64)      { e.locks[l].Unlock() }
func (e *nullEngine) RLock(_ *Thread, l int64)       { e.locks[l].Lock() }
func (e *nullEngine) RUnlock(_ *Thread, l int64)     { e.locks[l].Unlock() }
func (e *nullEngine) CondWait(*Thread, int64, int64) {}
func (e *nullEngine) CondSignal(*Thread, int64)      {}
func (e *nullEngine) CondBroadcast(*Thread, int64)   {}
func (e *nullEngine) BarrierWait(*Thread, int64)     {}
func (e *nullEngine) Syscall(t *Thread, s *Syscall) {
	if s.Effect != nil {
		s.Effect(t)
	}
}
func (e *nullEngine) Spawn(*Thread, int) {}
func (e *nullEngine) Join(*Thread, int)  {}
func (e *nullEngine) Atomic(t *Thread, a *Atomic) int64 {
	e.memMu.Lock()
	defer e.memMu.Unlock()
	addr := a.Addr(t)
	store, result := a.Apply(t, e.mem[addr])
	e.mem[addr] = store
	return result
}

func TestBuilderSequentialCompute(t *testing.T) {
	b := NewBuilder("seq")
	x := b.Reg()
	b.Set(x, 5)
	b.Do(func(th *Thread) { th.SetR(x, th.R(x)*3) })
	b.Store(Const(0), FromReg(x))
	p := b.Build()

	e := newNullEngine(8, 1)
	Run(e, []*Program{p})
	if got := e.mem[0]; got != 15 {
		t.Fatalf("mem[0] = %d, want 15", got)
	}
}

func TestBuilderForLoop(t *testing.T) {
	b := NewBuilder("loop")
	i := b.Reg()
	sum := b.Reg()
	b.ForN(i, 10, func() {
		b.Do(func(th *Thread) { th.AddR(sum, th.R(i)) })
	})
	b.Store(Const(0), FromReg(sum))
	p := b.Build()
	e := newNullEngine(1, 1)
	Run(e, []*Program{p})
	if got := e.mem[0]; got != 45 {
		t.Fatalf("sum = %d, want 45", got)
	}
}

func TestBuilderWhileAndIf(t *testing.T) {
	b := NewBuilder("collatz")
	n := b.Reg()
	steps := b.Reg()
	b.Set(n, 27)
	b.While(func(th *Thread) bool { return th.R(n) != 1 }, func() {
		b.IfElse(func(th *Thread) bool { return th.R(n)%2 == 0 },
			func() { b.Do(func(th *Thread) { th.SetR(n, th.R(n)/2) }) },
			func() { b.Do(func(th *Thread) { th.SetR(n, 3*th.R(n)+1) }) },
		)
		b.Do(func(th *Thread) { th.AddR(steps, 1) })
	})
	b.Store(Const(0), FromReg(steps))
	p := b.Build()
	e := newNullEngine(1, 1)
	Run(e, []*Program{p})
	if got := e.mem[0]; got != 111 {
		t.Fatalf("collatz(27) steps = %d, want 111", got)
	}
}

func TestBuilderNestedLoops(t *testing.T) {
	b := NewBuilder("nested")
	i, j, c := b.Reg(), b.Reg(), b.Reg()
	b.ForN(i, 7, func() {
		b.ForN(j, 11, func() {
			b.Do(func(th *Thread) { th.AddR(c, 1) })
		})
	})
	b.Store(Const(0), FromReg(c))
	e := newNullEngine(1, 1)
	Run(e, []*Program{b.Build()})
	if got := e.mem[0]; got != 77 {
		t.Fatalf("count = %d, want 77", got)
	}
}

func TestHaltStopsProgram(t *testing.T) {
	b := NewBuilder("halt")
	b.Store(Const(0), Const(1))
	b.Halt()
	b.Store(Const(0), Const(2))
	e := newNullEngine(1, 1)
	Run(e, []*Program{b.Build()})
	if got := e.mem[0]; got != 1 {
		t.Fatalf("mem[0] = %d, want 1 (Halt must stop the thread)", got)
	}
}

func TestScratchIsThreadPrivate(t *testing.T) {
	b := NewBuilder("scratch")
	base := b.Scratch(4)
	b.Do(func(th *Thread) { th.Scratch[base] = int64(th.ID) + 100 })
	b.Store(Dyn(func(th *Thread) int64 { return int64(th.ID) }), Dyn(func(th *Thread) int64 { return th.Scratch[base] }))
	p := b.Build()
	e := newNullEngine(4, 1)
	Run(e, []*Program{p, p, p})
	for id := int64(0); id < 3; id++ {
		if got := e.mem[id]; got != id+100 {
			t.Fatalf("mem[%d] = %d, want %d", id, got, id+100)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	th := &Thread{ID: 1, PC: 10, Regs: []int64{1, 2, 3}, Scratch: []int64{7}, rng: 99}
	th.PC++ // emulate the interpreter's post-fetch increment
	s := th.Snapshot()
	if s.PC != 10 {
		t.Fatalf("snapshot PC = %d, want 10 (rewound to the executing instruction)", s.PC)
	}
	th.Regs[0] = 100
	th.Scratch[0] = 200
	th.rng = 1
	th.PC = 42
	th.halted = true
	th.Restore(s)
	if th.PC != 10 || th.Regs[0] != 1 || th.Scratch[0] != 7 || th.rng != 99 {
		t.Fatalf("restore did not round-trip: %+v", th)
	}
	if th.halted {
		t.Fatal("restore must clear halt")
	}
}

func TestRandDeterministicPerThread(t *testing.T) {
	a := &Thread{ID: 3, rng: 12345}
	b := &Thread{ID: 3, rng: 12345}
	for i := 0; i < 100; i++ {
		if a.Rand() != b.Rand() {
			t.Fatal("identical PRNG states diverged")
		}
	}
	if a.RandN(10) < 0 || a.RandN(10) >= 10 {
		t.Fatal("RandN out of range")
	}
}

func TestRandSurvivesSnapshot(t *testing.T) {
	th := &Thread{ID: 0, rng: 777, Regs: []int64{}, PC: 1}
	s := th.Snapshot()
	first := th.Rand()
	th.Restore(s)
	if again := th.Rand(); again != first {
		t.Fatalf("PRNG not restored: %d vs %d", first, again)
	}
}

func TestTickCostsCharged(t *testing.T) {
	b := NewBuilder("costs")
	b.DoCost(5, func(*Thread) {})
	b.Do(func(*Thread) {})
	e := newNullEngine(1, 1)
	Run(e, []*Program{b.Build()})
	// 5 + 1 for the two Do instructions, + 1 for the implicit OpHalt that
	// Build appends.
	if got := e.ticks[0]; got != 7 {
		t.Fatalf("ticks = %d, want 7", got)
	}
}

func TestMultiThreadLocking(t *testing.T) {
	// Classic lost-update check: with a lock, N threads × K increments
	// must all survive even on the null engine.
	const n, k = 4, 200
	b := NewBuilder("inc")
	i := b.Reg()
	v := b.Reg()
	b.ForN(i, k, func() {
		b.Lock(Const(0))
		b.Load(v, Const(0))
		b.Store(Const(0), Dyn(func(th *Thread) int64 { return th.R(v) + 1 }))
		b.Unlock(Const(0))
	})
	p := b.Build()
	progs := make([]*Program, n)
	for j := range progs {
		progs[j] = p
	}
	e := newNullEngine(1, 1)
	Run(e, progs)
	if got := e.mem[0]; got != n*k {
		t.Fatalf("counter = %d, want %d", got, n*k)
	}
}

// TestQuickLoopIterations property: ForN(i, n) runs its body exactly n
// times for arbitrary small n.
func TestQuickLoopIterations(t *testing.T) {
	f := func(n uint8) bool {
		b := NewBuilder("q")
		i, c := b.Reg(), b.Reg()
		b.ForN(i, int64(n), func() {
			b.Do(func(th *Thread) { th.AddR(c, 1) })
		})
		b.Store(Const(0), FromReg(c))
		e := newNullEngine(1, 1)
		Run(e, []*Program{b.Build()})
		return e.mem[0] == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("second Build must panic")
		}
	}()
	b := NewBuilder("x")
	b.Build()
	b.Build()
}

// TestThreadFilesDoNotShareCacheLines is the regression test for the
// register-file false sharing the benchmark found: two-register programs put
// every thread's registers on one 64-byte line. Each thread's Regs and
// Scratch must start on a line boundary and own every line they touch, with
// the lengths Snapshot/Restore copy left exactly as the program declared.
func TestThreadFilesDoNotShareCacheLines(t *testing.T) {
	// kind is which file a record is (0 Regs, 1 Scratch): the threads
	// append concurrently, so a record's position says nothing about it.
	type file struct {
		tid, kind, words int
		base             uintptr
	}
	var mu sync.Mutex
	var files []file
	record := func(th *Thread, kind int, s []int64) {
		mu.Lock()
		files = append(files, file{th.ID, kind, len(s), uintptr(unsafe.Pointer(unsafe.SliceData(s)))})
		mu.Unlock()
	}
	progs := make([]*Program, 4)
	for i := range progs {
		b := NewBuilder("files")
		b.Reg()
		b.Reg()
		b.Scratch(3 + 8*i) // sizes straddling one and several lines
		b.Do(func(th *Thread) {
			record(th, 0, th.Regs)
			record(th, 1, th.Scratch)
			if s := th.Snapshot(); len(s.Regs) != len(th.Regs) || len(s.Scratch) != len(th.Scratch) {
				t.Errorf("thread %d: snapshot lengths %d/%d, files %d/%d", th.ID, len(s.Regs), len(s.Scratch), len(th.Regs), len(th.Scratch))
			}
		})
		progs[i] = b.Build()
		if progs[i].NumRegs != 2 || progs[i].Scratch != 3+8*i {
			t.Fatalf("program %d declares %d regs, %d scratch words", i, progs[i].NumRegs, progs[i].Scratch)
		}
	}
	Run(newNullEngine(1, 1), progs)

	owner := map[uintptr]int{} // cache line -> the one file on it
	for k, f := range files {
		if want := []int{2, 3 + 8*f.tid}[f.kind]; f.words != want {
			t.Errorf("thread %d file %d has %d words, want %d", f.tid, f.kind, f.words, want)
		}
		if f.base%64 != 0 {
			t.Errorf("thread %d file %d starts at %#x, not on a cache line", f.tid, f.kind, f.base)
		}
		for line := f.base / 64; line <= (f.base+uintptr(f.words)*8-1)/64; line++ {
			if prev, taken := owner[line]; taken {
				t.Errorf("cache line %#x holds file %d and file %d", line*64, prev, k)
			}
			owner[line] = k
		}
	}
}
