package dvm

import "fmt"

// Reg names a register allocated by a Builder.
type Reg int

// R reads register r. It is the closure-side accessor matching Builder regs.
func (t *Thread) R(r Reg) int64 { return t.Regs[r] }

// SetR writes register r.
func (t *Thread) SetR(r Reg, v int64) { t.Regs[r] = v }

// AddR adds delta to register r and returns the new value.
func (t *Thread) AddR(r Reg, delta int64) int64 {
	t.Regs[r] += delta
	return t.Regs[r]
}

// Val is one operand of an emitted instruction: the closure the interpreter
// evaluates at run time, plus whatever the builder knows about it statically
// (a compile-time constant, an address-class tag). Construct one with Const,
// FromReg or Dyn; the static half feeds internal/progcheck and never
// influences execution.
type Val struct {
	fn    func(t *Thread) int64
	known bool
	k     int64
	class string
}

// Const returns the operand for a compile-time constant. The constant is
// recorded statically, so the analyzer sees through it.
func Const(v int64) Val {
	return Val{fn: func(*Thread) int64 { return v }, known: true, k: v}
}

// FromReg returns the operand reading register r. Its value is dynamic, so
// the analyzer treats it as unknown unless tagged with InClass.
func FromReg(r Reg) Val {
	return Val{fn: func(t *Thread) int64 { return t.R(r) }}
}

// Dyn wraps an arbitrary closure as an operand. The analyzer treats it as
// unknown (the sound fallback) unless tagged with InClass.
func Dyn(f func(t *Thread) int64) Val {
	return Val{fn: f}
}

// InClass tags the operand with an address-class name: a declaration that
// every value it produces stays inside the named abstract region, and that
// operands of different classes never alias. internal/progcheck uses class
// tags to find conflicting accesses whose static locksets are disjoint; a
// wrong class declaration yields wrong reports, so tag only what is true by
// construction.
func (v Val) InClass(name string) Val {
	v.class = name
	return v
}

// Eval evaluates the operand on thread t, exactly as the interpreter would.
func (v Val) Eval(t *Thread) int64 { return v.fn(t) }

// Static returns the operand's static abstraction.
func (v Val) Static() SVal { return SVal{Known: v.known, K: v.k, Class: v.class} }

// Builder assembles a Program from structured control flow. All emit
// methods append instructions; loops and conditionals take body callbacks
// that emit into the same builder, with jump targets patched on completion.
//
// Builders are single-use: call Build exactly once.
type Builder struct {
	name    string
	code    []Instr
	numRegs int
	scratch int
	built   bool
}

// NewBuilder starts a program named name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// Reg allocates a fresh register.
func (b *Builder) Reg() Reg {
	r := Reg(b.numRegs)
	b.numRegs++
	return r
}

// Regs allocates n fresh registers.
func (b *Builder) Regs(n int) []Reg {
	rs := make([]Reg, n)
	for i := range rs {
		rs[i] = b.Reg()
	}
	return rs
}

// Scratch reserves thread-private scratch memory of at least n words and
// returns the base offset of the reserved block.
func (b *Builder) Scratch(n int) int64 {
	base := int64(b.scratch)
	b.scratch += n
	return base
}

// emit appends an instruction and returns its index.
func (b *Builder) emit(in Instr) int {
	if in.Cost == 0 {
		in.Cost = 1
	}
	b.code = append(b.code, in)
	return len(b.code) - 1
}

// Do emits a compute instruction with DLC cost 1.
func (b *Builder) Do(f func(t *Thread)) {
	b.emit(Instr{Op: OpDo, Do: f})
}

// DoCost emits a compute instruction with an explicit DLC cost, for bodies
// that model more than one unit of work.
func (b *Builder) DoCost(cost int64, f func(t *Thread)) {
	b.emit(Instr{Op: OpDo, Cost: cost, Do: f})
}

// Set emits an instruction storing a constant into a register.
func (b *Builder) Set(r Reg, v int64) {
	b.Do(func(t *Thread) { t.SetR(r, v) })
}

// Load emits a shared-heap read into dst.
func (b *Builder) Load(dst Reg, addr Val) {
	b.emit(Instr{Op: OpLoad, Dst: int(dst), Addr: addr.fn, SAddr: addr.Static()})
}

// Store emits a shared-heap write.
func (b *Builder) Store(addr Val, val Val) {
	b.emit(Instr{Op: OpStore, Addr: addr.fn, Val: val.fn, SAddr: addr.Static(), SValue: val.Static()})
}

// Lock emits a lock acquisition.
func (b *Builder) Lock(l Val) {
	b.emit(Instr{Op: OpLock, Addr: l.fn, SAddr: l.Static()})
}

// Unlock emits a lock release.
func (b *Builder) Unlock(l Val) {
	b.emit(Instr{Op: OpUnlock, Addr: l.fn, SAddr: l.Static()})
}

// RLock emits a shared (reader) lock acquisition.
func (b *Builder) RLock(l Val) {
	b.emit(Instr{Op: OpRLock, Addr: l.fn, SAddr: l.Static()})
}

// RUnlock emits a shared lock release.
func (b *Builder) RUnlock(l Val) {
	b.emit(Instr{Op: OpRUnlock, Addr: l.fn, SAddr: l.Static()})
}

// CondWait emits a condition-variable wait: release l, wait on cv,
// reacquire l.
func (b *Builder) CondWait(cv, l Val) {
	b.emit(Instr{Op: OpCondWait, Addr: cv.fn, Addr2: l.fn, SAddr: cv.Static(), SAddr2: l.Static()})
}

// CondSignal emits a condition-variable signal.
func (b *Builder) CondSignal(cv Val) {
	b.emit(Instr{Op: OpCondSignal, Addr: cv.fn, SAddr: cv.Static()})
}

// CondBroadcast emits a condition-variable broadcast.
func (b *Builder) CondBroadcast(cv Val) {
	b.emit(Instr{Op: OpCondBroadcast, Addr: cv.fn, SAddr: cv.Static()})
}

// Barrier emits a barrier wait.
func (b *Builder) Barrier(id Val) {
	b.emit(Instr{Op: OpBarrier, Addr: id.fn, SAddr: id.Static()})
}

// Syscall emits an irrevocable external operation.
func (b *Builder) Syscall(s *Syscall) {
	b.emit(Instr{Op: OpSyscall, Sys: s})
}

// Halt emits an explicit thread termination.
func (b *Builder) Halt() {
	b.emit(Instr{Op: OpHalt})
}

// AtomicAdd emits an atomic fetch-add; the new value lands in dst.
func (b *Builder) AtomicAdd(dst Reg, addr, delta Val) {
	b.emit(Instr{Op: OpAtomic, SAddr: addr.Static(),
		Atom: &Atomic{Kind: AtomicAdd, Addr: addr.fn, Delta: delta.fn, Dst: dst}})
}

// AtomicCAS emits an atomic compare-and-swap; dst receives 1 on success.
func (b *Builder) AtomicCAS(dst Reg, addr, old, new Val) {
	b.emit(Instr{Op: OpAtomic, SAddr: addr.Static(),
		Atom: &Atomic{Kind: AtomicCAS, Addr: addr.fn, Old: old.fn, New: new.fn, Dst: dst}})
}

// AtomicExchange emits an atomic swap; dst receives the previous value.
func (b *Builder) AtomicExchange(dst Reg, addr, new Val) {
	b.emit(Instr{Op: OpAtomic, SAddr: addr.Static(),
		Atom: &Atomic{Kind: AtomicExchange, Addr: addr.fn, New: new.fn, Dst: dst}})
}

// While emits a pre-tested loop: while cond(t) { body }.
func (b *Builder) While(cond func(t *Thread) bool, body func()) {
	start := b.emit(Instr{Op: OpBranchUnless, Cond: cond})
	body()
	b.emit(Instr{Op: OpJump, Target: start})
	b.code[start].Target = len(b.code)
}

// For emits: for r = from; r < to(t); r++ { body }. The bound is
// re-evaluated each iteration.
func (b *Builder) For(r Reg, from int64, to Val, body func()) {
	b.Set(r, from)
	b.While(func(t *Thread) bool { return t.R(r) < to.fn(t) }, func() {
		body()
		b.Do(func(t *Thread) { t.AddR(r, 1) })
	})
}

// ForN emits a loop of exactly n iterations with r counting 0..n-1.
func (b *Builder) ForN(r Reg, n int64, body func()) {
	b.For(r, 0, Const(n), body)
}

// If emits: if cond(t) { then }.
func (b *Builder) If(cond func(t *Thread) bool, then func()) {
	br := b.emit(Instr{Op: OpBranchUnless, Cond: cond})
	then()
	b.code[br].Target = len(b.code)
}

// IfElse emits: if cond(t) { then } else { els }.
func (b *Builder) IfElse(cond func(t *Thread) bool, then, els func()) {
	br := b.emit(Instr{Op: OpBranchUnless, Cond: cond})
	then()
	j := b.emit(Instr{Op: OpJump})
	b.code[br].Target = len(b.code)
	els()
	b.code[j].Target = len(b.code)
}

// Build finalizes the program. Every builder program halts explicitly: if
// the emitted code could fall off the end — the last instruction is not an
// OpHalt, or a patched branch targets one past the end — Build appends a
// final OpHalt, so Validate's termination check holds by construction.
func (b *Builder) Build() *Program {
	if b.built {
		panic(fmt.Sprintf("dvm: program %q built twice", b.name))
	}
	b.built = true
	n := len(b.code)
	needHalt := n == 0 || b.code[n-1].Op != OpHalt
	if !needHalt {
		for pc := range b.code {
			in := &b.code[pc]
			if (in.Op == OpJump || in.Op == OpBranchUnless) && in.Target == n {
				needHalt = true
				break
			}
		}
	}
	if needHalt {
		b.emit(Instr{Op: OpHalt})
	}
	return &Program{
		Name:    b.name,
		Code:    b.code,
		NumRegs: b.numRegs,
		Scratch: b.scratch,
	}
}
