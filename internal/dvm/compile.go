// Threaded-code compilation: the lowering pass that turns a validated
// Program into the compiled Exec backend.
//
// Nothing in the engine path selects this backend. Its only caller is the
// benchmark's per-layer dispatch comparator (dvm.compiled_ns_per_instr next
// to dvm.interp_ns_per_instr), and compile_test.go holds it event-for-event
// to the interpreter so that row measures the same work.
//
// The interpreter (Thread.runInterp) pays, per instruction, a bounds check,
// a PC increment, a switch dispatch, and the pend/steps tick-batching
// bookkeeping. This pass pays those costs once per *block* instead: the
// program is cut into fusion blocks (straight-line runs between engine
// operations, jump targets and branches), each instruction is lowered to a
// closure specialized on the builder's static operand metadata (SVal:
// constant addresses are resolved at lower time), and a peephole fuser
// collapses hot adjacent sequences — load-op-store, load-op, op-store,
// op-op, and a trailing load feeding a branch — into single
// superinstructions, so one indirect call executes several instructions
// against the MemWindow fast path.
//
// # DLC exactness
//
// The deterministic schedule is arbitrated on published clock values, so
// the compiled backend must make the engine observe *exactly* the Tick
// calls the interpreter makes — same count, same values, same positions in
// the instruction stream — or dlc.total, dlc.tick_flushes and the schedule
// itself would diverge from the interpreter oracle. The interpreter flushes
// its thread-local cost batch (a) unconditionally before every engine
// operation and (b) whenever the batch reaches dlc.TickWindow retired local
// instructions. The compiled backend replicates both exactly:
//
//   - every block stores the prefix sums of its instruction costs, and
//     blocks are capped at dlc.TickWindow local instructions, so a block
//     can cross at most one window boundary;
//   - charging a block with `steps` instructions already pending finds the
//     crossing point j = TickWindow - steps inside the block's prefix sums,
//     ticks pend + prefix[j] — the exact batch the interpreter would have
//     flushed at that instruction — and carries prefix[r] - prefix[j];
//   - engine operations flush the pending batch first, then charge their
//     own cost, exactly as the interpreter does.
//
// Fused blocks therefore still charge one batched tick per window, never
// one per op, while every published intermediate clock value stays
// bit-identical to per-instruction interpretation.
//
// # Revert re-entry
//
// Speculation reverts restore the PC of a lock acquisition (Snapshot
// rewinds to the instruction being executed), and every engine operation is
// its own block, so a restored PC is always a block leader: run re-enters
// the compiled stream through entry[PC] at the block head. Validate pins
// the matching constraint on jump targets (every target is a fusion-block
// entry point), so no control transfer — forward, backward, or rewound —
// can land mid-block. Snapshot/MatchesSnapshot are unchanged: the backend
// sets t.PC to pc+1 before invoking an engine hook, exactly the state the
// interpreter would be in, so snapshots taken inside hooks are identical.
// Between engine operations t.PC is stale (it holds the previous engine
// op's successor, or the resume PC); this is unobservable because
// instruction closures do not read t.PC, snapshots are only taken inside
// engine hooks, and every halt path writes the exact final PC.
package dvm

import (
	"fmt"

	"lazydet/internal/dlc"
)

// CompileStats describes one program's lowering outcome.
type CompileStats struct {
	// Blocks is the number of fusion blocks (including engine-op blocks).
	Blocks int
	// Instructions is the program's instruction count.
	Instructions int
	// Superinstrs counts fused closures covering more than one
	// instruction (including load-branch fusions into block terminators).
	Superinstrs int
	// FusedBlocks counts blocks containing at least one superinstruction.
	FusedBlocks int
}

// microKind discriminates the pre-decoded superinstruction records of a
// block body. Each kind names a fused instruction pattern and how much of
// its addressing was resolved at lower time: the K variants carry constant
// addresses folded from the builder's SVal metadata, so executing them
// costs no operand closure call at all.
type microKind uint8

const (
	mDo microKind = iota
	mLoad
	mLoadK // constant address
	mStore
	mStoreK // constant address
	mLoadDo
	mLoadKDo
	mDoStore
	mDoStoreK
	mDoDo
	mLoadDoStore
	mLoadKDoStore
	mLoadDoStoreK
	mLoadKDoStoreK
)

// micro is one pre-decoded superinstruction of a block body, covering n
// consecutive instructions. The operand closures and constants are resolved
// at lower time; run-time execution is one switch dispatch per micro, with
// the MemWindow fast path invoked directly.
type micro struct {
	kind microKind
	n    uint8
	dst  int                 // load destination register
	ka   int64               // folded constant load address
	ks   int64               // folded constant store address
	addr func(*Thread) int64 // dynamic load address
	sadr func(*Thread) int64 // dynamic store address
	val  func(*Thread) int64 // store value
	do   func(*Thread)       // first compute closure
	do2  func(*Thread)       // second compute closure (mDoDo)
}

// termKind is a block's terminator.
type termKind uint8

const (
	// termFall continues to block next (a leader boundary or the
	// TickWindow block-size cap).
	termFall termKind = iota
	// termJump transfers to block target (OpJump).
	termJump
	// termBranch transfers to next when cond holds, else to target
	// (OpBranchUnless).
	termBranch
	// termHalt halts the thread (OpHalt).
	termHalt
	// termEngine is a single engine operation forming its own block.
	termEngine
)

// cblock is one fusion block's hot half: a straight-line run of local
// instructions (body) plus a terminator. The struct is kept to one cache
// line — every field the no-crossing fast path reads, nothing else; the
// rest lives in the parallel ccold array (window crossings, telemetry,
// halts and engine operations all pay a cold lookup, the dominant
// per-block dispatch does not).
type cblock struct {
	term termKind
	// bare marks a single-instruction branch block (a loop head the
	// builder's While/For loops jump back to, or a bare If head).
	// Predecessors evaluate a bare block's condition inline instead of
	// paying a full block dispatch. The block stays in the block list for
	// direct entry. A branch whose body emptied into a fused trailing
	// load retires two instructions and is never bare.
	bare  bool
	steps int32 // retired instructions incl. a local terminator
	next  int32 // fall-through successor block
	// target is the jump/branch destination block.
	target int32
	// cost is the summed DLC cost of all steps: the fast-path charge when
	// the block does not cross a tick-window boundary.
	cost int64
	cond func(t *Thread) bool // termBranch (may include a fused load)
	body []micro
}

// ccold is one block's cold half, index-parallel to Compiled.blocks.
type ccold struct {
	startPC int
	// nbody is the instruction count the body covers; steps additionally
	// counts a local terminator (jump/branch/halt), which retires with the
	// block. A branch-fused trailing load is counted in steps, not nbody.
	nbody int
	// prefix[i] is the summed DLC cost of the block's first i
	// instructions (len steps+1), in program order.
	prefix []int64
	// ops holds the block's opcodes in program order (len steps), for the
	// per-opcode retired counters.
	ops []Opcode

	// termEngine:
	engine  func(t *Thread, eng Engine)
	engPC   int
	engCost int64
	engOp   Opcode
}

// Compiled is a program lowered to threaded code. It implements Exec, holds
// only immutable per-program data, and is safe for concurrent use by every
// thread running the program.
type Compiled struct {
	prog   *Program
	blocks []cblock
	// cold holds the blocks' cold halves, index-parallel to blocks.
	cold []ccold
	// entry maps an instruction pc to the index of the block starting
	// there, or -1 mid-block. Control transfers — including speculation
	// reverts restoring a snapshot PC — always land on a block entry.
	entry []int32
	stats CompileStats
}

// Stats returns the lowering statistics.
func (c *Compiled) Stats() CompileStats { return c.stats }

// Compile lowers a program to the threaded-code backend. The program is
// validated first; Compile never alters it.
func Compile(p *Program) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("dvm: compile: %w", err)
	}
	code := p.Code
	n := len(code)
	leader := p.blockLeaders()

	c := &Compiled{prog: p, entry: make([]int32, n+1)}
	for i := range c.entry {
		c.entry[i] = -1
	}
	c.stats.Instructions = n

	// Pass 1: cut blocks and lower bodies; successor block indices are
	// recorded as pcs and resolved in pass 2 (targets may be forward).
	type pending struct{ nextPC, targetPC int }
	var succs []pending
	for start := 0; start < n; {
		bix := int32(len(c.blocks))
		c.entry[start] = bix
		if isEngineOp(code[start].Op) {
			in := &code[start]
			c.blocks = append(c.blocks, cblock{term: termEngine})
			c.cold = append(c.cold, ccold{
				startPC: start,
				engine:  lowerEngineOp(in),
				engPC:   start,
				engCost: in.Cost,
				engOp:   in.Op,
			})
			succs = append(succs, pending{nextPC: start + 1, targetPC: -1})
			start++
			continue
		}
		// Straight-line run: scan to the terminator or the next leader,
		// capped at dlc.TickWindow local instructions so a block crosses
		// at most one tick-window boundary (see charge).
		pc, locals := start, 0
		term := termFall
		for {
			if pc >= n {
				return nil, fmt.Errorf("dvm: compile: program %q falls off the end at pc %d", p.Name, pc)
			}
			if locals == dlc.TickWindow || (pc > start && leader[pc]) {
				break
			}
			switch code[pc].Op {
			case OpJump:
				term = termJump
			case OpBranchUnless:
				term = termBranch
			case OpHalt:
				term = termHalt
			default:
				pc++
				locals++
				continue
			}
			break
		}
		b := cblock{term: term}
		cd := ccold{startPC: start}
		steps := locals
		if term != termFall {
			steps++ // the jump/branch/halt retires with the block
		}
		b.steps = int32(steps)
		cd.prefix = make([]int64, steps+1)
		cd.ops = make([]Opcode, steps)
		for i := 0; i < steps; i++ {
			cd.prefix[i+1] = cd.prefix[i] + code[start+i].Cost
			cd.ops[i] = code[start+i].Op
		}
		b.cost = cd.prefix[steps]
		b.body, cd.nbody = fuseBody(code, start, start+locals, &c.stats)
		sp := pending{nextPC: -1, targetPC: -1}
		switch term {
		case termFall:
			sp.nextPC = pc
		case termJump:
			sp.targetPC = code[pc].Target
		case termBranch:
			b.cond = code[pc].Cond
			sp.nextPC = pc + 1
			sp.targetPC = code[pc].Target
			// Load-branch fusion: a trailing single-instruction load
			// feeds straight into the branch condition.
			if locals > 0 && code[start+locals-1].Op == OpLoad && b.body[len(b.body)-1].n == 1 {
				b.cond = fuseLoadBranch(&code[start+locals-1], b.cond)
				b.body = b.body[:len(b.body)-1]
				cd.nbody--
				c.stats.Superinstrs++
			}
		}
		if len(b.body) < cd.nbody { // any multi-instruction micro
			c.stats.FusedBlocks++
		} else if term == termBranch && cd.nbody < locals {
			c.stats.FusedBlocks++ // fused only the load-branch pair
		}
		c.blocks = append(c.blocks, b)
		c.cold = append(c.cold, cd)
		succs = append(succs, sp)
		start = pc
		if term != termFall {
			start++ // consume the terminator
		}
	}

	// Pass 2: resolve successor pcs to block indices.
	resolve := func(pc int) (int32, error) {
		if pc < 0 {
			return -1, nil
		}
		if pc >= n || c.entry[pc] < 0 {
			return -1, fmt.Errorf("dvm: compile: program %q: control transfer target %d is not a block entry", p.Name, pc)
		}
		return c.entry[pc], nil
	}
	for i := range c.blocks {
		var err error
		if c.blocks[i].next, err = resolve(succs[i].nextPC); err != nil {
			return nil, err
		}
		if c.blocks[i].target, err = resolve(succs[i].targetPC); err != nil {
			return nil, err
		}
	}
	// Pass 3: mark bare branch heads. Any control transfer reaching a
	// single-branch block (loop heads, bare If heads) evaluates its
	// condition inline in run() instead of dispatching the block, saving
	// a dispatch per loop iteration and per taken If. steps must be
	// exactly 1: a branch whose body emptied into a fused trailing load
	// retires two instructions and takes the general charge path.
	for i := range c.blocks {
		b := &c.blocks[i]
		b.bare = b.term == termBranch && len(b.body) == 0 && b.steps == 1
	}
	c.stats.Blocks = len(c.blocks)
	return c, nil
}

// fuseBody lowers the local instructions code[start:end) into micros,
// fusing hot adjacent patterns into superinstructions. It returns the body
// and the instruction count it covers.
func fuseBody(code []Instr, start, end int, st *CompileStats) ([]micro, int) {
	var body []micro
	for i := start; i < end; {
		in := &code[i]
		if in.Op == OpLoad && i+3 <= end && code[i+1].Op == OpDo && code[i+2].Op == OpStore {
			body = append(body, microLoadDoStore(in, &code[i+1], &code[i+2]))
			st.Superinstrs++
			i += 3
			continue
		}
		if in.Op == OpLoad && i+2 <= end && code[i+1].Op == OpDo {
			body = append(body, microLoadDo(in, &code[i+1]))
			st.Superinstrs++
			i += 2
			continue
		}
		if in.Op == OpDo && i+2 <= end && code[i+1].Op == OpStore {
			body = append(body, microDoStore(in, &code[i+1]))
			st.Superinstrs++
			i += 2
			continue
		}
		if in.Op == OpDo && i+2 <= end && code[i+1].Op == OpDo {
			body = append(body, microDoDo(in, &code[i+1]))
			st.Superinstrs++
			i += 2
			continue
		}
		switch in.Op {
		case OpDo:
			body = append(body, microDo(in))
		case OpLoad:
			body = append(body, microLoad(in))
		case OpStore:
			body = append(body, microStore(in))
		default:
			panic(fmt.Sprintf("dvm: compile: opcode %v in a local body", in.Op))
		}
		i++
	}
	return body, end - start
}

// isEngineOp reports whether the opcode delegates to an Engine hook (and so
// forms its own block and flushes the tick batch).
func isEngineOp(op Opcode) bool {
	switch op {
	case OpDo, OpLoad, OpStore, OpJump, OpBranchUnless, OpHalt:
		return false
	}
	return true
}

// operand folds a builder constant (SVal.Known, emitted by dvm.Const) into
// a direct closure; dynamic operands keep their original evaluator.
func operand(f func(*Thread) int64, s SVal) func(*Thread) int64 {
	if s.Known {
		k := s.K
		return func(*Thread) int64 { return k }
	}
	return f
}

func microDo(in *Instr) micro {
	return micro{kind: mDo, n: 1, do: in.Do}
}

func microLoad(in *Instr) micro {
	if in.SAddr.Known {
		return micro{kind: mLoadK, n: 1, dst: in.Dst, ka: in.SAddr.K}
	}
	return micro{kind: mLoad, n: 1, dst: in.Dst, addr: in.Addr}
}

func microStore(in *Instr) micro {
	if in.SAddr.Known {
		return micro{kind: mStoreK, n: 1, ks: in.SAddr.K, val: in.Val}
	}
	return micro{kind: mStore, n: 1, sadr: in.Addr, val: in.Val}
}

// microLoadDo fuses load + compute: one dispatch, two instructions.
func microLoadDo(l, d *Instr) micro {
	m := micro{n: 2, dst: l.Dst, do: d.Do}
	if l.SAddr.Known {
		m.kind, m.ka = mLoadKDo, l.SAddr.K
	} else {
		m.kind, m.addr = mLoadDo, l.Addr
	}
	return m
}

// microDoStore fuses compute + store; a halt inside the compute retires
// only the compute, exactly as interpretation would.
func microDoStore(d, s *Instr) micro {
	m := micro{n: 2, do: d.Do, val: s.Val}
	if s.SAddr.Known {
		m.kind, m.ks = mDoStoreK, s.SAddr.K
	} else {
		m.kind, m.sadr = mDoStore, s.Addr
	}
	return m
}

// microDoDo fuses two compute closures.
func microDoDo(d1, d2 *Instr) micro {
	return micro{kind: mDoDo, n: 2, do: d1.Do, do2: d2.Do}
}

// microLoadDoStore fuses the full read-modify-write shape, with each of the
// two addresses independently foldable to a constant.
func microLoadDoStore(l, d, s *Instr) micro {
	m := micro{n: 3, dst: l.Dst, do: d.Do, val: s.Val}
	switch {
	case l.SAddr.Known && s.SAddr.Known:
		m.kind, m.ka, m.ks = mLoadKDoStoreK, l.SAddr.K, s.SAddr.K
	case l.SAddr.Known:
		m.kind, m.ka, m.sadr = mLoadKDoStore, l.SAddr.K, s.Addr
	case s.SAddr.Known:
		m.kind, m.addr, m.ks = mLoadDoStoreK, l.Addr, s.SAddr.K
	default:
		m.kind, m.addr, m.sadr = mLoadDoStore, l.Addr, s.Addr
	}
	return m
}

// fuseLoadBranch folds a trailing load into the branch condition: the load
// executes, then the condition reads the loaded register — the same
// observable order as interpreting the two instructions.
func fuseLoadBranch(l *Instr, cond func(*Thread) bool) func(*Thread) bool {
	dst := l.Dst
	if l.SAddr.Known {
		k := l.SAddr.K
		return func(t *Thread) bool {
			t.Regs[dst] = t.Mem.Load(k)
			return cond(t)
		}
	}
	addr := l.Addr
	return func(t *Thread) bool {
		t.Regs[dst] = t.Mem.Load(addr(t))
		return cond(t)
	}
}

// lowerEngineOp lowers one engine operation to a closure over the engine
// hook, with constant operands folded. Operand evaluation order matches the
// interpreter's argument order exactly.
func lowerEngineOp(in *Instr) func(*Thread, Engine) {
	switch in.Op {
	case OpLock:
		a := operand(in.Addr, in.SAddr)
		return func(t *Thread, eng Engine) { eng.Lock(t, a(t)) }
	case OpUnlock:
		a := operand(in.Addr, in.SAddr)
		return func(t *Thread, eng Engine) { eng.Unlock(t, a(t)) }
	case OpRLock:
		a := operand(in.Addr, in.SAddr)
		return func(t *Thread, eng Engine) { eng.RLock(t, a(t)) }
	case OpRUnlock:
		a := operand(in.Addr, in.SAddr)
		return func(t *Thread, eng Engine) { eng.RUnlock(t, a(t)) }
	case OpCondWait:
		cv := operand(in.Addr, in.SAddr)
		l := operand(in.Addr2, in.SAddr2)
		return func(t *Thread, eng Engine) { eng.CondWait(t, cv(t), l(t)) }
	case OpCondSignal:
		a := operand(in.Addr, in.SAddr)
		return func(t *Thread, eng Engine) { eng.CondSignal(t, a(t)) }
	case OpCondBroadcast:
		a := operand(in.Addr, in.SAddr)
		return func(t *Thread, eng Engine) { eng.CondBroadcast(t, a(t)) }
	case OpBarrier:
		a := operand(in.Addr, in.SAddr)
		return func(t *Thread, eng Engine) { eng.BarrierWait(t, a(t)) }
	case OpSyscall:
		s := in.Sys
		return func(t *Thread, eng Engine) { eng.Syscall(t, s) }
	case OpAtomic:
		a := in.Atom
		return func(t *Thread, eng Engine) { t.Atomic(a) }
	case OpSpawn:
		a := operand(in.Addr, in.SAddr)
		return func(t *Thread, eng Engine) { eng.Spawn(t, int(a(t))) }
	case OpJoin:
		a := operand(in.Addr, in.SAddr)
		return func(t *Thread, eng Engine) { eng.Join(t, int(a(t))) }
	}
	panic(fmt.Sprintf("dvm: compile: %v is not an engine op", in.Op))
}

// charge retires r local instructions of a block whose cost prefix sums are
// prefix, given pend/steps accumulated since the last flush, replicating
// the interpreter's flush points exactly: if the window fills inside the
// block, the tick carries the batch up to and including the instruction
// that filled it — the same value the interpreter would have flushed there
// — and the remainder is carried forward. Block bodies are capped at
// dlc.TickWindow instructions, so at most one flush per call.
func charge(eng Engine, t *Thread, pend int64, steps int, prefix []int64, r int) (int64, int) {
	if r == 0 {
		return pend, steps
	}
	if steps+r >= dlc.TickWindow {
		j := dlc.TickWindow - steps
		eng.Tick(t, pend+prefix[j])
		return prefix[r] - prefix[j], steps + r - dlc.TickWindow
	}
	return pend + prefix[r], steps + r
}

func countRetired(counts []int64, ops []Opcode) {
	for _, op := range ops {
		counts[op]++
	}
}

// run executes the compiled program on thread t: the Exec implementation.
// The control protocol mirrors runInterp exactly — see the package comment
// of this file for the DLC-exactness and revert-re-entry arguments.
func (c *Compiled) run(t *Thread) {
	eng := t.eng
	var pend int64 // local-instruction cost accumulated since the last flush
	steps := 0     // local instructions accumulated since the last flush
	if t.PC < 0 || t.PC >= len(c.entry) || c.entry[t.PC] < 0 {
		panic(fmt.Sprintf("dvm: compiled %q: resume PC %d is not a block entry", c.prog.Name, t.PC))
	}
	bix := c.entry[t.PC]
loop:
	for bix >= 0 {
		b := &c.blocks[bix]
		if b.term == termEngine {
			// Publish the exact clock before the engine observes or
			// orders anything, then charge the operation's own cost.
			cd := &c.cold[bix]
			if pend != 0 {
				eng.Tick(t, pend)
			}
			pend, steps = 0, 0
			if t.retired != nil {
				t.retired[cd.engOp]++
			}
			next := cd.engPC + 1
			t.PC = next // the state runInterp presents to engine hooks
			cd.engine(t, eng)
			eng.Tick(t, cd.engCost)
			if t.halted {
				break loop
			}
			if t.PC != next {
				// The hook rewound the thread (speculation revert):
				// re-enter at the restored block head. Reverts restore
				// a lock acquisition's PC, and engine ops are single-
				// instruction blocks, so the PC is a block entry.
				bix = c.entry[t.PC]
				continue
			}
			bix = b.next
			continue
		}
		r := 0
		for i := range b.body {
			m := &b.body[i]
			switch m.kind {
			case mDo:
				m.do(t)
				r++
			case mLoad:
				t.Regs[m.dst] = t.Mem.Load(m.addr(t))
				r++
			case mLoadK:
				t.Regs[m.dst] = t.Mem.Load(m.ka)
				r++
			case mStore:
				t.Store(m.sadr(t), m.val(t))
				r++
			case mStoreK:
				t.Store(m.ks, m.val(t))
				r++
			case mLoadDo:
				t.Regs[m.dst] = t.Mem.Load(m.addr(t))
				m.do(t)
				r += 2
			case mLoadKDo:
				t.Regs[m.dst] = t.Mem.Load(m.ka)
				m.do(t)
				r += 2
			case mDoStore:
				m.do(t)
				if t.halted {
					r++
					break
				}
				t.Store(m.sadr(t), m.val(t))
				r += 2
			case mDoStoreK:
				m.do(t)
				if t.halted {
					r++
					break
				}
				t.Store(m.ks, m.val(t))
				r += 2
			case mDoDo:
				m.do(t)
				if t.halted {
					r++
					break
				}
				m.do2(t)
				r += 2
			case mLoadDoStore:
				t.Regs[m.dst] = t.Mem.Load(m.addr(t))
				m.do(t)
				if t.halted {
					r += 2
					break
				}
				t.Store(m.sadr(t), m.val(t))
				r += 3
			case mLoadKDoStore:
				t.Regs[m.dst] = t.Mem.Load(m.ka)
				m.do(t)
				if t.halted {
					r += 2
					break
				}
				t.Store(m.sadr(t), m.val(t))
				r += 3
			case mLoadDoStoreK:
				t.Regs[m.dst] = t.Mem.Load(m.addr(t))
				m.do(t)
				if t.halted {
					r += 2
					break
				}
				t.Store(m.ks, m.val(t))
				r += 3
			case mLoadKDoStoreK:
				t.Regs[m.dst] = t.Mem.Load(m.ka)
				m.do(t)
				if t.halted {
					r += 2
					break
				}
				t.Store(m.ks, m.val(t))
				r += 3
			}
			if t.halted {
				// A Do closure halted the thread: retire exactly the
				// executed prefix, as the interpreter would.
				cd := &c.cold[bix]
				if t.retired != nil {
					countRetired(t.retired, cd.ops[:r])
				}
				pend, steps = charge(eng, t, pend, steps, cd.prefix, r)
				t.PC = cd.startPC + r
				break loop
			}
		}
		// Terminator: pick the successor first (the branch condition may
		// execute a fused trailing load), then retire the whole block —
		// the inlined fast path of charge.
		var nbix int32
		switch b.term {
		case termFall:
			nbix = b.next
		case termJump:
			nbix = b.target
		case termBranch:
			if b.cond(t) {
				nbix = b.next
			} else {
				nbix = b.target
			}
		default: // termHalt
			t.halted = true
			t.PC = c.cold[bix].startPC + int(b.steps)
			nbix = -1
		}
		if t.retired != nil {
			countRetired(t.retired, c.cold[bix].ops)
		}
		if steps+int(b.steps) < dlc.TickWindow {
			pend += b.cost
			steps += int(b.steps)
		} else {
			j := dlc.TickWindow - steps
			prefix := c.cold[bix].prefix
			eng.Tick(t, pend+prefix[j])
			pend = b.cost - prefix[j]
			steps += int(b.steps) - dlc.TickWindow
		}
		// Threaded branch heads: while the successor is a body-less
		// branch block, evaluate its condition inline instead of paying
		// a full block dispatch. Each head is a single branch
		// instruction, so the crossing case flushes the whole batch and
		// carries nothing. A cycle of bare heads is an infinite loop in
		// the program itself; the inline loop still ticks through it
		// exactly as the interpreter would.
		for nbix >= 0 {
			hb := &c.blocks[nbix]
			if !hb.bare {
				break
			}
			hix := nbix
			if hb.cond(t) {
				nbix = hb.next
			} else {
				nbix = hb.target
			}
			if t.retired != nil {
				countRetired(t.retired, c.cold[hix].ops)
			}
			if steps+1 < dlc.TickWindow {
				pend += hb.cost
				steps++
			} else {
				eng.Tick(t, pend+hb.cost)
				pend, steps = 0, 0
			}
		}
		if nbix < 0 {
			break loop
		}
		bix = nbix
	}
	// Publish the tail batch before ThreadExit takes its final turn —
	// the same single exit protocol as runInterp.
	if pend != 0 {
		eng.Tick(t, pend)
	}
}
