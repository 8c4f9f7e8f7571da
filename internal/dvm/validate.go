package dvm

import "fmt"

// Validate statically checks a program: every instruction must carry the
// closures its opcode requires, register indices must be allocated, costs
// must be positive, and the control-flow graph must be well-formed — every
// instruction reachable from entry, and every path terminated by an explicit
// OpHalt rather than running off the end of the code (Builder.Build appends
// the final OpHalt automatically, so builder-produced programs satisfy this
// by construction). The harness validates every program before running it,
// so builder mistakes fail fast instead of crashing an engine goroutine
// mid-run.
func (p *Program) Validate() error {
	n := len(p.Code)
	for pc := range p.Code {
		in := &p.Code[pc]
		fail := func(format string, args ...any) error {
			return fmt.Errorf("dvm: program %q, instruction %d (op %d): %s",
				p.Name, pc, in.Op, fmt.Sprintf(format, args...))
		}
		if in.Cost <= 0 {
			return fail("non-positive cost %d", in.Cost)
		}
		switch in.Op {
		case OpDo:
			if in.Do == nil {
				return fail("missing Do closure")
			}
		case OpLoad:
			if in.Addr == nil {
				return fail("missing address closure")
			}
			if in.Dst < 0 || in.Dst >= p.NumRegs {
				return fail("destination register %d out of range [0,%d)", in.Dst, p.NumRegs)
			}
		case OpStore:
			if in.Addr == nil || in.Val == nil {
				return fail("missing address or value closure")
			}
		case OpJump:
			if in.Target < 0 || in.Target > n {
				return fail("jump target %d out of range [0,%d]", in.Target, n)
			}
		case OpBranchUnless:
			if in.Cond == nil {
				return fail("missing condition closure")
			}
			if in.Target < 0 || in.Target > n {
				return fail("branch target %d out of range [0,%d]", in.Target, n)
			}
		case OpLock, OpUnlock, OpRLock, OpRUnlock, OpCondSignal, OpCondBroadcast, OpBarrier:
			if in.Addr == nil {
				return fail("missing object closure")
			}
		case OpCondWait:
			if in.Addr == nil || in.Addr2 == nil {
				return fail("missing condition or mutex closure")
			}
		case OpSyscall:
			if in.Sys == nil {
				return fail("missing syscall payload")
			}
			if in.Sys.Work < 0 {
				return fail("negative syscall work %d", in.Sys.Work)
			}
		case OpAtomic:
			a := in.Atom
			if a == nil {
				return fail("missing atomic payload")
			}
			if a.Addr == nil {
				return fail("missing atomic address closure")
			}
			if int(a.Dst) < 0 || int(a.Dst) >= p.NumRegs {
				return fail("atomic destination register %d out of range [0,%d)", a.Dst, p.NumRegs)
			}
			switch a.Kind {
			case AtomicAdd:
				if a.Delta == nil {
					return fail("AtomicAdd missing delta")
				}
			case AtomicCAS:
				if a.Old == nil || a.New == nil {
					return fail("AtomicCAS missing operands")
				}
			case AtomicExchange:
				if a.New == nil {
					return fail("AtomicExchange missing operand")
				}
			default:
				return fail("unknown atomic kind %d", a.Kind)
			}
		case OpHalt:
		default:
			return fail("unknown opcode")
		}
	}
	if err := p.validateFlow(); err != nil {
		return err
	}
	// Every control transfer must land on a fusion-block entry point (see
	// blockLeaders and Compile): the threaded-code backend re-enters the
	// compiled stream through the entry map, both on ordinary jumps and
	// when a speculation revert restores a snapshot PC. Targets are leaders
	// by construction today; checking it here pins the contract so the
	// block-formation rules cannot drift away from what Validate admits.
	leaders := p.blockLeaders()
	for pc := range p.Code {
		in := &p.Code[pc]
		if (in.Op == OpJump || in.Op == OpBranchUnless) && !leaders[in.Target] {
			return fmt.Errorf("dvm: program %q, instruction %d (op %d): target %d is not a fusion-block entry point",
				p.Name, pc, in.Op, in.Target)
		}
	}
	return nil
}

// blockLeaders computes the fusion-block entry points of the threaded-code
// backend (see Compile): instruction 0, every jump and branch target, every
// engine operation, and every instruction following an engine operation,
// jump, branch, or halt. A pc outside the leader set can only be reached by
// falling through from its predecessor, which is what lets Compile fuse
// straight-line runs into superinstructions without breaking control
// transfers — including the PCs that speculation reverts restore, which are
// always engine-operation pcs and therefore always leaders.
func (p *Program) blockLeaders() []bool {
	n := len(p.Code)
	leader := make([]bool, n+1)
	if n == 0 {
		return leader
	}
	leader[0] = true
	for pc := range p.Code {
		in := &p.Code[pc]
		switch in.Op {
		case OpJump, OpBranchUnless:
			if in.Target >= 0 && in.Target <= n {
				leader[in.Target] = true
			}
			leader[pc+1] = true
		case OpHalt:
			leader[pc+1] = true
		case OpDo, OpLoad, OpStore:
		default: // engine operation: its own block
			leader[pc] = true
			leader[pc+1] = true
		}
	}
	return leader
}

// validateFlow checks the control-flow graph: every instruction must be
// reachable from entry, and no reachable path may leave the code without
// executing OpHalt — neither by falling through past the last instruction
// nor through a jump or branch targeting one past the end.
func (p *Program) validateFlow() error {
	n := len(p.Code)
	if n == 0 {
		return nil
	}
	reached := make([]bool, n)
	stack := []int{0}
	reached[0] = true
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range p.successors(pc) {
			if s == n {
				in := &p.Code[pc]
				if in.Op == OpJump || in.Op == OpBranchUnless {
					return fmt.Errorf("dvm: program %q, instruction %d (op %d): target %d is one past the end — path exits without OpHalt",
						p.Name, pc, in.Op, in.Target)
				}
				return fmt.Errorf("dvm: program %q, instruction %d (op %d): control falls off the end of the program without OpHalt",
					p.Name, pc, in.Op)
			}
			if !reached[s] {
				reached[s] = true
				stack = append(stack, s)
			}
		}
	}
	for pc, r := range reached {
		if !r {
			return fmt.Errorf("dvm: program %q, instruction %d (op %d): unreachable",
				p.Name, pc, p.Code[pc].Op)
		}
	}
	return nil
}

// successors returns the control-flow successors of instruction pc; the
// pseudo-node len(Code) represents leaving the program without OpHalt.
// OpCondWait and the rest block or have effects but always continue
// to pc+1.
func (p *Program) successors(pc int) []int {
	in := &p.Code[pc]
	switch in.Op {
	case OpHalt:
		return nil
	case OpJump:
		return []int{in.Target}
	case OpBranchUnless:
		if in.Target == pc+1 {
			return []int{pc + 1}
		}
		return []int{pc + 1, in.Target}
	default:
		return []int{pc + 1}
	}
}
