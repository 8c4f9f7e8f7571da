// Plan generation and VM program construction for the open-loop simulation.
//
// Everything random is decided in Go before the run and frozen into
// immutable plan arrays: arrival gaps, each request's mix class, and each
// operation's key and read/write kind. The VM programs only index those
// arrays, so the work a request performs is a function of (seed, config)
// alone — identical across engines and thread interleavings.
// What the engines *do* determine is the schedule: who pops which request
// when, and therefore every DLC stamp.
package opensim

import (
	"fmt"

	"lazydet/internal/dvm"
	"lazydet/internal/harness"
)

// burnStep is the DLC advanced per generator burn-loop iteration (branch +
// costed compute + jump). Arrival gaps are quantized to this grain.
const burnStep = 16

// plan freezes every random decision of one simulation cell.
type plan struct {
	// gapIters[i] is the number of burn-loop iterations (burnStep DLC
	// each) the generator spends before admitting request i.
	gapIters []int64
	// mix[i] is request i's class (index into Config.Mix).
	mix []int32
	// opOff/opKey/opRead flatten the per-request operation lists:
	// request i's operations are indices opOff[i]..opOff[i+1] (exclusive).
	opOff  []int32
	opKey  []int32
	opRead []byte
	// writes counts write operations across the whole plan (the account
	// checksum validated after the run).
	writes int64
}

// buildPlan draws the cell's arrival schedule and request bodies from the
// seed's partitioned streams. Gaps and classes come first, which fixes the
// operation count, so the operation arrays are allocated once at their final
// size; each stream is still drawn in request order.
func buildPlan(cfg Config) *plan {
	arrivals := newStream(cfg.Seed, "arrivals")
	mixSel := newStream(cfg.Seed, "mix")
	keySel := newStream(cfg.Seed, "keys")
	rwSel := newStream(cfg.Seed, "readwrite")

	totalWeight := int64(0)
	for _, m := range cfg.Mix {
		totalWeight += int64(m.Weight)
	}

	p := &plan{
		gapIters: make([]int64, cfg.Requests),
		mix:      make([]int32, cfg.Requests),
		opOff:    make([]int32, cfg.Requests+1),
	}
	ops := 0
	for i := 0; i < cfg.Requests; i++ {
		gap := arrivals.expGap(cfg.MeanGap)
		iters := (gap + burnStep/2) / burnStep
		if iters < 1 {
			iters = 1
		}
		p.gapIters[i] = iters

		// Weighted mix draw.
		w := mixSel.intn(totalWeight)
		cls := 0
		for w >= int64(cfg.Mix[cls].Weight) {
			w -= int64(cfg.Mix[cls].Weight)
			cls++
		}
		p.mix[i] = int32(cls)
		ops += cfg.Mix[cls].Ops
		p.opOff[i+1] = int32(ops)
	}

	p.opKey = make([]int32, ops)
	p.opRead = make([]byte, ops)
	for i := 0; i < cfg.Requests; i++ {
		readPct := int64(cfg.Mix[p.mix[i]].ReadPct)
		for op := p.opOff[i]; op < p.opOff[i+1]; op++ {
			var key int64
			if keySel.intn(100) < int64(cfg.HotPct) {
				key = keySel.intn(int64(cfg.HotKeys))
			} else {
				key = keySel.intn(int64(cfg.Keys))
			}
			p.opKey[op] = int32(key)
			if rwSel.intn(100) < readPct {
				p.opRead[op] = 1
			} else {
				p.writes++
			}
		}
	}
	return p
}

// layout is the shared-heap map. The queue has one slot per request (a
// single producer admits request i into slot i, so no wraparound), and
// every request owns a stride-4 stamp record. Stamps live in the shared
// heap — not Go-side arrays — because under LazyDet a worker may pop and
// stamp a request speculatively and then revert; versioned-heap stores are
// discarded on revert, so exactly one committed stamp survives.
type layout struct {
	head, tail, done int64 // queue control words
	acc              int64 // account array base, Keys words
	queue            int64 // queue slots, Requests words
	stamp            int64 // stamp records, 4·Requests words
	words            int64
}

// Stamp record fields.
const (
	stampAdmit  = 0
	stampDepth  = 1
	stampStart  = 2
	stampFinish = 3
)

func newLayout(cfg Config) layout {
	l := layout{head: 0, tail: 1, done: 2}
	l.acc = 8 // control words padded out
	l.queue = l.acc + int64(cfg.Keys)
	l.stamp = l.queue + int64(cfg.Requests)
	l.words = l.stamp + 4*int64(cfg.Requests)
	return l
}

// Lock table: lock 0 guards the queue, locks 1..Stripes stripe the
// accounts.
const qlock = 0

// clockVal reads the thread's logical clock as an operand. The engine
// installs Thread.Clock for every deterministic engine; the zero fallback
// keeps a misconfigured run loud in Validate (admit stamps must be ≥ 1)
// instead of panicking mid-run.
func clockVal() dvm.Val {
	return dvm.Dyn(func(t *dvm.Thread) int64 {
		if t.Clock == nil {
			return 0
		}
		return t.Clock()
	})
}

// VetPrograms builds the program set Run would execute for cfg at the given
// total thread count (one generator + threads-1 workers), for static
// analysis without running a cell — cmd/lazydet-vet's opensim target.
func VetPrograms(cfg Config, threads int) []*dvm.Program {
	cfg = cfg.withDefaults()
	var sink []Request
	return buildWorkload(cfg, buildPlan(cfg), &sink).Programs(threads)
}

// buildWorkload assembles the generator and worker programs plus the
// Validate hook that audits the final heap and extracts the stamps into
// *out in arrival order.
func buildWorkload(cfg Config, p *plan, out *[]Request) *harness.Workload {
	l := newLayout(cfg)
	gen := buildGenerator(cfg, p, l)
	worker := buildWorker(cfg, p, l)

	return &harness.Workload{
		Name:      "opensim",
		HeapWords: l.words,
		Locks:     1 + cfg.Stripes,
		Programs: func(threads int) []*dvm.Program {
			progs := make([]*dvm.Program, threads)
			progs[0] = gen
			for i := 1; i < threads; i++ {
				progs[i] = worker
			}
			return progs
		},
		Validate: func(read func(addr int64) int64, threads int) error {
			return extract(cfg, p, l, read, out)
		},
	}
}

// buildGenerator emits thread 0: advance the clock by each arrival gap,
// then admit the request under the queue lock, stamping admission time and
// queue depth.
func buildGenerator(cfg Config, p *plan, l layout) *dvm.Program {
	b := dvm.NewBuilder("opensim-gen")
	i := b.Reg()
	burn := b.Reg()
	h := b.Reg()
	b.ForN(i, int64(cfg.Requests), func() {
		// Burn the inter-arrival gap: each iteration retires burnStep
		// DLC (1 branch + (burnStep-2) costed compute + 1 jump).
		b.Do(func(t *dvm.Thread) { t.SetR(burn, p.gapIters[t.R(i)]) })
		b.While(func(t *dvm.Thread) bool { return t.R(burn) > 0 }, func() {
			b.DoCost(burnStep-2, func(t *dvm.Thread) { t.AddR(burn, -1) })
		})
		b.Lock(dvm.Const(qlock).InClass("locks"))
		b.Load(h, dvm.Const(l.head).InClass("qctl"))
		b.Store(dvm.Dyn(func(t *dvm.Thread) int64 { return l.queue + t.R(i) }).InClass("queue"), dvm.FromReg(i))
		b.Store(dvm.Dyn(func(t *dvm.Thread) int64 { return l.stamp + 4*t.R(i) + stampAdmit }).InClass("stamps"), clockVal())
		b.Store(dvm.Dyn(func(t *dvm.Thread) int64 { return l.stamp + 4*t.R(i) + stampDepth }).InClass("stamps"),
			dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(i) + 1 - t.R(h) }))
		b.Store(dvm.Const(l.tail).InClass("qctl"), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(i) + 1 }))
		b.Unlock(dvm.Const(qlock).InClass("locks"))
	})
	b.Lock(dvm.Const(qlock).InClass("locks"))
	b.Store(dvm.Const(l.done).InClass("qctl"), dvm.Const(1))
	b.Unlock(dvm.Const(qlock).InClass("locks"))
	return b.Build()
}

// buildWorker emits the pool thread: pop under the queue lock, stamp
// start, run the request's precomputed operation list against the striped
// accounts, stamp finish; poll (burning PollCost) while the queue is empty
// and arrivals are still coming; exit once done is set and the queue has
// drained.
func buildWorker(cfg Config, p *plan, l layout) *dvm.Program {
	b := dvm.NewBuilder("opensim-worker")
	exit := b.Reg()
	h := b.Reg()
	tl := b.Reg()
	req := b.Reg()
	d := b.Reg()
	op := b.Reg()
	nops := b.Reg()
	v := b.Reg()

	// keyAt resolves the current operation's key; lockOf its lock stripe.
	keyAt := func(t *dvm.Thread) int64 {
		return int64(p.opKey[p.opOff[t.R(req)]+int32(t.R(op))])
	}
	lockOf := dvm.Dyn(func(t *dvm.Thread) int64 { return 1 + keyAt(t)%int64(cfg.Stripes) }).InClass("stripelocks")
	accOf := dvm.Dyn(func(t *dvm.Thread) int64 { return l.acc + keyAt(t) }).InClass("accounts")
	isRead := func(t *dvm.Thread) bool {
		return p.opRead[p.opOff[t.R(req)]+int32(t.R(op))] != 0
	}

	b.While(func(t *dvm.Thread) bool { return t.R(exit) == 0 }, func() {
		b.Lock(dvm.Const(qlock).InClass("locks"))
		b.Load(h, dvm.Const(l.head).InClass("qctl"))
		b.Load(tl, dvm.Const(l.tail).InClass("qctl"))
		b.IfElse(func(t *dvm.Thread) bool { return t.R(h) < t.R(tl) }, func() {
			b.Load(req, dvm.Dyn(func(t *dvm.Thread) int64 { return l.queue + t.R(h) }).InClass("queue"))
			b.Store(dvm.Const(l.head).InClass("qctl"), dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(h) + 1 }))
			b.Unlock(dvm.Const(qlock).InClass("locks"))
			b.Store(dvm.Dyn(func(t *dvm.Thread) int64 { return l.stamp + 4*t.R(req) + stampStart }), clockVal())
			b.Do(func(t *dvm.Thread) {
				t.SetR(nops, int64(p.opOff[t.R(req)+1]-p.opOff[t.R(req)]))
			})
			b.For(op, 0, dvm.FromReg(nops), func() {
				b.IfElse(isRead, func() {
					b.RLock(lockOf)
					b.Load(v, accOf)
					b.DoCost(cfg.OpCost, func(t *dvm.Thread) {})
					b.RUnlock(lockOf)
				}, func() {
					b.Lock(lockOf)
					b.Load(v, accOf)
					b.DoCost(cfg.OpCost, func(t *dvm.Thread) {})
					b.Store(accOf, dvm.Dyn(func(t *dvm.Thread) int64 { return t.R(v) + 1 }))
					b.Unlock(lockOf)
				})
			})
			b.Store(dvm.Dyn(func(t *dvm.Thread) int64 { return l.stamp + 4*t.R(req) + stampFinish }), clockVal())
		}, func() {
			b.Load(d, dvm.Const(l.done).InClass("qctl"))
			b.Unlock(dvm.Const(qlock).InClass("locks"))
			// done==1 with an empty queue is final: tail is frozen after
			// done, head only grows, so any view showing both has seen
			// the whole drained schedule (stale speculative views
			// included — staleness only under-reports head).
			b.IfElse(func(t *dvm.Thread) bool { return t.R(d) != 0 }, func() {
				b.Do(func(t *dvm.Thread) { t.SetR(exit, 1) })
			}, func() {
				b.DoCost(cfg.PollCost, func(t *dvm.Thread) {})
			})
		})
	})
	return b.Build()
}

// extract audits the final heap and converts the stamp records into
// Requests. Every audit failure here is a determinism or protocol bug, not
// a measurement artifact, so all of them are hard errors.
func extract(cfg Config, p *plan, l layout, read func(addr int64) int64, out *[]Request) error {
	if h, tl, d := read(l.head), read(l.tail), read(l.done); h != int64(cfg.Requests) || tl != int64(cfg.Requests) || d != 1 {
		return fmt.Errorf("opensim: queue not drained: head=%d tail=%d done=%d want %d/%d/1", h, tl, d, cfg.Requests, cfg.Requests)
	}
	var sum int64
	for k := 0; k < cfg.Keys; k++ {
		sum += read(l.acc + int64(k))
	}
	if sum != p.writes {
		return fmt.Errorf("opensim: account checksum %d != planned writes %d", sum, p.writes)
	}
	reqs := make([]Request, cfg.Requests)
	for i := range reqs {
		base := l.stamp + 4*int64(i)
		r := Request{
			ID:     i,
			Mix:    int(p.mix[i]),
			Admit:  read(base + stampAdmit),
			Depth:  read(base + stampDepth),
			Start:  read(base + stampStart),
			Finish: read(base + stampFinish),
		}
		if r.Admit < 1 || r.Start < r.Admit || r.Finish < r.Start || r.Depth < 1 {
			return fmt.Errorf("opensim: request %d has inconsistent stamps admit=%d start=%d finish=%d depth=%d",
				i, r.Admit, r.Start, r.Finish, r.Depth)
		}
		reqs[i] = r
	}
	*out = reqs
	return nil
}
