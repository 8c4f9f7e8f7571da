package main

import (
	"fmt"

	"lazydet"
	"lazydet/internal/opensim"
)

// threads is the simulated thread count of every workload: schedules,
// TraceSig and every deterministic metric are functions of it, and the
// ROADMAP's trajectory is t=4.
const threads = 4

// sizes holds every size constant of the six workloads. README.md records
// the wall time each default produced on the reference box.
type sizes struct {
	htOps         int64 // ht-fine: operations per thread
	ownIters      int64 // own-lock: critical sections per thread
	hotIters      int64 // hot-lock: critical sections per thread
	stencilPhases int64 // stencil-bulk: barrier phases
	stencilPages  int64 // stencil-bulk: pages per thread span
	simRequests   int64 // sim-open: arrivals
	computeIters  int64 // compute: loop iterations per thread
}

var defaultSizes = sizes{
	htOps:         24_000,
	ownIters:      100_000,
	hotIters:      40_000,
	stencilPhases: 48,
	stencilPages:  128,
	simRequests:   20_000,
	computeIters:  5_000_000,
}

// quickSizes keeps `-quick` (and the tier-1 test) under a few seconds while
// still crossing every code path: reverts on hot-lock, multi-page commits on
// stencil-bulk, a queue that builds on sim-open.
var quickSizes = sizes{
	htOps:         300,
	ownIters:      400,
	hotIters:      300,
	stencilPhases: 3,
	stencilPages:  4,
	simRequests:   300,
	computeIters:  20_000,
}

// scaled multiplies the iteration counts of the three lock workloads by k:
// pthreads finishes them in a few milliseconds, so it runs k× the work to
// last long enough to time. stencil-bulk and compute take pthreads about as
// long as a DMT engine and stay as they are.
func (s sizes) scaled(k int64) sizes {
	s.htOps *= k
	s.ownIters *= k
	s.hotIters *= k
	return s
}

// workloadSpec is one workload: its name in BENCHMARK.json (which, with
// README.md, says why the benchmark has it) and how to build it from a seed.
type workloadSpec struct {
	name  string
	build func(seed uint64, sz sizes) *instance
}

var workloadSpecs = []workloadSpec{
	{"ht-fine", buildHT},
	{"own-lock", buildOwnLock},
	{"hot-lock", buildHotLock},
	{"stencil-bulk", buildStencil},
	{"sim-open", buildSim},
	{"compute", buildCompute},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// instance is one workload built from one seed: immutable plan arrays, the
// VM programs that index them, and the Go-side model of the expected final
// memory. Exactly one of closed and sim is set.
type instance struct {
	name string
	// ops is the number of operations one engine run performs (table
	// operations, critical sections, word updates, loop iterations or
	// requests) — the numerator of throughput and the divisor of ns/op.
	ops int64
	// plan fingerprints every plan array, for the determinism tests.
	plan   digest
	closed *closedLoop
	sim    *opensim.Config
}

// closedLoop is a batch workload: every thread runs a fixed program to
// completion. Its last instruction stamps the thread's logical clock into
// the heap, which is how the benchmark reads DLC-time completion without
// turning any engine option on.
type closedLoop struct {
	w *lazydet.Workload
	// stamp0 is the first finish-stamp word; thread t stamps stamp0+t.
	stamp0 int64
	// check is the independent output oracle over the non-stamp words.
	check func(read func(int64) int64) error
	// finish holds the stamps of the most recent run (filled by Validate).
	finish [threads]int64
}

// finishWorkload installs the programs, the oracle and the stamp capture.
func (c *closedLoop) finishWorkload(progs []*lazydet.Program) {
	c.w.Programs = func(n int) []*lazydet.Program { return progs[:n] }
	c.w.Validate = func(read func(int64) int64, _ int) error {
		for t := range c.finish {
			c.finish[t] = read(c.stamp0 + int64(t))
		}
		return c.check(read)
	}
}

// clockVal reads the thread's logical clock as an operand; 0 on pthreads,
// which has none.
func clockVal() func(*lazydet.Thread) int64 {
	return func(t *lazydet.Thread) int64 {
		if t.Clock == nil {
			return 0
		}
		return t.Clock()
	}
}

// emitStamp ends thread tid's program with its finish stamp.
func (c *closedLoop) emitStamp(b *lazydet.Builder, tid int) {
	b.Store(lazydet.Const(c.stamp0+int64(tid)), lazydet.Dyn(clockVal()))
}

// staggers draws each thread's start offset in DLC, so threads do not enter
// their loops in lock-step.
func staggers(seed uint64, d *digest) [threads]int64 {
	s := newStream(seed, "staggers")
	var out [threads]int64
	for t := range out {
		out[t] = 1 + s.intn(1024)
		d.add(out[t])
	}
	return out
}

func nop(*lazydet.Thread) {}

// padRegisters grows a program's register file, of which used registers are
// allocated, to one 64-byte cache line. The VM allocates the threads'
// register files back to back, so smaller ones share a line between threads
// running on different cores: unpadded, `compute` (two registers, written
// every instruction) took anywhere from 0.15 s to 0.76 s on the reference
// box depending on which threads happened to run together.
func padRegisters(b *lazydet.Builder, used int) {
	if used < 8 {
		b.Regs(8 - used)
	}
}

// matchModel is the oracle of the four workloads whose final memory a
// sequential model predicts exactly.
func matchModel(expect []int64) func(read func(int64) int64) error {
	return func(read func(int64) int64) error {
		for a, want := range expect {
			if got := read(int64(a)); got != want {
				return fmt.Errorf("word %d = %d, model says %d", a, got, want)
			}
		}
		return nil
	}
}

// ---- ht-fine ---------------------------------------------------------

// The paper's Fig. 1/7 point, re-emitted from internal/workloads/hashtable.go
// with the operation stream drawn from the seed instead of the thread PRNG:
// hand-over-hand chained table, one lock per slot.
const (
	htKeys    = 2048
	htBuckets = htKeys / 2 // load factor 2
	htChain   = 4          // 2× slack, as the original
	htUpdate  = 50         // percent of operations that insert or remove
)

func htHash(key int64) int64 { return (key * 2654435761) % htBuckets }

func buildHT(seed uint64, sz sizes) *instance {
	d := newDigest()
	stag := staggers(seed, &d)
	keySel, kindSel := newStream(seed, "keys"), newStream(seed, "kinds")
	n := int(sz.htOps)
	keys := make([][]int32, threads)
	kinds := make([][]uint8, threads) // 0 lookup, 1 insert, 2 remove
	inserted := make([]bool, htKeys)
	removed := make([]bool, htKeys)
	for t := range keys {
		keys[t], kinds[t] = make([]int32, n), make([]uint8, n)
		for i := 0; i < n; i++ {
			k := keySel.intn(htKeys)
			r := kindSel.intn(200)
			var kind uint8
			if r/2 < htUpdate {
				kind = 1 + uint8(r%2)
			}
			keys[t][i], kinds[t][i] = int32(k), kind
			inserted[k] = inserted[k] || kind == 1
			removed[k] = removed[k] || kind == 2
			d.add(k)
			d.add(int64(kind))
		}
	}

	const slots = htBuckets * htChain
	c := &closedLoop{stamp0: slots}
	c.w = &lazydet.Workload{Name: "ht-fine", HeapWords: slots + threads, Locks: slots}
	// Prefill half the key space: every even key goes to the next free slot
	// of its chain (chains have 2x slack).
	prefilled := make([]bool, htKeys)
	initial := make([]int64, slots)
	var used [htBuckets]int64
	for k := int64(0); k < htKeys; k += 2 {
		if b := htHash(k); used[b] < htChain {
			initial[b*htChain+used[b]] = k + 2
			used[b]++
			prefilled[k] = true
		}
	}
	c.w.Init = func(set func(addr, val int64), _ int) {
		for a, v := range initial {
			if v != 0 {
				set(int64(a), v)
			}
		}
	}

	// Bucket invariant plus key conservation against the plan: a key sits in
	// its own bucket at most once, is present only if it was prefilled or
	// some planned operation inserts it, and is absent only if it was never
	// prefilled or some planned operation removes it.
	c.check = func(read func(int64) int64) error {
		present := make([]bool, htKeys)
		for a := int64(0); a < slots; a++ {
			v := read(a)
			if v <= 1 {
				continue
			}
			k := v - 2
			switch {
			case k < 0 || k >= htKeys:
				return fmt.Errorf("slot %d holds key %d outside the key space", a, k)
			case htHash(k) != a/htChain:
				return fmt.Errorf("slot %d holds key %d of bucket %d", a, k, htHash(k))
			case present[k]:
				return fmt.Errorf("key %d stored twice", k)
			case !prefilled[k] && !inserted[k]:
				return fmt.Errorf("key %d present but never prefilled or inserted", k)
			}
			present[k] = true
		}
		for k := range present {
			if prefilled[k] && !present[k] && !removed[k] {
				return fmt.Errorf("prefilled key %d vanished with no planned remove", k)
			}
		}
		return nil
	}

	progs := make([]*lazydet.Program, threads)
	for tid := range progs {
		b := lazydet.NewProgram(fmt.Sprintf("ht-fine-t%d", tid))
		i, key, mode, base, s, v, stop := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
		padRegisters(b, 7)
		tk, tm := keys[tid], kinds[tid]
		slot := lazydet.Dyn(func(t *lazydet.Thread) int64 { return t.R(base) + t.R(s) })
		next := lazydet.Dyn(func(t *lazydet.Thread) int64 { return t.R(base) + t.R(s) + 1 })
		b.DoCost(stag[tid], nop)
		b.ForN(i, sz.htOps, func() {
			b.Do(func(t *lazydet.Thread) {
				k := int64(tk[t.R(i)])
				t.SetR(key, k)
				t.SetR(mode, int64(tm[t.R(i)]))
				t.SetR(base, htHash(k)*htChain)
				t.SetR(s, 0)
			})
			// Hand-over-hand: acquire the successor before releasing the
			// predecessor, then act on the final locked slot.
			b.Lock(slot)
			b.Set(stop, 0)
			b.While(func(t *lazydet.Thread) bool { return t.R(stop) == 0 }, func() {
				b.Load(v, slot)
				b.Do(func(t *lazydet.Thread) {
					if t.R(v) == t.R(key)+2 || t.R(v) == 0 || t.R(s) == htChain-1 {
						t.SetR(stop, 1)
					}
				})
				b.If(func(t *lazydet.Thread) bool { return t.R(stop) == 0 }, func() {
					b.Lock(next)
					b.Unlock(slot)
					b.Do(func(t *lazydet.Thread) { t.AddR(s, 1) })
				})
			})
			b.If(func(t *lazydet.Thread) bool { return t.R(mode) == 1 && t.R(v) <= 1 }, func() {
				b.Store(slot, lazydet.Dyn(func(t *lazydet.Thread) int64 { return t.R(key) + 2 }))
			})
			b.If(func(t *lazydet.Thread) bool { return t.R(mode) == 2 && t.R(v) == t.R(key)+2 }, func() {
				b.Store(slot, lazydet.Const(1)) // tombstone
			})
			b.Unlock(slot)
		})
		c.emitStamp(b, tid)
		progs[tid] = b.Build()
	}
	c.finishWorkload(progs)
	return &instance{name: "ht-fine", ops: threads * sz.htOps, plan: d, closed: c}
}

// ---- own-lock and hot-lock -------------------------------------------

// privateWords is the stride between threads' private words, as in the
// dispatch sweep's locked shape this workload is taken from.
const privateWords = 64

// ownGap is the mean DLC gap between own-lock's sections. Thread t's gap is
// ownGap-3, -1, +1, +3: with one gap for all, the threads' relative phase —
// which thread's release finds which thread waiting — is fixed for the whole
// run by the start staggers, and about one seed in six lands in a phase
// order where Consequence takes 20 % and Weak 33 % longer (seeds 4, 27, 28,
// 32-34, 40 of the first forty; README.md). With the skew the phases sweep
// through every order several hundred times in a run, and the wall is the
// mix of them whatever the seed.
const ownGap = 256

// buildOwnLock: each thread reacquires its own lock around a one-word
// read-modify-write, a ~256-DLC gap between sections (dispatch-sweep
// locked/r1). The update is order-sensitive (r*3+delta), so the model
// catches a lost or repeated section.
func buildOwnLock(seed uint64, sz sizes) *instance {
	d := newDigest()
	stag := staggers(seed, &d)
	vals := newStream(seed, "values")
	n := int(sz.ownIters)
	expect := make([]int64, threads*privateWords)
	deltas := make([][]int32, threads)
	for t := range deltas {
		deltas[t] = make([]int32, n)
		var r int64
		for i := range deltas[t] {
			dv := 1 + vals.intn(1<<20)
			deltas[t][i] = int32(dv)
			r = r*3 + dv
			d.add(dv)
		}
		expect[t*privateWords] = r
	}
	c := &closedLoop{stamp0: int64(len(expect)), check: matchModel(expect)}
	c.w = &lazydet.Workload{Name: "own-lock", HeapWords: c.stamp0 + threads, Locks: threads}
	progs := make([]*lazydet.Program, threads)
	for tid := range progs {
		b := lazydet.NewProgram(fmt.Sprintf("own-lock-t%d", tid))
		i, r := b.Reg(), b.Reg()
		padRegisters(b, 2)
		td := deltas[tid]
		addr, lock := lazydet.Const(int64(tid*privateWords)), lazydet.Const(int64(tid))
		b.DoCost(stag[tid], nop)
		b.ForN(i, sz.ownIters, func() {
			b.DoCost(ownGap+int64(2*tid-threads+1), nop)
			b.Lock(lock)
			b.Load(r, addr)
			b.Do(func(t *lazydet.Thread) { t.SetR(r, t.R(r)*3+int64(td[t.R(i)])) })
			b.Store(addr, lazydet.FromReg(r))
			b.Unlock(lock)
		})
		c.emitStamp(b, tid)
		progs[tid] = b.Build()
	}
	c.finishWorkload(progs)
	return &instance{name: "own-lock", ops: threads * sz.ownIters, plan: d, closed: c}
}

// hotWords is how many shared words hot-lock's one lock guards. Each sits
// on its own page: a section still dirties one word of one page, but a
// thread's view holds a frame per word, which keeps the run's allocation
// (frames, twins, snapshots) large against the few frames by which it varies
// from seed to seed.
const hotWords = 8

// buildHotLock: every thread adds to shared words under ONE lock, a 64-DLC
// gap between sections. Addition commutes, so the model is schedule-free.
func buildHotLock(seed uint64, sz sizes) *instance {
	d := newDigest()
	stag := staggers(seed, &d)
	keySel, vals := newStream(seed, "keys"), newStream(seed, "values")
	n := int(sz.hotIters)
	expect := make([]int64, hotWords*pageWords)
	word := make([][]uint8, threads)
	deltas := make([][]int32, threads)
	for t := range deltas {
		word[t], deltas[t] = make([]uint8, n), make([]int32, n)
		for i := 0; i < n; i++ {
			k, dv := keySel.intn(hotWords), 1+vals.intn(1<<20)
			word[t][i], deltas[t][i] = uint8(k), int32(dv)
			expect[k*pageWords] += dv
			d.add(k)
			d.add(dv)
		}
	}
	c := &closedLoop{stamp0: int64(len(expect)), check: matchModel(expect)}
	c.w = &lazydet.Workload{Name: "hot-lock", HeapWords: c.stamp0 + threads, Locks: 1}
	progs := make([]*lazydet.Program, threads)
	for tid := range progs {
		b := lazydet.NewProgram(fmt.Sprintf("hot-lock-t%d", tid))
		i, r := b.Reg(), b.Reg()
		padRegisters(b, 2)
		tw, td := word[tid], deltas[tid]
		addr := lazydet.Dyn(func(t *lazydet.Thread) int64 { return int64(tw[t.R(i)]) * pageWords })
		b.DoCost(stag[tid], nop)
		b.ForN(i, sz.hotIters, func() {
			b.DoCost(64, nop)
			b.Lock(lazydet.Const(0))
			b.Load(r, addr)
			b.Do(func(t *lazydet.Thread) { t.AddR(r, int64(td[t.R(i)])) })
			b.Store(addr, lazydet.FromReg(r))
			b.Unlock(lazydet.Const(0))
		})
		c.emitStamp(b, tid)
		progs[tid] = b.Build()
	}
	c.finishWorkload(progs)
	return &instance{name: "hot-lock", ops: threads * sz.hotIters, plan: d, closed: c}
}

// ---- stencil-bulk ----------------------------------------------------

// pageWords mirrors vheap.DefaultPageWords: spans are sized in pages so a
// phase dirties whole pages.
const pageWords = 256

// buildStencil: double-buffered barrier stencil. Each phase a thread reads
// its left neighbour's span from the source buffer and rewrites its own span
// in the destination buffer, then one barrier swaps the buffers. Race-free by
// construction, so all four engines must produce the model's heap. The
// per-phase coefficient is positive, so no store is silent.
func buildStencil(seed uint64, sz sizes) *instance {
	d := newDigest()
	stag := staggers(seed, &d)
	vals := newStream(seed, "values")
	span := sz.stencilPages * pageWords
	half := threads * span
	coef := make([]int64, sz.stencilPhases)
	for p := range coef {
		coef[p] = 1 + vals.intn(1000)
		d.add(coef[p])
	}
	initial := make([]int64, half)
	for a := range initial {
		initial[a] = vals.intn(1 << 16)
	}
	d.add(initial[0])
	d.add(initial[half-1])

	// The sequential model: the same recurrence, one phase at a time.
	bufs := [2][]int64{append([]int64(nil), initial...), make([]int64, half)}
	for p, cf := range coef {
		src, dst := bufs[p%2], bufs[1-p%2]
		for t := int64(0); t < threads; t++ {
			left := (t + threads - 1) % threads
			for j := int64(0); j < span; j++ {
				dst[t*span+j] = src[left*span+j] + cf
			}
		}
	}
	expect := append(append([]int64(nil), bufs[0]...), bufs[1]...)

	c := &closedLoop{stamp0: 2 * half, check: matchModel(expect)}
	c.w = &lazydet.Workload{Name: "stencil-bulk", HeapWords: 2*half + threads, Barriers: 1}
	c.w.Init = func(set func(addr, val int64), _ int) {
		for a, v := range initial {
			set(int64(a), v)
		}
	}
	progs := make([]*lazydet.Program, threads)
	for tid := range progs {
		b := lazydet.NewProgram(fmt.Sprintf("stencil-bulk-t%d", tid))
		p, j, v, src, dst := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
		padRegisters(b, 5)
		own, left := int64(tid)*span, int64((tid+threads-1)%threads)*span
		b.DoCost(stag[tid], nop)
		b.ForN(p, sz.stencilPhases, func() {
			b.Do(func(t *lazydet.Thread) {
				par := t.R(p) % 2
				t.SetR(src, par*half+left)
				t.SetR(dst, (1-par)*half+own)
			})
			b.ForN(j, span, func() {
				b.Load(v, lazydet.Dyn(func(t *lazydet.Thread) int64 { return t.R(src) + t.R(j) }))
				b.Store(lazydet.Dyn(func(t *lazydet.Thread) int64 { return t.R(dst) + t.R(j) }),
					lazydet.Dyn(func(t *lazydet.Thread) int64 { return t.R(v) + coef[t.R(p)] }))
			})
			b.Barrier(lazydet.Const(0))
		})
		c.emitStamp(b, tid)
		progs[tid] = b.Build()
	}
	c.finishWorkload(progs)
	return &instance{name: "stencil-bulk", ops: half * sz.stencilPhases, plan: d, closed: c}
}

// ---- compute ---------------------------------------------------------

// buildCompute: a Do-only loop, no locks, one shared store at the very end.
func buildCompute(seed uint64, sz sizes) *instance {
	d := newDigest()
	stag := staggers(seed, &d)
	vals := newStream(seed, "values")
	expect := make([]int64, threads*privateWords)
	var start [threads]int64
	for t := range start {
		start[t] = vals.intn(1 << 16)
		d.add(start[t])
		acc := start[t]
		for i := int64(0); i < sz.computeIters; i++ {
			acc = (acc*3 + 1) & 0xffff
		}
		expect[t*privateWords] = acc
	}
	c := &closedLoop{stamp0: int64(len(expect)), check: matchModel(expect)}
	c.w = &lazydet.Workload{Name: "compute", HeapWords: c.stamp0 + threads}
	progs := make([]*lazydet.Program, threads)
	for tid := range progs {
		b := lazydet.NewProgram(fmt.Sprintf("compute-t%d", tid))
		i, acc := b.Reg(), b.Reg()
		padRegisters(b, 2)
		b.DoCost(stag[tid], nop)
		b.Set(acc, start[tid])
		b.ForN(i, sz.computeIters, func() {
			b.Do(func(t *lazydet.Thread) { t.SetR(acc, t.R(acc)*3+1) })
			b.Do(func(t *lazydet.Thread) { t.SetR(acc, t.R(acc)&0xffff) })
		})
		b.Store(lazydet.Const(int64(tid*privateWords)), lazydet.FromReg(acc))
		c.emitStamp(b, tid)
		progs[tid] = b.Build()
	}
	c.finishWorkload(progs)
	return &instance{name: "compute", ops: threads * sz.computeIters, plan: d, closed: c}
}

// ---- sim-open --------------------------------------------------------

// buildSim: internal/opensim's open-loop service simulation; the arrival
// schedule and request bodies are drawn from the seed inside opensim, by the
// same partitioned-stream recipe.
func buildSim(seed uint64, sz sizes) *instance {
	cfg := &opensim.Config{
		Workers:  threads - 1,
		Requests: int(sz.simRequests),
		MeanGap:  96,
		Seed:     seed,
		Keys:     64,
		Stripes:  4,
		HotPct:   25,
		HotKeys:  2,
	}
	d := newDigest()
	d.add(int64(seed))
	return &instance{name: "sim-open", ops: sz.simRequests, plan: d, sim: cfg}
}
