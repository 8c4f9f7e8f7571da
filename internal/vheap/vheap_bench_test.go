package vheap

import (
	"fmt"
	"testing"
)

func BenchmarkViewLoadClean(b *testing.B) {
	h := New(1 << 16)
	v := h.NewView()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Load(int64(i) & 0xffff)
	}
}

func BenchmarkViewLoadDirty(b *testing.B) {
	h := New(1 << 16)
	v := h.NewView()
	for a := int64(0); a < 1<<16; a += 64 {
		v.Store(a, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Load(int64(i) & 0xffff)
	}
}

func BenchmarkViewStoreHot(b *testing.B) {
	h := New(1 << 16)
	v := h.NewView()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Store(int64(i)&0xffff, int64(i))
	}
}

func BenchmarkCommitSmall(b *testing.B) {
	h := New(1 << 16)
	v := h.NewView()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Store(int64(i)&0xffff, int64(i)|1)
		v.Commit()
	}
}

func BenchmarkCommitWide(b *testing.B) {
	h := New(1 << 16)
	v := h.NewView()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := int64(0); p < 32; p++ {
			v.Store(p*256+int64(i)&0xff, int64(i)|1)
		}
		v.Commit()
	}
}

// BenchmarkCommitDirtyFraction sweeps the fraction of a page modified
// between commits. The words-scanned/commit metric is the structural claim
// of the dirty bitmap: the dirty word count, constant in the page size.
func BenchmarkCommitDirtyFraction(b *testing.B) {
	for _, pageWords := range []int{256, 1024} {
		for _, frac := range []struct {
			name  string
			dirty func(pw int) int
		}{
			{"1word", func(int) int { return 1 }},
			{"1pct", func(pw int) int { return (pw + 99) / 100 }},
			{"50pct", func(pw int) int { return pw / 2 }},
			{"100pct", func(pw int) int { return pw }},
		} {
			b.Run(fmt.Sprintf("page%d/%s", pageWords, frac.name), func(b *testing.B) {
				h := New(int64(pageWords), WithPageWords(pageWords))
				v := h.NewView()
				nd := frac.dirty(pageWords)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for w := 0; w < nd; w++ {
						// Spread writes across the page; fresh value each
						// iteration keeps every store non-silent.
						v.Store(int64(w*(pageWords/nd)), int64(i*nd+w)|1)
					}
					v.Commit()
				}
				b.StopTimer()
				st := h.Stats()
				if st.Commits > 0 {
					b.ReportMetric(float64(st.WordsScanned)/float64(st.Commits), "words-scanned/commit")
				}
			})
		}
	}
}

func BenchmarkSnapshotAndRevert(b *testing.B) {
	h := New(1 << 16)
	v := h.NewView()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Store(int64(i)&0xffff, int64(i)|1)
		snap := v.SnapshotDirty()
		v.Store(int64(i+7)&0xffff, int64(i))
		v.RevertTo(snap)
		v.Revert()
	}
}

// BenchmarkSnapshotIntoAndRevert is BenchmarkSnapshotAndRevert on the
// buffer-reusing path the speculation engine drives: after warm-up the
// whole begin/revert cycle must run allocation-free.
func BenchmarkSnapshotIntoAndRevert(b *testing.B) {
	h := New(1 << 16)
	v := h.NewView()
	var snap *DirtySnapshot
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Store(int64(i)&0xffff, int64(i)|1)
		snap = v.SnapshotDirtyInto(snap)
		v.Store(int64(i+7)&0xffff, int64(i))
		v.RevertTo(snap)
		v.Revert()
	}
}
