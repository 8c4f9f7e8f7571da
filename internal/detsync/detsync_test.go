package detsync

import (
	"testing"
	"testing/quick"
)

func TestNewTableAllocation(t *testing.T) {
	tbl := NewTable(4, 10, 2, 1, true)
	if len(tbl.Locks) != 10 || len(tbl.Conds) != 2 || len(tbl.Barriers) != 1 {
		t.Fatalf("table sizes wrong: %d locks %d conds %d barriers",
			len(tbl.Locks), len(tbl.Conds), len(tbl.Barriers))
	}
	for i := range tbl.Locks {
		if len(tbl.Locks[i].SpecHist) != 4 {
			t.Fatalf("lock %d speculation metadata not per-thread", i)
		}
		for tid := 0; tid < 4; tid++ {
			if tbl.Locks[i].SpecHist[tid] != ^uint64(0) {
				t.Fatalf("history must start all-success (optimistic)")
			}
		}
	}
}

func TestNewTableWithoutSpecMeta(t *testing.T) {
	tbl := NewTable(2, 3, 0, 0, false)
	for i := range tbl.Locks {
		if tbl.Locks[i].SpecHist != nil {
			t.Fatal("speculation metadata allocated although disabled")
		}
	}
}

func TestWakeHandshake(t *testing.T) {
	tbl := NewTable(2, 0, 0, 0, false)
	done := make(chan struct{})
	go func() {
		tbl.WaitWake(1)
		close(done)
	}()
	tbl.Wake(1)
	<-done

	// Wake before WaitWake must not be lost (buffered handoff).
	tbl.Wake(0)
	tbl.WaitWake(0)
}

func TestSuccessRatePermille(t *testing.T) {
	cases := []struct {
		hist uint64
		want int
	}{
		{^uint64(0), 1000},
		{0, 0},
		{1<<32 - 1, 500},
	}
	for _, c := range cases {
		if got := SuccessRatePermille(c.hist); got != c.want {
			t.Errorf("SuccessRatePermille(%x) = %d, want %d", c.hist, got, c.want)
		}
	}
}

func TestPushOutcome(t *testing.T) {
	h := uint64(0)
	h = PushOutcome(h, true)
	if h != 1 {
		t.Fatalf("push success: %x", h)
	}
	h = PushOutcome(h, false)
	if h != 2 {
		t.Fatalf("push failure: %x", h)
	}
	h = PushOutcome(h, true)
	if h != 5 {
		t.Fatalf("push success: %x", h)
	}
}

// TestQuickHistoryConvergence: pushing k consecutive failures onto a full
// history lowers the rate monotonically, and 64 failures zero it.
func TestQuickHistoryConvergence(t *testing.T) {
	f := func(k uint8) bool {
		h := ^uint64(0)
		prev := 1000
		for i := 0; i < int(k%65); i++ {
			h = PushOutcome(h, false)
			rate := SuccessRatePermille(h)
			if rate > prev {
				return false
			}
			prev = rate
		}
		if int(k%65) == 64 && SuccessRatePermille(h) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestThresholdCrossing documents the adaptation speed: with the paper's
// 85 % threshold, ten failures in the 64-bit window disable speculation.
func TestThresholdCrossing(t *testing.T) {
	h := ^uint64(0)
	n := 0
	for SuccessRatePermille(h) >= 850 {
		h = PushOutcome(h, false)
		n++
	}
	if n != 10 {
		t.Fatalf("failures to cross the 85%% threshold = %d, want 10", n)
	}
}
