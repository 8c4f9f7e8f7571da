package detsync

import "testing"

func TestNewTableAllocation(t *testing.T) {
	tbl := NewTable(4, 10, 2, 1, true)
	if len(tbl.Locks) != 10 || tbl.Conds != 2 || len(tbl.Barriers) != 1 {
		t.Fatalf("table sizes wrong: %d locks %d conds %d barriers",
			len(tbl.Locks), tbl.Conds, len(tbl.Barriers))
	}
	for i := range tbl.Locks {
		if len(tbl.Locks[i].SpecHist) != 4 {
			t.Fatalf("lock %d speculation metadata not per-thread", i)
		}
		for tid := 0; tid < 4; tid++ {
			if tbl.Locks[i].SpecHist[tid] != 0 {
				t.Fatalf("NewTable wrote a history word; seeding is core's policy's")
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
