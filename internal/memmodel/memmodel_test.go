package memmodel

import "testing"

// logOutcomes logs the outcome set every model allows for p, so
// `go test -v -run 'Figure|StoreBuffer|MessagePassing' ./internal/memmodel`
// prints the outcome table of the paper's §4 litmus programs.
func logOutcomes(t *testing.T, p *Program) {
	t.Helper()
	t.Logf("%s", p.Name)
	for _, m := range []struct {
		name    string
		allowed func(*Program) OutcomeSet
	}{{"SC", SC}, {"TSO", TSO}, {"DLRC", DLRC}, {"DDRF", DDRF}} {
		t.Logf("  %-5s %v", m.name+":", m.allowed(p))
	}
}

// TestFigure4 checks the paper's Figure 4 claims: the both-zero outcome is
// impossible under TSO, possible under DDRF, and mandatory under DLRC.
func TestFigure4(t *testing.T) {
	p := Figure4()
	tso := TSO(p)
	dlrc := DLRC(p)
	ddrf := DDRF(p)
	logOutcomes(t, p)

	if tso.Has(BothZero) {
		t.Error("TSO must forbid r1=0 r2=0 (locks are full fences)")
	}
	if !ddrf.Has(BothZero) {
		t.Error("DDRF must allow r1=0 r2=0")
	}
	if !dlrc.Has(BothZero) || len(dlrc) != 1 {
		t.Errorf("DLRC must REQUIRE r1=0 r2=0, got %v", dlrc)
	}
}

// TestFigure5 checks the paper's Figure 5: under DLRC the racy load can
// never return 1; under DDRF it can return 0 or 1.
func TestFigure5(t *testing.T) {
	p := Figure5()
	dlrc := DLRC(p)
	ddrf := DDRF(p)
	logOutcomes(t, p)

	if dlrc.Has("r1=1") {
		t.Error("DLRC must forbid r1=1 (no happens-before edge ever exists)")
	}
	if !ddrf.Has("r1=0") || !ddrf.Has("r1=1") {
		t.Errorf("DDRF must allow both r1=0 and r1=1, got %v", ddrf)
	}
}

// TestFigure6 checks the relative-strength diagram: TSO ⊆ DDRF and
// DLRC ⊆ DDRF on the paper's litmus tests, while TSO and DLRC are
// incomparable (each allows an outcome of Figure 4 the other forbids).
func TestFigure6(t *testing.T) {
	for _, p := range []*Program{Figure4(), Figure5(), MessagePassing()} {
		tso := TSO(p)
		dlrc := DLRC(p)
		ddrf := DDRF(p)
		t.Logf("%s: TSO ⊆ DDRF %v, DLRC ⊆ DDRF %v", p.Name, tso.SubsetOf(ddrf), dlrc.SubsetOf(ddrf))
		if !tso.SubsetOf(ddrf) {
			t.Errorf("%s: TSO ⊄ DDRF: TSO %v, DDRF %v", p.Name, tso, ddrf)
		}
		if !dlrc.SubsetOf(ddrf) {
			t.Errorf("%s: DLRC ⊄ DDRF: DLRC %v, DDRF %v", p.Name, dlrc, ddrf)
		}
	}
	p := Figure4()
	tso := TSO(p)
	dlrc := DLRC(p)
	t.Logf("%s: TSO ⊆ DLRC %v, DLRC ⊆ TSO %v (incomparable)", p.Name, tso.SubsetOf(dlrc), dlrc.SubsetOf(tso))
	if tso.SubsetOf(dlrc) || dlrc.SubsetOf(tso) {
		t.Errorf("TSO and DLRC must be incomparable on Figure 4: TSO %v, DLRC %v", tso, dlrc)
	}
}

// TestSCSubsetOfTSO sanity-checks the enumerators: sequential consistency
// is stronger than TSO on every litmus test.
func TestSCSubsetOfTSO(t *testing.T) {
	for _, p := range []*Program{Figure4(), Figure5(), MessagePassing(), StoreBufferNoLocks()} {
		sc := SC(p)
		tso := TSO(p)
		if !sc.SubsetOf(tso) {
			t.Errorf("%s: SC ⊄ TSO: SC %v, TSO %v", p.Name, sc, tso)
		}
	}
}

// TestStoreBufferWithoutLocks: without synchronization, TSO allows the
// both-zero outcome the fences forbade in Figure 4 (the paper notes this
// in §4).
func TestStoreBufferWithoutLocks(t *testing.T) {
	p := StoreBufferNoLocks()
	logOutcomes(t, p)
	tso := TSO(p)
	if !tso.Has(BothZero) {
		t.Errorf("TSO without fences must allow r1=0 r2=0, got %v", tso)
	}
	sc := SC(p)
	if sc.Has(BothZero) {
		t.Errorf("SC must forbid r1=0 r2=0 even without locks, got %v", sc)
	}
}

// TestMessagePassingHandoff: when the receiver sees the flag set, every
// model must deliver the data (the flag's critical section is ordered
// after the sender's, creating a happens-before chain to the data load).
func TestMessagePassingHandoff(t *testing.T) {
	p := MessagePassing()
	logOutcomes(t, p)
	for name, set := range map[string]OutcomeSet{"TSO": TSO(p), "DLRC": DLRC(p), "DDRF": DDRF(p)} {
		if set.Has("data=0 flag=1") {
			t.Errorf("%s: flag observed but data lost: %v", name, set)
		}
		if !set.Has("data=42 flag=1") {
			t.Errorf("%s: successful handoff missing: %v", name, set)
		}
	}
}
