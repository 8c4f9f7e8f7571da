package progcheck

import "lazydet/internal/telemetry"

// Publish records the footprint verdict counts under progcheck.hints.*.
// Deterministic (pure functions of the program set), so gateable.
func (h *SpecHints) Publish(tel *telemetry.Recorder) {
	if h == nil || !tel.Enabled() {
		return
	}
	tel.Count("progcheck.hints.locks", int64(len(h.Verdicts)))
	tel.Count("progcheck.hints.disjoint", int64(h.Count(VerdictDisjoint)))
	tel.Count("progcheck.hints.conflicting", int64(h.Count(VerdictConflicting)))
	tel.Count("progcheck.hints.unknown", int64(h.Count(VerdictUnknown)))
}
